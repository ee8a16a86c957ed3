import argparse
import shlex
from pathlib import Path

import pytest

from jetgeo.cli import SystemFileError, build_parser, parse_system_file, run_command
from jetgeo.models import cancer_model, golden_compare, golden_domain

CANCER_FILE = """\
# proliferating/quiescent tumor growth flow
vars: P Q
params: r=1 a=1
params: h=1 k=1
eq P: P - P*(P + Q) + h*P*Q/(1 + k*P^2)
eq Q: -r*Q + a*P*(P + Q) - h*P*Q/(1 + k*P^2)
"""

# N is affine in the states and EYM depends on all three
ELLIPSOID_FILE = "vars: x y z\nparams: a=2\neq x: z^2 + a*y\neq y: x^2\neq z: 3*y^2\n"


# ---------------------------------------------------------------------------
# system file parsing


def test_parse_cancer_file_matches_builtin_model():
    system = parse_system_file(CANCER_FILE)
    assert system.state_names == ("P", "Q")
    assert system.params == {"r": 1.0, "a": 1.0, "h": 1.0, "k": 1.0}
    _, golden = cancer_model()
    comparison = golden_compare(system, golden, golden_domain(system, (0.1, 5.0)))
    assert comparison.passed


def test_parse_file_missing_equation_names_variable():
    text = "vars: P Q\neq P: P\n"
    with pytest.raises(SystemFileError, match="Q"):
        parse_system_file(text)


def test_parse_file_undeclared_identifier_names_symbol():
    text = "vars: P Q\neq P: P + z\neq Q: Q\n"
    with pytest.raises(SystemFileError, match="'z'"):
        parse_system_file(text)


def test_parse_file_duplicate_variable():
    with pytest.raises(SystemFileError, match="duplicate variable"):
        parse_system_file("vars: P P\neq P: P\n")


def test_parse_file_duplicate_vars_line():
    with pytest.raises(SystemFileError, match="duplicate 'vars:'"):
        parse_system_file("vars: P Q\nvars: R S\neq P: P\neq Q: Q\n")


def test_parse_file_malformed_parameter():
    with pytest.raises(SystemFileError, match="malformed parameter"):
        parse_system_file("vars: P Q\nparams: r=abc\neq P: P\neq Q: Q\n")
    with pytest.raises(SystemFileError, match="malformed parameter"):
        parse_system_file("vars: P Q\nparams: r\neq P: P\neq Q: Q\n")


def test_parse_file_unrecognized_line():
    with pytest.raises(SystemFileError, match="unrecognized"):
        parse_system_file("vars: P Q\nbogus line\neq P: P\neq Q: Q\n")


def test_parse_file_requires_vars_line():
    with pytest.raises(SystemFileError, match="missing 'vars:'"):
        parse_system_file("eq P: P\n")


def test_parse_file_equation_for_undeclared_variable():
    with pytest.raises(SystemFileError, match="undeclared"):
        parse_system_file("vars: P Q\neq P: P\neq Q: Q\neq R: P\n")


# ---------------------------------------------------------------------------
# commands


def test_analyze_builtin_model_passes(capsys):
    status = run_command(["analyze", "--model", "hiv1"])
    out = capsys.readouterr().out
    assert status == 0
    assert "PASS maxwell" in out
    # antisymmetry holds by construction and is not re-checked at runtime
    assert "antisymmetry" not in out
    assert "yang-mills energy:" in out


def test_analyze_output_is_deterministic(capsys):
    run_command(["analyze", "--model", "cancer", "--seed", "3"])
    first = capsys.readouterr().out
    run_command(["analyze", "--model", "cancer", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_analyze_from_file(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text(CANCER_FILE)
    status = run_command(["analyze", "--file", str(path)])
    out = capsys.readouterr().out
    assert status == 0
    assert "PASS maxwell" in out


def test_verify_builtin_models(capsys):
    for model in ("cancer", "hiv1"):
        status = run_command(["verify", "--model", model, "--samples", "16"])
        out = capsys.readouterr().out
        assert status == 0, out
        assert "FAIL" not in out
        assert "golden:EYM" in out


def test_levelset_classification_line(capsys):
    status = run_command(["classify", "--model", "hiv1", "--level", "0.125"])
    out = capsys.readouterr().out
    assert status == 0
    assert "  critical level C* = 0.125\n" in out
    assert "  center T=0.5, Tstar=0, V=0\n" in out
    assert "  free along Tstar\n" in out
    assert out.endswith("result: line\n")


def test_levelset_classification_cylinder_and_empty(capsys):
    assert run_command(["classify", "--model", "hiv1", "--level", "0.25"]) == 0
    assert capsys.readouterr().out == (
        "levelset classification of hiv1 at C=0.25\n"
        "  critical level C* = 0.125\n"
        "  center T=0.5, Tstar=0, V=0\n"
        "  semi-axis 0.707106781187 along V\n"
        "  semi-axis 0.5 along T\n"
        "  free along Tstar\n"
        "result: elliptic cylinder\n"
    )
    run_command(["classify", "--model", "hiv1", "--level", "0.05"])
    out = capsys.readouterr().out
    assert "  critical level C* = 0.125\n" in out
    assert out.endswith("result: empty\n")


def test_levelset_classifies_a_file_system_with_its_params(tmp_path, capsys):
    path = tmp_path / "ellipsoid.txt"
    path.write_text("vars: x y z\nparams: a=2\neq x: z^2 + a*y\neq y: x^2\neq z: 3*y^2\n")
    assert run_command(["classify", "--file", str(path), "--level", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "  critical level C* = 0\n  center x=1, y=0, z=0\n" in out
    assert out.endswith("result: ellipsoid\n")


def test_levelset_classification_rejects_a_non_quadratic_energy(capsys):
    assert run_command(["classify", "--model", "cancer", "--level", "0.25"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: energy is not quadratic in the states: N_12 is not affine in P\n"


@pytest.mark.parametrize("level", ["nan", "inf", "-0.1"])
def test_levelset_classification_rejects_a_bad_level(capsys, level):
    assert run_command(["classify", "--model", "hiv1", "--level", level]) == 2
    assert capsys.readouterr().err == f"error: level must be finite and nonnegative, got {float(level)}\n"


def test_levelset_hiv_parameter_options_are_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(["classify", "--model", "hiv1", "--level", "0.25", "--k", "2", "--n", "1", "--delta", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --k 2 --n 1 --delta 1" in capsys.readouterr().err


def test_levelset_zero_curve_csv(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    status = run_command(
        [
            "contour", "--model", "cancer", "--level", "0", "--axes", "P,Q",
            "--box=0.025:5,-20:20", "--out", str(out_path),
        ]
    )
    assert status == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "polyline_id,P,Q"
    assert len(lines) > 1 and lines[1].startswith("0,")
    assert "contours of cancer at level 0 -> " in capsys.readouterr().out


def test_levelset_zero_curve_needs_a_planar_system(capsys):
    args = ["contour", "--model", "hiv1", "--level", "0", "--axes", "T,V", "--fixed", "Tstar=1"]
    assert run_command(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: level 0 needs a planar system: with n=3 ")


def test_levelset_zero_curve_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(
            ["contour", "--model", "cancer", "--level", "0", "--axes", "P,Q",
             "--zero-curve", "--a", "1", "--h", "1", "--k", "1"]
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --zero-curve --a 1 --h 1" in capsys.readouterr().err


def test_levelset_contours_csv(tmp_path):
    out_path = tmp_path / "contours.csv"
    status = run_command(
        [
            "contour", "--model", "cancer", "--level", "0.25",
            "--axes", "P,Q", "--box", "0:3,0:3", "--grid", "32",
            "--out", str(out_path),
        ]
    )
    assert status == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "polyline_id,P,Q"
    assert len(lines) > 10
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[1]), float(first[2])


def test_levelset_rejects_seed_option(capsys):
    # classification samples nothing, so a seed would be silently ignored
    with pytest.raises(SystemExit) as exc:
        run_command(["classify", "--model", "hiv1", "--level", "0.125", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_verify_rejects_fewer_than_one_sample(capsys):
    # nothing would be sampled, yet every check would PASS
    assert run_command(["verify", "--model", "cancer", "--samples", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: samples must be at least 1, got 0\n"


def test_trace_rejects_seed_option(capsys):
    # integration draws no random numbers, so a seed would be silently ignored
    with pytest.raises(SystemExit) as exc:
        run_command(["trace", "--model", "cancer", "--x0", "1,1", "--t", "1", "--dt", "0.01", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_trace_writes_csv_and_checks_geodesic(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    flow = ["--model", "cancer", "--x0", "1,1", "--t", "5", "--dt", "0.001"]
    assert run_command(["trace", *flow, "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == f"trace: cancer -> {out_path} (5001 samples)\n"
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,P,Q"
    assert len(lines) == 5002
    assert run_command(["geodesic", *flow]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS geodesic_residual") and out.count("\n") == 1


def test_trace_stdout_mode(capsys):
    status = run_command(["trace", "--model", "cancer", "--x0", "1,1", "--t", "0.01", "--dt", "0.005"])
    out = capsys.readouterr().out
    assert status == 0
    assert out.startswith("t,P,Q\n")
    # a pure CSV: every row after the header is three numbers
    rows = out.splitlines()[1:]
    assert len(rows) == 3
    assert all(len([float(v) for v in row.split(",")]) == 3 for row in rows)


def test_trace_coarse_step_fails_geodesic_with_nonzero_exit(capsys):
    status = run_command(
        ["geodesic", "--model", "cancer", "--x0", "1,1", "--t", "5", "--dt", "0.5"]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert "FAIL geodesic_residual" in out


def test_input_errors_exit_nonzero(capsys):
    assert run_command(["analyze", "--file", "/nonexistent/system.txt"]) == 2
    capsys.readouterr()
    assert run_command(["trace", "--model", "cancer", "--x0", "1", "--t", "1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_levelset_contours_reject_a_pole_in_the_box(tmp_path, capsys):
    path = tmp_path / "pole.txt"
    path.write_text("vars: x y\neq x: y/(x - 1)\neq y: x\n")
    args = ["contour", "--file", str(path), "--level", "1", "--axes", "x,y", "--box", "0:2,0:2", "--grid", "8"]
    assert run_command(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: energy is non-finite at 9 grid nodes and cell centres, first at x=1, y=0\n"
    )


def test_levelset_contours_reject_a_pole_at_cell_centres_only(tmp_path, capsys):
    path = tmp_path / "pole.txt"
    path.write_text("vars: x y\neq x: y/(x - 0.125)\neq y: x\n")
    args = ["contour", "--file", str(path), "--level", "1", "--axes", "x,y", "--box", "0:2,0:2", "--grid", "8"]
    assert run_command(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: energy is non-finite at 8 grid nodes and cell centres, first at x=0.125, y=0.125\n"
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["--box", "1:1,0:3"], "box interval for P needs finite lo < hi, got 1:1"),
        (["--level", "nan"], "level must be finite and nonnegative, got nan"),
        (["--level", "inf"], "level must be finite and nonnegative, got inf"),
    ],
)
def test_levelset_contours_reject_a_bad_box_or_level(capsys, args, message):
    command = ["contour", "--model", "cancer", "--axes", "P,Q", *args]
    if "--level" not in args:
        command += ["--level", "0.25"]
    assert run_command(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("fixed, stray", [("Tstar=1,Typo=3", "Typo"), ("Tstar=1,T=5", "T")])
def test_levelset_contours_reject_fixed_names_that_are_not_remaining_states(capsys, fixed, stray):
    args = ["contour", "--model", "hiv1", "--level", "1", "--axes", "T,V", "--fixed", fixed]
    assert run_command(args) == 2
    assert capsys.readouterr().err == f"error: fixed values for names that are not remaining states: ['{stray}']\n"


def test_levelset_rerun_is_byte_identical(capsys):
    args = ["classify", "--model", "hiv1", "--level", "0.25"]
    run_command(args)
    first = capsys.readouterr().out
    run_command(args)
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "terms, command",
    [
        (200, ["trace", "--x0", "0.5,0.5", "--t", "0.1", "--dt", "0.01"]),
        (200, ["contour", "--level", "0.01", "--axes", "x,y", "--box", "0:1,0:1"]),
        (400, ["trace", "--x0", "0.5,0.5", "--t", "0.1", "--dt", "0.01"]),
        (400, ["contour", "--level", "0.01", "--axes", "x,y", "--box", "0:1,0:1"]),
        (600, ["analyze"]),
        (2000, ["analyze"]),
    ],
)
def test_too_deep_expressions_are_usage_errors(tmp_path, capsys, terms, command):
    # a sum of `terms` products nests deeper than Python's parser (200) or
    # recursion limit allows; the CLI reports it on one line, not a traceback.
    # `analyze` on 600 terms fails while deriving, on 2,000 while loading.
    path = _deep_sum_file(tmp_path, terms)
    assert run_command([command[0], "--file", str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_analyze_derives_a_400_term_sum(tmp_path, capsys):
    # 400 terms are below the depth at which `_diff` and `simplify` run out of stack
    assert run_command(["analyze", "--file", str(_deep_sum_file(tmp_path, 400))]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("PASS maxwell 0.000e+00\n") and captured.err == ""


def _deep_sum_file(tmp_path, terms):
    path = tmp_path / "deep.txt"
    path.write_text("vars: x y\nparams: c=0.001\neq x: " + " + ".join(["c*x*y"] * terms) + "\neq y: x - y\n")
    return path


# ---------------------------------------------------------------------------
# every option of every subcommand takes effect

#: Per subcommand: a base invocation that succeeds (option -> value, where
#: "{cancer}", "{ellipsoid}" and "{out}" are files in the test directory) and
#: one row per option: a second value that must change stdout, stderr, the
#: exit status or the written file, or None where the option's effect does
#: not show at print precision (`analyze` prints the same Maxwell deviation
#: across seeds).
OPTION_TABLE = {
    "analyze": (
        {"--file": "{cancer}"},
        {"--model": "hiv1", "--file": "{ellipsoid}", "--seed": None},
    ),
    # only the golden comparison of a built-in model shows the seed
    "verify": (
        {"--model": "cancer", "--samples": "4"},
        {"--model": "hiv1", "--file": "{cancer}", "--seed": "1", "--samples": "8"},
    ),
    "trace": (
        {"--file": "{cancer}", "--x0": "1,1", "--t": "0.05", "--dt": "0.01"},
        {"--model": "hiv1", "--file": "{ellipsoid}", "--x0": "1,2", "--t": "0.06", "--dt": "0.005", "--out": "{out}"},
    ),
    # the worst residual on the tumor model is near t = 0, so --t shows only on a growing flow
    "geodesic": (
        {"--file": "{ellipsoid}", "--x0": "0.5,0.5,0.5", "--t": "0.5", "--dt": "0.001"},
        {"--model": "hiv1", "--file": "{cancer}", "--x0": "0.5,0.5,0.6", "--t": "0.6", "--dt": "0.002"},
    ),
    "classify": (
        {"--file": "{ellipsoid}", "--level": "0.5"},
        {"--model": "hiv1", "--file": "{cancer}", "--level": "0.25"},
    ),
    "contour": (
        {"--file": "{ellipsoid}", "--level": "1", "--axes": "x,y", "--fixed": "z=0.5", "--box": "0:2,0:2", "--grid": "8"},
        {
            "--model": "hiv1", "--file": "{cancer}", "--level": "2", "--axes": "y,x", "--fixed": "z=1",
            "--box": "0:1,0:2", "--grid": "9", "--out": "{out}",
        },
    ),
}

SYSTEM_OPTIONS = ("--model", "--file")


class _ReadRecorder(argparse.Namespace):
    """A Namespace that records the names of the attributes read from it."""

    def __init__(self):
        object.__setattr__(self, "_reads", set())
        super().__init__()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


def _declared(subparser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in subparser._actions if not isinstance(a, argparse._HelpAction)]


def _argv(command: str, options: dict[str, str], files: dict[str, Path]) -> list[str]:
    argv = [command]
    for option, value in options.items():
        argv += [option, value.format(**files)]
    return argv


@pytest.fixture
def files(tmp_path):
    (tmp_path / "cancer.txt").write_text(CANCER_FILE)
    (tmp_path / "ellipsoid.txt").write_text(ELLIPSOID_FILE)
    names = {"cancer": "cancer.txt", "ellipsoid": "ellipsoid.txt", "out": "out.csv"}
    return {key: tmp_path / name for key, name in names.items()}


def test_option_table_covers_the_parser():
    subparsers = _subparsers()
    assert set(OPTION_TABLE) == set(subparsers)
    for command, subparser in subparsers.items():
        options = {o for a in _declared(subparser) for o in a.option_strings}
        assert set(OPTION_TABLE[command][1]) == options, command


@pytest.mark.parametrize("command", sorted(OPTION_TABLE))
def test_every_declared_option_is_read_by_its_handler(files, capsys, command):
    base, _ = OPTION_TABLE[command]
    args = build_parser().parse_args(_argv(command, base, files), namespace=_ReadRecorder())
    args._reads.clear()
    assert args.func(args) == 0
    # of the exclusive --model and --file, the one not given need not be read
    absent = {option.lstrip("-") for option in SYSTEM_OPTIONS if option not in base}
    unread = {a.dest for a in _declared(_subparsers()[command])} - absent - args._reads
    assert not unread, f"{command} never reads {sorted(unread)}"


@pytest.mark.parametrize(
    "command, option",
    [
        (command, option)
        for command, (_, rows) in sorted(OPTION_TABLE.items())
        for option, value in rows.items()
        if value is not None
    ],
)
def test_every_option_changes_the_outcome(files, capsys, command, option):
    base, rows = OPTION_TABLE[command]

    def outcome(options):
        status = run_command(_argv(command, options, files))
        written = files["out"].read_bytes() if files["out"].exists() else None
        files["out"].unlink(missing_ok=True)
        return status, *capsys.readouterr(), written

    # --model and --file are exclusive, so a system row replaces the base's system
    changed = {k: v for k, v in base.items() if option not in SYSTEM_OPTIONS or k not in SYSTEM_OPTIONS}
    changed[option] = rows[option]
    assert outcome(base)[0] == 0
    assert outcome(changed) != outcome(base)


@pytest.mark.parametrize("command", sorted(OPTION_TABLE))
def test_another_subcommands_option_is_a_usage_error(files, capsys, command):
    base, rows = OPTION_TABLE[command]
    foreign = {
        option: value
        for other_base, other_rows in OPTION_TABLE.values()
        for option, value in {**other_rows, **other_base}.items()
        if option not in rows and value is not None
    }
    assert foreign
    for option, value in foreign.items():
        with pytest.raises(SystemExit) as exc:
            run_command(_argv(command, {**base, option: value}, files))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} " in capsys.readouterr().err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [line for line in block.splitlines() if line.startswith("jetgeo ")]
    assert len(examples) >= 6
    parser = build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])
