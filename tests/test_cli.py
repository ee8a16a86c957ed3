import pytest

from jetgeo.cli import SystemFileError, parse_system_file, run_command
from jetgeo.models import cancer_model, golden_compare, golden_domain

CANCER_FILE = """\
# proliferating/quiescent tumor growth flow
vars: P Q
params: r=1 a=1
params: h=1 k=1
eq P: P - P*(P + Q) + h*P*Q/(1 + k*P^2)
eq Q: -r*Q + a*P*(P + Q) - h*P*Q/(1 + k*P^2)
"""


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
    status = run_command(
        ["levelset", "--model", "hiv1", "--C", "0.125", "--k", "1", "--n", "1", "--delta", "1"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "Line T=0.5, V=0" in out
    assert "Delta_C = 0" in out


def test_levelset_classification_cylinder_and_empty(capsys):
    run_command(["levelset", "--C", "0.25"])
    out = capsys.readouterr().out
    assert "EllipticCylinder" in out and "a=0.5" in out and "b=0.707106781187" in out
    run_command(["levelset", "--C", "0.05"])
    out = capsys.readouterr().out
    assert "EmptySet" in out


def test_levelset_zero_curve_csv(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    status = run_command(
        ["levelset", "--zero-curve", "--a", "1", "--h", "1", "--k", "1", "--out", str(out_path)]
    )
    assert status == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "P,Q"
    assert len(lines) == 201


def test_levelset_contours_csv(tmp_path):
    out_path = tmp_path / "contours.csv"
    status = run_command(
        [
            "levelset", "--model", "cancer", "--level", "0.25",
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


def test_levelset_requires_a_mode(capsys):
    status = run_command(["levelset", "--model", "hiv1"])
    assert status == 2
    assert "error:" in capsys.readouterr().err


def test_levelset_rejects_seed_option(capsys):
    # no levelset mode samples, so a seed would be silently ignored
    with pytest.raises(SystemExit) as exc:
        run_command(["levelset", "--C", "0.125", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_trace_rejects_seed_option(capsys):
    # integration draws no random numbers, so a seed would be silently ignored
    with pytest.raises(SystemExit) as exc:
        run_command(["trace", "--model", "cancer", "--x0", "1,1", "--t", "1", "--dt", "0.01", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_trace_writes_csv_and_checks_geodesic(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    status = run_command(
        [
            "trace", "--model", "cancer", "--x0", "1,1", "--t", "5",
            "--dt", "0.001", "--check-geodesic", "--out", str(out_path),
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "PASS geodesic_residual" in out
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,P,Q"
    assert len(lines) == 5002


def test_trace_stdout_mode(capsys):
    status = run_command(["trace", "--model", "cancer", "--x0", "1,1", "--t", "0.01", "--dt", "0.005"])
    out = capsys.readouterr().out
    assert status == 0
    assert out.startswith("t,P,Q\n")


def test_trace_coarse_step_fails_geodesic_with_nonzero_exit(capsys):
    status = run_command(
        ["trace", "--model", "cancer", "--x0", "1,1", "--t", "5", "--dt", "0.5",
         "--check-geodesic", "--out", "/dev/null"]
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
    args = ["levelset", "--file", str(path), "--level", "1", "--axes", "x,y", "--box", "0:2,0:2", "--grid", "8"]
    assert run_command(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: energy is non-finite at 9 grid nodes and cell centres, first at x=1, y=0\n"
    )


def test_levelset_rerun_is_byte_identical(capsys):
    args = ["levelset", "--model", "hiv1", "--C", "0.25"]
    run_command(args)
    first = capsys.readouterr().out
    run_command(args)
    assert capsys.readouterr().out == first
