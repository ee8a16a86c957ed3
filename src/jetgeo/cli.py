"""Command-line front end: system-file parsing, dispatch, report and CSV output.

Subcommands, each taking only the options its handler reads
    analyze   derived objects + identity verdicts for a system
    verify    golden regression (built-in models) and invariant suite
    trace     fixed-step integration, CSV export
    geodesic  fixed-step integration, verdict on the variational property
    classify  classification of {EYM = level} for a quadratic energy
    contour   EYM contours on a 2-d slice (level 0: planar zero-energy curve)

Systems come from --model cancer|hiv1 or from --file in the line format

    # comment
    vars: P Q
    params: r=0.5 a=0.3
    params: h=1 k=0.1
    eq P: P - P*(P + Q) + h*P*Q/(1 + k*P^2)
    eq Q: -r*Q + a*P*(P + Q) - h*P*Q/(1 + k*P^2)

Outputs are deterministic for fixed inputs and seed; the exit status is
nonzero exactly when a report contains a FAIL or an input is rejected.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .expr import DEFAULT_SAMPLES, ParseError, parse_expression, to_string
from .geometry import GeometryReport, OdeSystem, analyze, derive
from .levelset import classify_level_set, extract_contours
from .models import MODEL_NAMES, builtin_model, golden_compare, golden_domain
from .variational import Trajectory, geodesic_check, integrate_flow

__all__ = ["parse_system_file", "run_command", "main"]


class SystemFileError(ValueError):
    """Raised for malformed system description files."""


def parse_system_file(text: str) -> OdeSystem:
    """Parse the line-oriented system format into an OdeSystem."""
    state_names: list[str] | None = None
    params: dict[str, float] = {}
    equations: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars:"):
            if state_names is not None:
                raise SystemFileError(f"line {lineno}: duplicate 'vars:' line")
            names = line[len("vars:") :].split()
            if not names:
                raise SystemFileError(f"line {lineno}: 'vars:' declares no variables")
            seen = set()
            for name in names:
                if name in seen:
                    raise SystemFileError(f"line {lineno}: duplicate variable '{name}'")
                seen.add(name)
            state_names = names
            continue
        if line.startswith("params:"):
            for item in line[len("params:") :].split():
                name, sep, value = item.partition("=")
                if not sep or not name:
                    raise SystemFileError(
                        f"line {lineno}: malformed parameter '{item}' (expected name=value)"
                    )
                if name in params:
                    raise SystemFileError(f"line {lineno}: duplicate parameter '{name}'")
                try:
                    params[name] = float(value)
                except ValueError:
                    raise SystemFileError(
                        f"line {lineno}: malformed parameter value '{value}' for '{name}'"
                    ) from None
            continue
        if line.startswith("eq "):
            head, sep, body = line[3:].partition(":")
            name = head.strip()
            if not sep or not name:
                raise SystemFileError(f"line {lineno}: malformed 'eq' line")
            if name in equations:
                raise SystemFileError(f"line {lineno}: duplicate equation for '{name}'")
            equations[name] = body.strip()
            continue
        raise SystemFileError(f"line {lineno}: unrecognized line '{line}'")

    if state_names is None:
        raise SystemFileError("missing 'vars:' line")
    stray = set(equations) - set(state_names)
    if stray:
        raise SystemFileError(f"equation for undeclared variable: {sorted(stray)}")
    missing = [name for name in state_names if name not in equations]
    if missing:
        raise SystemFileError(f"missing equation for: {missing}")
    known = state_names + list(params)
    components = []
    for name in state_names:
        try:
            components.append(parse_expression(equations[name], known))
        except ParseError as exc:
            raise SystemFileError(f"equation for '{name}': {exc}") from exc
    return OdeSystem(tuple(state_names), tuple(components), params)


# ---------------------------------------------------------------------------
# shared option handling


def _add_system_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", choices=MODEL_NAMES, help="built-in model")
    group.add_argument("--file", help="system description file")


def _load_system(args: argparse.Namespace):
    if args.model:
        system, golden = builtin_model(args.model)
        return system, golden, args.model
    with open(args.file, "r", encoding="utf-8") as fh:
        return parse_system_file(fh.read()), None, args.file


#: why the generalized Cartan connection and its curvature are not computed
_VANISHING_NOTE = "vanishes identically for the Euclidean pair (unit temporal metric, delta_ij)"


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _print_report(system: OdeSystem, label: str, report: GeometryReport) -> None:
    states = ", ".join(system.state_names)
    print(f"system: {label} (n={system.n}; states {states})")
    if system.params:
        print("params: " + " ".join(f"{k}={_fmt(v)}" for k, v in system.params.items()))
    print()
    print("jacobian:")
    print(_indent(str(report.jacobian)))
    print("nonlinear connection:")
    print(_indent(str(report.connection)))
    print(f"cartan connection: all components zero ({_VANISHING_NOTE})")
    for name, slice_k in zip(system.state_names, report.torsion):
        print(f"torsion slice d/d{name}:")
        print(_indent(str(slice_k)))
    print(f"curvature: all components zero ({_VANISHING_NOTE})")
    print("electromagnetic form:")
    print(_indent(str(report.electromagnetic)))
    print(f"yang-mills energy: {to_string(report.yang_mills_energy)}")
    print()
    for record in report.records():
        print(record.status_line())


def _indent(block: str) -> str:
    return "\n".join("  " + line for line in block.splitlines())


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args: argparse.Namespace) -> int:
    system, _, label = _load_system(args)
    report = analyze(system, seed=args.seed)
    _print_report(system, label, report)
    return 0 if report.passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    system, golden, label = _load_system(args)
    records = []
    if golden is not None:
        state_box = (0.1, 5.0) if args.model == "cancer" else (0.1, 10.0)
        comparison = golden_compare(
            system, golden, golden_domain(system, state_box), samples=args.samples,
            seed=args.seed,
        )
        records.extend(comparison.records)
    report = analyze(system, samples=args.samples, seed=args.seed)
    records.extend(report.records())
    print(f"verify: {label}")
    for record in records:
        print(record.status_line())
    failed = sum(not r.passed for r in records)
    print(f"{len(records) - failed}/{len(records)} checks passed")
    return 0 if failed == 0 else 1


def _write_output(body: str, out: str | None, what: str, size: str) -> None:
    """Write `body` to the file `out` and print a summary line, or else write
    `body` to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(body)
        print(f"{what} -> {out} ({size})")
    else:
        sys.stdout.write(body)


def _integrate(args: argparse.Namespace) -> tuple[OdeSystem, str, Trajectory]:
    system, _, label = _load_system(args)
    return system, label, integrate_flow(system, [float(v) for v in args.x0.split(",")], args.t, args.dt)


def _cmd_trace(args: argparse.Namespace) -> int:
    system, label, traj = _integrate(args)
    _write_output(traj.to_csv(system.state_names), args.out, f"trace: {label}", f"{traj.samples.shape[0]} samples")
    return 0


def _cmd_geodesic(args: argparse.Namespace) -> int:
    system, _, traj = _integrate(args)
    record = geodesic_check(system, traj)
    print(record.status_line())
    return 0 if record.passed else 1


def _along(names: Sequence[str], direction: Sequence[float]) -> str:
    """A unit direction by its non-zero components; a state axis by its name."""
    parts = [(name, c) for name, c in zip(names, direction) if c != 0.0]
    if len(parts) == 1 and parts[0][1] == 1.0:
        return parts[0][0]
    return ", ".join(f"{name}={_fmt(c)}" for name, c in parts)


def _cmd_classify(args: argparse.Namespace) -> int:
    system, _, label = _load_system(args)
    result = classify_level_set(derive(system), args.level)
    names = system.state_names
    print(f"levelset classification of {label} at C={_fmt(args.level)}")
    print(f"  critical level C* = {_fmt(result.critical_level)}")
    print("  center " + ", ".join(f"{name}={_fmt(c)}" for name, c in zip(names, result.center)))
    for a, axis in zip(result.semi_axes, result.axes):
        print(f"  semi-axis {_fmt(a)} along {_along(names, axis)}")
    for direction in result.free:
        print(f"  free along {_along(names, direction)}")
    print(f"result: {result.kind}")
    return 0


def _cmd_contour(args: argparse.Namespace) -> int:
    system, _, label = _load_system(args)
    axes = tuple(args.axes.split(","))
    if len(axes) != 2:
        raise SystemFileError("--axes expects two comma-separated state names")
    fixed = {}
    if args.fixed:
        for item in args.fixed.split(","):
            name, sep, value = item.partition("=")
            if not sep:
                raise SystemFileError(f"malformed --fixed entry '{item}'")
            fixed[name] = float(value)
    box = _parse_box(args.box)
    result = extract_contours(system, axes, fixed, box, args.level, args.grid)
    lines = [f"polyline_id,{axes[0]},{axes[1]}"]
    for pid, polyline in enumerate(result.polylines):
        for u, v in polyline:
            lines.append(f"{pid},{u:.17g},{v:.17g}")
    body = "\n".join(lines) + "\n"
    what = f"contours of {label} at level {_fmt(args.level)}"
    _write_output(body, args.out, what, f"{len(result.polylines)} polylines")
    return 0


def _parse_box(text: str) -> tuple[tuple[float, float], tuple[float, float]]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SystemFileError("--box expects 'lo1:hi1,lo2:hi2'")
    out = []
    for part in parts:
        lo, sep, hi = part.partition(":")
        if not sep:
            raise SystemFileError(f"malformed --box interval '{part}'")
        out.append((float(lo), float(hi)))
    return out[0], out[1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetgeo",
        description="Geometric analysis of first-order ODE flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no prefix matching: a mistyped option is an error, never another option
    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        _add_system_options(p)
        p.set_defaults(func=func)
        return p

    # only the commands that sample take a seed
    p = command("analyze", _cmd_analyze, "derived objects and identity verdicts")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")

    p = command("verify", _cmd_verify, "golden regression and invariant suite")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="sample points per check")

    trace = command("trace", _cmd_trace, "integrate the flow and export CSV")
    geodesic = command("geodesic", _cmd_geodesic, "integrate the flow and check the Euler-Lagrange residual")
    for p in (trace, geodesic):
        p.add_argument("--x0", required=True, help="initial state, comma-separated")
        p.add_argument("--t", type=float, required=True, help="integration horizon")
        p.add_argument("--dt", type=float, default=1e-3, help="fixed step size")
    trace.add_argument("--out", help="trajectory CSV path (default: stdout)")

    p = command("classify", _cmd_classify, "classify {EYM = level} (N must be affine in the states)")
    p.add_argument("--level", type=float, required=True, help="energy level to classify")

    p = command("contour", _cmd_contour, "contours of EYM on a 2-d slice (level 0: zero-energy curve)")
    p.add_argument("--level", type=float, required=True, help="energy level; 0 traces N_12 = 0 (planar systems only)")
    p.add_argument("--axes", required=True, help="two states, e.g. P,Q")
    p.add_argument("--fixed", default=None, help="remaining states, e.g. V=1.0")
    p.add_argument("--box", default="0:5,0:5", help="sampling box lo1:hi1,lo2:hi2")
    p.add_argument("--grid", type=int, default=64, help="cells per side")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    return parser


def run_command(argv: Sequence[str]) -> int:
    """Dispatch one command; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SystemFileError, ParseError, ValueError, ArithmeticError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
