"""Command-line front end: system-file parsing, dispatch, report and CSV output.

Subcommands
    analyze   derived objects + identity verdicts for a system
    verify    golden regression (built-in models) and invariant suite
    trace     fixed-step integration, CSV export, optional geodesic check
    levelset  closed-form classification, zero-energy curve, or contours

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

from .expr import ParseError, parse_expression, to_string
from .geometry import GeometryReport, OdeSystem, analyze
from .levelset import (
    EllipticCylinder,
    EmptySet,
    Line,
    cancer_zero_curve,
    classify_hiv_level_set,
    extract_contours,
    hiv_invariants,
)
from .models import builtin_model, golden_compare, golden_domain
from .variational import geodesic_check, integrate_flow

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
    group.add_argument("--model", choices=("cancer", "hiv1"), help="built-in model")
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


def _cmd_trace(args: argparse.Namespace) -> int:
    system, _, label = _load_system(args)
    x0 = [float(v) for v in args.x0.split(",")]
    traj = integrate_flow(system, x0, args.t, args.dt)
    csv = traj.to_csv(system.state_names)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
        print(f"trace: {label} -> {args.out} ({traj.samples.shape[0]} samples)")
    else:
        sys.stdout.write(csv)
    if args.check_geodesic:
        record = geodesic_check(system, traj)
        print(record.status_line())
        return 0 if record.passed else 1
    return 0


def _cmd_levelset(args: argparse.Namespace) -> int:
    if args.zero_curve:
        return _levelset_zero_curve(args)
    if args.C is not None:
        return _levelset_classify(args)
    if args.level is not None:
        return _levelset_contours(args)
    raise SystemFileError("levelset needs one of --C, --zero-curve, or --level")


def _levelset_classify(args: argparse.Namespace) -> int:
    inv = hiv_invariants(args.k, args.n, args.delta, args.C)
    result = classify_hiv_level_set(args.k, args.n, args.delta, args.C)
    print(
        f"levelset classification (k={_fmt(args.k)}, n={_fmt(args.n)}, "
        f"delta={_fmt(args.delta)}, C={_fmt(args.C)})"
    )
    print(f"  critical level C* = {_fmt(inv.critical_level)}")
    print(f"  discriminant Delta_C = {_fmt(inv.discriminant)}")
    print(f"  minor invariant delta = {_fmt(inv.minor)}, trace invariant I = {_fmt(inv.trace)}")
    if isinstance(result, EmptySet):
        print("result: EmptySet")
    elif isinstance(result, Line):
        print(f"result: Line T={_fmt(result.point[0])}, V={_fmt(result.point[2])} (Tstar free)")
    elif isinstance(result, EllipticCylinder):
        print(
            f"result: EllipticCylinder center T={_fmt(result.center_T)}, "
            f"a={_fmt(result.semi_axis_a)}, b={_fmt(result.semi_axis_b)}, "
            f"axis {result.axis}"
        )
    return 0


def _levelset_zero_curve(args: argparse.Namespace) -> int:
    lo, hi, count = args.pmin, args.pmax, args.psamples
    if count < 1:
        raise SystemFileError("--psamples must be at least 1")
    step = (hi - lo) / max(count - 1, 1)
    p_values = [lo + i * step for i in range(count)]
    curve = cancer_zero_curve(args.a, args.h, args.k, p_values)
    lines = ["P,Q"] + [f"{p:.17g},{q:.17g}" for p, q in curve.samples]
    body = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
        print(f"zero-energy curve -> {args.out} ({len(curve.samples)} samples)")
    else:
        sys.stdout.write(body)
    if curve.poles:
        print("poles excluded at P = " + ", ".join(_fmt(p) for p in curve.poles))
    return 0


def _levelset_contours(args: argparse.Namespace) -> int:
    if not (args.model or args.file):
        raise SystemFileError("contour extraction needs --model or --file")
    if not args.axes:
        raise SystemFileError("contour extraction needs --axes")
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
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
        print(
            f"contours of {label} at level {_fmt(args.level)} -> {args.out} "
            f"({len(result.polylines)} polylines)"
        )
    else:
        sys.stdout.write(body)
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

    # only the commands that sample take a seed
    p_analyze = sub.add_parser("analyze", help="derived objects and identity verdicts")
    _add_system_options(p_analyze)
    p_analyze.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="golden regression and invariant suite")
    _add_system_options(p_verify)
    p_verify.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p_verify.add_argument("--samples", type=int, default=32, help="sample points per check")
    p_verify.set_defaults(func=_cmd_verify)

    p_trace = sub.add_parser("trace", help="integrate the flow and export CSV")
    _add_system_options(p_trace)
    p_trace.add_argument("--x0", required=True, help="initial state, comma-separated")
    p_trace.add_argument("--t", type=float, required=True, help="integration horizon")
    p_trace.add_argument("--dt", type=float, default=1e-3, help="fixed step size")
    p_trace.add_argument("--check-geodesic", action="store_true")
    p_trace.add_argument("--out", help="trajectory CSV path (default: stdout)")
    p_trace.set_defaults(func=_cmd_trace)

    p_level = sub.add_parser("levelset", help="classification, zero curve, or contours")
    group = p_level.add_mutually_exclusive_group(required=False)
    group.add_argument("--model", choices=("cancer", "hiv1"))
    group.add_argument("--file")
    p_level.add_argument("--C", type=float, help="energy level for closed-form classification")
    p_level.add_argument("--k", type=float, default=1.0)
    p_level.add_argument("--n", type=float, default=1.0)
    p_level.add_argument("--delta", type=float, default=1.0)
    p_level.add_argument("--zero-curve", action="store_true", help="sample the zero-energy curve")
    p_level.add_argument("--a", type=float, default=1.0)
    p_level.add_argument("--h", type=float, default=1.0)
    p_level.add_argument("--pmin", type=float, default=0.025)
    p_level.add_argument("--pmax", type=float, default=5.0)
    p_level.add_argument("--psamples", type=int, default=200)
    p_level.add_argument("--level", type=float, help="energy level for contour extraction")
    p_level.add_argument("--axes", default=None, help="two states, e.g. P,Q")
    p_level.add_argument("--fixed", default=None, help="remaining states, e.g. V=1.0")
    p_level.add_argument("--box", default="0:5,0:5", help="sampling box lo1:hi1,lo2:hi2")
    p_level.add_argument("--grid", type=int, default=64, help="cells per side")
    p_level.add_argument("--out", help="CSV output path (default: stdout)")
    p_level.set_defaults(func=_cmd_levelset)
    return parser


def run_command(argv: Sequence[str]) -> int:
    """Dispatch one command; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SystemFileError, ParseError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
