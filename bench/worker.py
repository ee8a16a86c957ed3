"""One benchmark process: import jetgeo, set up one workload, time its operations.

Started by run.py with PYTHONPATH pointing at the checkout's src/. Prints
"READY" once set-up (import, input generation, one warm-up operation) is
done, then one line "OP <json>" per operation (its index in the round, its
time, the time of the reference kernel run just before it, and its check
data) and one line "RESULT <json>" at the end. Modes:

- setup: after READY, time the reference kernel SETUP_REFS times, print the
         timings as the RESULT and stop (set-up time samples).
- run:   the same reference timings after READY, then replay rounds until
         --seconds of operation time and MIN_OPS operations are reached.
         At --pauses evenly spaced points of the operation time, between
         rounds, print "PAUSE" and wait for a line on stdin, so that run.py
         can take a set-up sample meanwhile.
- trace: set-up, the layer probe and TRACE_ROUNDS rounds, each call made
         once plain and once with every public jetgeo function wrapped by
         the tracer.

Program outputs are reduced to small check data after each operation,
outside the timed region, and printed at once: the sympy and scipy oracles
run in run.py, so this process never imports them and holds nothing per
operation, and its peak RSS is jetgeo's own.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import checks
import workloads as W

#: operations a measured run completes at least, so op_tail_ms (p90) has ten beyond it
MIN_OPS = 100
#: rounds of a trace-mode run
TRACE_ROUNDS = 2
#: where a trace-mode run writes its spans
TRACE_DIR = Path(__file__).resolve().parent / "out"
#: reference kernel timings taken right after READY, for the set-up sample
SETUP_REFS = 5


def _reference_tree(depth: int, i: int = 0) -> tuple:
    if depth == 0:
        return ("x", i % 3)
    kind = "+*-s"[(depth + i) % 4]
    if kind == "s":
        return ("s", _reference_tree(depth - 1, i + 1))
    return (kind, _reference_tree(depth - 1, 2 * i), _reference_tree(depth - 1, 2 * i + 1))


_REFERENCE_TREE = _reference_tree(10)


def _reference_eval(t: tuple, env: tuple) -> float:
    kind = t[0]
    if kind == "x":
        return env[t[1]]
    if kind == "s":
        return math.sin(_reference_eval(t[1], env))
    a, b = _reference_eval(t[1], env), _reference_eval(t[2], env)
    return a + b if kind == "+" else a * b if kind == "*" else a - b


def reference_kernel() -> float:
    """Fixed pure-Python work that shares no code with jetgeo: a float loop and
    a recursive walk of a tuple tree, the two kinds of work jetgeo's calls do.
    Its time, taken next to every operation, measures how fast the machine
    runs at that moment (see run.py, speed_scaled)."""
    s = 0.0
    for i in range(10000):
        s += (i * 0.5) ** 0.5
    for j in range(20):
        s += _reference_eval(_REFERENCE_TREE, (0.1 * j, 0.2, 0.3))
    return s


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def _modules():
    import jetgeo
    from jetgeo import cli, expr, geometry, levelset, models, variational

    return jetgeo, {"expr": expr, "geometry": geometry, "models": models,
                    "variational": variational, "levelset": levelset, "cli": cli}


class Derive:
    def __init__(self, jg, seed):
        self.jg, self.ops = jg, W.derive_ops(seed)

    def setup(self):
        pass

    def run(self, i):
        op, jg = self.ops[i], self.jg
        system = jg["cli"].parse_system_file(op["text"])
        report = jg["geometry"].analyze(system)
        golden = None
        if op["kind"] in W.GOLDEN_STATE_BOX:
            _, gold = jg["models"].builtin_model(op["kind"], **op["params"])
            box = jg["models"].golden_domain(system, W.GOLDEN_STATE_BOX[op["kind"]])
            golden = jg["models"].golden_compare(system, gold, box)
        return report, golden

    def extract(self, i, result):
        op, (report, golden) = self.ops[i], result
        values = checks.evaluate_report(
            report, op["states"], op["params"], op["points"], self.jg["expr"].to_string
        )
        verdicts = {rec.name: bool(rec.passed) for rec in report.records()}
        if golden is not None:
            verdicts["golden_compare"] = bool(golden.passed)
        return {
            "index": i,
            "values": {key: val.tolist() for key, val in values.items()},
            "verdicts": verdicts,
        }

    @staticmethod
    def reports(result):
        return [result[0]]


class Flow:
    def __init__(self, jg, seed):
        self.jg, self.ops = jg, W.flow_ops(seed)

    def setup(self):
        builtin = self.jg["models"].builtin_model
        self.systems = [builtin(op["model"], **op["params"])[0] for op in self.ops]

    def run(self, i):
        op, var = self.ops[i], self.jg["variational"]
        traj = var.integrate_flow(self.systems[i], op["x0"], op["t_end"], op["dt"])
        return traj, var.geodesic_check(self.systems[i], traj)

    def extract(self, i, result):
        traj, record = result
        return {
            "index": i,
            "end": traj.samples[-1].tolist(),
            "start": traj.samples[0].tolist(),
            "rows": int(traj.samples.shape[0]),
            "geodesic_passed": bool(record.passed),
            "geodesic_deviation": float(record.max_deviation),
        }

    @staticmethod
    def reports(result):
        return []


class Contour:
    def __init__(self, jg, seed, dense):
        self.jg = jg
        self.ops = W.dense_ops(seed) if dense else W.contour_ops(seed)
        self.stats = {}

    def setup(self):
        systems = {}
        for op in self.ops:
            if op["model"] in systems:
                continue
            if op["model"] == "trig":
                systems["trig"] = self.jg["cli"].parse_system_file(op["text"])
            else:
                systems[op["model"]] = self.jg["models"].builtin_model(op["model"], **op["params"])[0]
        self.systems = systems

    def run(self, i):
        op = self.ops[i]
        box = tuple(tuple(b) for b in op["box"])
        return self.jg["levelset"].extract_contours(
            self.systems[op["model"]], tuple(op["axes"]), op["fixed"], box, op["level"], op["grid"]
        )

    def extract(self, i, result):
        op = self.ops[i]
        if i not in self.stats:
            self.stats[i] = checks.contour_stats(op)
        return {"index": i, "errors": checks.check_contour(result.polylines, op, self.stats[i])}

    @staticmethod
    def reports(result):
        return []


def make_workload(name, jg, seed):
    if name == "derive":
        return Derive(jg, seed)
    if name == "flow":
        return Flow(jg, seed)
    if name in ("contour", "contour-dense"):
        return Contour(jg, seed, dense=name == "contour-dense")
    raise ValueError(f"unknown workload {name!r}")


def probe(jg):
    """Call every traced layer once on small fixed inputs (trace mode only)."""
    text = W.system_text(("P", "Q"), {"r": 1.0, "a": 1.0, "h": 1.0, "k": 1.0}, W.CANCER_EQS)
    system = jg["cli"].parse_system_file(text)
    report = jg["geometry"].analyze(system, samples=4)
    _, golden = jg["models"].builtin_model("cancer")
    jg["models"].golden_compare(system, golden, jg["models"].golden_domain(system, (0.1, 5.0)), samples=4)
    traj = jg["variational"].integrate_flow(system, (1.0, 1.0), 0.05, 1e-3)
    jg["variational"].geodesic_check(system, traj)
    jg["levelset"].extract_contours(system, ("P", "Q"), {}, ((0.0, 3.0), (0.0, 3.0)), 1.0, 16)
    return report


def tree_nodes(expr_type, e, memo) -> int:
    """Node count of the expression tree (shared subtrees counted each time)."""
    key = id(e)
    if key not in memo:
        count = 1
        for f in dataclasses.fields(e):
            child = getattr(e, f.name)
            if isinstance(child, expr_type):
                count += tree_nodes(expr_type, child, memo)
        memo[key] = count
    return memo[key]


def report_nodes(expr_type, report) -> int:
    memo = {}
    mats = [report.jacobian, report.connection, *report.torsion, report.electromagnetic]
    total = sum(tree_nodes(expr_type, e, memo) for m in mats for e in m.entries)
    return total + tree_nodes(expr_type, report.yang_mills_energy, memo)


def _execute(fn, tracer, label):
    """fn() and its wall time; with a tracer, inside a span with wrappers bound."""
    clock = time.perf_counter
    if tracer is None:
        t0 = clock()
        result = fn()
        return result, clock() - t0
    tracer.install()
    try:
        t0 = clock()
        with tracer.span(label):
            result = fn()
        return result, clock() - t0
    finally:
        tracer.uninstall()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--pauses", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    package, modules = _modules()
    expected = os.environ.get("BENCH_SRC")
    if expected and not os.path.abspath(package.__file__).startswith(os.path.abspath(expected)):
        print(f"jetgeo imported from {package.__file__}, not from {expected}", file=sys.stderr)
        return 2
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer(modules, [package, *modules.values()])
    expr_type = modules["expr"].Expr
    nodes = 0

    workload = make_workload(args.workload, modules, args.seed)

    def setup():
        workload.setup()
        workload.run(0)

    _execute(setup, tracer, "bench.setup")
    print("READY", flush=True)
    if args.mode != "trace":
        refs = [reference_time() for _ in range(SETUP_REFS)]
        if args.mode == "setup":
            sys.stdout.write("RESULT " + json.dumps({"ref_s": refs}) + "\n")
            return 0

    # trace mode runs every call twice, plain and traced, alternating which
    # goes first, so the difference measures the tracing cost alone
    variants = [None] if tracer is None else [None, tracer]
    plain_s = traced_s = 0.0
    if tracer is not None:
        for t in variants:
            report, dt = _execute(lambda: probe(modules), t, "bench.probe")
            if t is None:
                plain_s += dt
            else:
                traced_s += dt
                nodes += report_nodes(expr_type, report)

    round_s, failures, failed = [], [], 0
    attempted = r = pauses = 0
    while True:
        round_total = 0.0
        for idx in range(len(workload.ops)):
            for t in variants if idx % 2 == 0 else variants[::-1]:
                attempted += 1
                ref_s = reference_time() if args.mode == "run" else None
                try:
                    result, dt = _execute(lambda: workload.run(idx), t, "bench.op")
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed += 1
                    if len(failures) < 10:
                        failures.append(f"round {r}, op {idx}: {type(exc).__name__}: {exc}")
                    continue
                if t is None:
                    round_total += dt
                    plain_s += dt
                else:
                    traced_s += dt
                    nodes += sum(report_nodes(expr_type, rep) for rep in workload.reports(result))
                line = {"key": idx, "s": dt, "ref_s": ref_s, "extract": workload.extract(idx, result)}
                del result
                sys.stdout.write("OP " + json.dumps(line) + "\n")
        round_s.append(round_total)
        r += 1
        while pauses < args.pauses and sum(round_s) >= (pauses + 1) * args.seconds / (args.pauses + 1):
            sys.stdout.write("PAUSE\n")
            sys.stdout.flush()
            sys.stdin.readline()
            pauses += 1
        if tracer is not None:
            if r >= TRACE_ROUNDS:
                break
        elif sum(round_s) >= args.seconds and attempted >= MIN_OPS:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {
        "round_s": round_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_kb": peak_rss_kb,
    }
    if args.mode == "run":
        out["ref_s"] = refs
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["counters"] = dict(tracer.counters)
        out["counters"]["geometry.derived_nodes"] = nodes
        out["plain_s"], out["traced_s"] = plain_s, traced_s
        trace_file = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file, {"workload": args.workload, "seed": args.seed})
        out["trace_file"] = str(trace_file)
    sys.stdout.write("RESULT " + json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
