"""jetgeo benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload derive --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (setup_s, wall_s, op_p50_ms,
op_tail_ms, peak_rss_mb); --trace 1 prints the per-layer metrics of a traced
run. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The end-to-end timings are scaled to one
fixed machine speed by a reference kernel timed next to every operation
(see speed_scaled). Results and traces go to bench/out/.
See bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import checks
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKER = Path(__file__).resolve().parent / "worker.py"

#: set-ups per run: the measured worker's own, then one at each of SETUPS - 1
#: evenly spaced pauses of its operation time, so that their median spans the
#: run; setup_s is that median
SETUPS = 12
#: nominal time of worker.reference_kernel, seconds: timings are reported at
#: the machine speed at which the kernel takes this long (see speed_scaled)
REFERENCE_S = 0.003
#: reference timings, centred on an operation, whose median scales its time
REFERENCE_WINDOW = 5
#: percentile reported as op_tail_ms (runs complete at least 100 operations)
TAIL_PERCENTILE = 90
#: limit on all worker processes of one run, seconds
WORKER_TIMEOUT = 150.0
PINNING = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "expr.parse_expression.calls": "count",
    "expr.parse_expression.self_ms": "ms",
    "cli.parse_system_file.self_ms": "ms",
    "models.builtin_model.self_ms": "ms",
    "expr.differentiate.calls": "count",
    "expr.differentiate.self_ms": "ms",
    "expr.simplify.self_ms": "ms",
    "geometry.jacobian.calls": "count",
    "geometry.jacobian.self_ms": "ms",
    "geometry.torsion.self_ms": "ms",
    "geometry.yang_mills_energy.self_ms": "ms",
    "geometry.derived_nodes": "count",
    "expr.evaluate.calls": "count",
    "expr.evaluate.self_ms": "ms",
    "expr.sample_deviation.self_ms": "ms",
    "geometry.maxwell_check.self_ms": "ms",
    "geometry.antisymmetry_check.self_ms": "ms",
    "models.golden_compare.self_ms": "ms",
    "expr.compile_expr.calls": "count",
    "expr.compile_expr.self_ms": "ms",
    "variational.integrate_flow.self_ms": "ms",
    "variational.integrate_flow.steps_per_s": "1/s",
    "variational.geodesic_check.self_ms": "ms",
    "levelset.extract_contours.self_ms": "ms",
    "levelset.marching_squares.self_ms": "ms",
    "levelset.marching_squares.cells_per_s": "1/s",
    "levelset.marching_squares.active_cell_share": "ratio",
    "trace.overhead_s": "s",
}


class WorkerError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(PINNING)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["BENCH_SRC"] = str(SRC)
    return env


def run_worker(args: list[str], deadline: float, on_pause=None) -> tuple[float, dict | None]:
    """Start one worker; return (seconds until READY, parsed RESULT or None).

    The RESULT gains the worker's OP lines as the lists op_s, op_key and
    extracts. Each time the worker prints PAUSE, on_pause() runs before the
    worker is told to go on.

    A watchdog kills the worker at the deadline, so a hung worker cannot
    outlive the run; stderr goes to a file so a chatty worker cannot block.
    """
    cmd = [sys.executable, "-s", str(WORKER), *args]
    with tempfile.TemporaryFile("w+", dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.daemon = True
        watchdog.start()
        result, ops = None, []
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            for text in proc.stdout:
                if text.startswith("OP "):
                    ops.append(json.loads(text[len("OP "):]))
                elif text.startswith("RESULT "):
                    result = json.loads(text[len("RESULT "):])
                elif text == "PAUSE\n":
                    on_pause()
                    try:
                        proc.stdin.write("\n")
                        proc.stdin.flush()
                    except OSError:  # the worker has died; its exit code tells
                        break
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass
        if line.strip() != "READY" or proc.returncode != 0:
            err.seek(0)
            raise WorkerError(
                f"worker {' '.join(args)} failed (exit {proc.returncode}):\n{line}{err.read()}"
            )
    if result is not None:
        result["op_s"] = [op["s"] for op in ops]
        result["op_ref_s"] = [op["ref_s"] for op in ops]
        result["op_key"] = [op["key"] for op in ops]
        result["extracts"] = [op["extract"] for op in ops]
    return ready, result


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at least (100 - q)% of values lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def check_results(workload: str, seed: int, extracts: list[dict]) -> list[str]:
    """Compare every operation's output with the oracles; returns error messages."""
    errors = []
    if workload == "derive":
        ops = W.derive_ops(seed)
        oracles: dict[int, dict] = {}
        for ex in extracts:
            i = ex["index"]
            if i not in oracles:
                oracles[i] = checks.derive_oracle(ops[i]["text"], ops[i]["points"])
            errors.extend(f"derive op {i}: {m}"
                          for m in checks.check_derive(ex["values"], oracles[i], ex["verdicts"]))
    elif workload == "flow":
        ops = W.flow_ops(seed)
        refs: dict[int, np.ndarray] = {}
        for ex in extracts:
            i = ex["index"]
            if i not in refs:
                refs[i] = checks.flow_oracle(ops[i])
            errors.extend(f"flow op {i}: {m}" for m in checks.check_flow(ex, ops[i], refs[i]))
    else:
        for ex in extracts:
            errors.extend(f"contour op {ex['index']}: {m}" for m in ex["errors"])
    return errors


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinning": PINNING,
        "pythonhashseed": "0",
        "machine": platform.machine(),
    }


def speed_scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each time scaled by REFERENCE_S over the median of the REFERENCE_WINDOW
    reference-kernel timings nearest to it.

    The machine's speed swings by up to 2x over seconds and drifts over
    minutes, and all pure-Python work moves with it, the reference kernel
    too. Scaled times are what the operations take at one fixed machine
    speed, so runs made in slow and fast stretches compare.
    """
    half = REFERENCE_WINDOW // 2
    scaled = []
    for j, t in enumerate(times):
        lo = min(max(0, j - half), max(0, len(refs) - REFERENCE_WINDOW))
        scaled.append(t * REFERENCE_S / statistics.median(refs[lo:lo + REFERENCE_WINDOW]))
    return scaled


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    worker = ["--workload", workload, "--seed", str(seed)]
    setups, setups_raw = [], []

    def add_setup(ready, res):
        setups_raw.append(ready)
        setups.append(speed_scaled([ready], res["ref_s"])[0])

    def sample_setup():
        add_setup(*run_worker([*worker, "--mode", "setup"], deadline))

    ready, res = run_worker([*worker, "--mode", "run", "--seconds", str(seconds),
                             "--pauses", str(SETUPS - 1)], deadline, sample_setup)
    add_setup(ready, res)
    raw_ms = [t * 1e3 for t in res["op_s"]]
    ops_ms = speed_scaled(raw_ms, res["op_ref_s"])
    rounds = len(res["round_s"])
    per_op: dict[int, list[float]] = {}
    for key, t in zip(res["op_key"], ops_ms):
        per_op.setdefault(key, []).append(t)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(ops_ms) / 1e3 / rounds,
        "op_p50_ms": statistics.median(statistics.fmean(v) for v in per_op.values()),
        "op_tail_ms": percentile(ops_ms, TAIL_PERCENTILE),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(setups_raw),
        "wall_s": statistics.fmean(res["round_s"]),
        "op_tail_ms": percentile(raw_ms, TAIL_PERCENTILE),
        "reference_ms": statistics.median(res["op_ref_s"]) * 1e3,
    }
    detail = {"setup_samples_s": setups, "raw_setup_samples_s": setups_raw, "op_ms": ops_ms,
              "raw_op_ms": raw_ms, "reference_ms": [r * 1e3 for r in res["op_ref_s"]],
              "round_s": res["round_s"], "rounds": rounds, "unscaled": raw}
    return metrics, res, detail


def per_layer(workload: str, seed: int, deadline: float):
    worker = ["--workload", workload, "--seed", str(seed), "--mode", "trace"]
    _, res = run_worker(worker, deadline)
    layers, counters = res["layers"], res["counters"]

    def layer(label, key):
        return layers.get(label, {}).get(key, 0.0)

    metrics = {}
    for name in PER_LAYER:
        label, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = layer(label, "calls")
        elif field == "self_ms":
            metrics[name] = layer(label, "self_s") * 1e3
    steps = counters.get("variational.integrate_flow.steps", 0)
    flow_s = layer("variational.integrate_flow", "self_s")
    cells = counters.get("levelset.marching_squares.cells", 0)
    active = counters.get("levelset.marching_squares.active_cells", 0)
    ms_s = layer("levelset.marching_squares", "self_s")
    metrics["geometry.derived_nodes"] = counters.get("geometry.derived_nodes", 0)
    metrics["variational.integrate_flow.steps_per_s"] = steps / flow_s if flow_s else 0.0
    metrics["levelset.marching_squares.cells_per_s"] = cells / ms_s if ms_s else 0.0
    metrics["levelset.marching_squares.active_cell_share"] = active / cells if cells else 0.0
    metrics["trace.overhead_s"] = res["traced_s"] - res["plain_s"]
    detail = {"trace_file": str(Path(res["trace_file"]).relative_to(ROOT)), "counters": counters,
              "plain_s": res["plain_s"], "traced_s": res["traced_s"], "layers": layers}
    return metrics, res, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so run_worker stops the worker it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "jetgeo" / "__init__.py").is_file():
        print(f"error: jetgeo sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + WORKER_TIMEOUT

    try:
        if args.trace:
            metrics, res, detail = per_layer(args.workload, args.seed, deadline)
            units = PER_LAYER
        else:
            metrics, res, detail = end_to_end(args.workload, args.seed, args.seconds, deadline)
            units = END_TO_END
        extracts, failed, attempted = res["extracts"], res["failed"], res["attempted"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    errors = check_results(args.workload, args.seed, extracts)
    check_s = time.perf_counter() - t0
    failures = res["failures"]

    for msg in failures + errors[:20]:
        print(f"  ! {msg}", file=sys.stderr)
    print(f"jetgeo bench: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:16.6f} {unit}")
    for name, value in detail.get("unscaled", {}).items():
        print(f"  unscaled {name:39s} {value:16.6f}")
    print(f"  operations attempted {attempted}, failed {failed}; "
          f"checks {'passed' if not errors else 'FAILED'} ({check_s:.1f} s)")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "check_errors": errors[:50],
        "detail": detail,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
