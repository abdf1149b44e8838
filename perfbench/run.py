"""Benchmark for dyncompress: time to certificate on four workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`,
and the process pins itself to one CPU.  Set-up (import, data integrity
check, one small call into each layer) is repeated and its median reported
as `setup_s`.  The workload's tasks then run round robin, each at least
once, until `--seconds` have passed; `cpu_s` is the sum over tasks of each
task's median CPU time, at the reference speed (see `timed`).  Every output
is checked exactly outside the timed region.  With `--trace 1` a traced
set-up probe and one traced pass follow, and the per-layer metrics are
printed instead.

The last line of stdout is the result JSON; the line before it records the
seed, the environment and the per-task medians and sample counts.  Spans of
a traced run go to `.perfbench-out/` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import mpmath

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MODULES = ("polynomials", "families", "compression", "lattice", "geometry",
           "dynamics", "sweep", "tables")
SETUP_REPEATS = 11
# CPU seconds of `calibrate()` at the reference speed.  On a 2-core VM with
# CPython 3.11.7 its median was 11.7 ms (5th-95th percentile 10.0-17.2 ms).
CAL_REF_S = 0.012


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop that never calls the package."""
    t0 = time.process_time()
    acc = 0
    for i in range(1, 8000):
        acc += math.comb(200, i % 150) // (i + 7)
        acc ^= i * i
    return time.process_time() - t0


def timed(fn):
    """Call fn; return its result and its CPU seconds at the reference speed.

    On a shared host the CPU's speed drifts by tens of percent within
    seconds, for the program and the calibration loop alike.  Dividing by
    the loop's time just before and just after the call (over CAL_REF_S)
    keeps most of that drift out of the figure.
    """
    before = calibrate()
    t0 = time.process_time()
    result = fn()
    cpu = time.process_time() - t0
    return result, cpu * 2 * CAL_REF_S / (before + calibrate())


def import_package() -> SimpleNamespace:
    """Import dyncompress afresh, dropping any copy imported before."""
    for name in [n for n in sys.modules if n.split(".")[0] == "dyncompress"]:
        del sys.modules[name]
    return SimpleNamespace(
        **{n: importlib.import_module(f"dyncompress.{n}") for n in MODULES}
    )


def probe(m) -> None:
    """One small call into each layer, paid by every workload before timing."""
    m.tables.check_data_integrity()
    m.lattice.harvest(m.lattice.lll_reduce(m.lattice.build_lattice(3, 4)))
    m.geometry.minkowski_check(16, 2, k=2)
    r = m.families.compressing_poly_binomial(4)
    m.compression.best_window(r, 12)
    m.dynamics.common_preper_bound(r, 10, 9)
    q = m.tables.table1_poly(2)
    m.dynamics.common_preper_depth_search(q, q + 1, 0, 1)
    m.tables.verify_tables(("T1",))


def set_up() -> tuple[SimpleNamespace, float]:
    """Import and probe SETUP_REPEATS times; median CPU seconds at reference speed."""
    def once():
        mods = import_package()
        probe(mods)
        return mods

    times = []
    for _ in range(SETUP_REPEATS):
        mods, t = timed(once)
        times.append(t)
    return mods, statistics.median(times)


def measure(tasks, seconds: float, tracer=None):
    """Run tasks round robin, each at least once, until `seconds` have passed.

    Returns per-task CPU seconds at the reference speed, tasks attempted
    and tasks failed (raised or gave a wrong output).
    """
    samples = {t.name: [] for t in tasks}
    attempted = failed = 0
    start = time.perf_counter()
    while attempted < len(tasks) or time.perf_counter() - start < seconds:
        task = tasks[attempted % len(tasks)]
        attempted += 1
        gc.collect()
        try:
            with tracer.task(task.name) if tracer else contextlib.nullcontext():
                out, t = timed(task.run)
            samples[task.name].append(t)
            ok = task.check(out)
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
    return samples, attempted, failed


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    if not (SRC / "dyncompress" / "__init__.py").is_file():
        print(f"no dyncompress sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        mods, setup_s = set_up()
        tasks = WORKLOADS[args.workload](mods, args.seed, args.tiny, scratch)
        samples, attempted, failed = measure(tasks, args.seconds)
        medians = {name: statistics.median(v) for name, v in samples.items() if v}
        cpu_s = sum(medians.values())
        if args.trace:
            tracer = spans.Tracer(mods)
            with tracer.installed():
                with tracer.task("setup"):
                    probe(mods)
                traced, n, f = measure(tasks, 0, tracer)
            attempted, failed = attempted + n, failed + f
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_s"] = sum(sum(v) for v in traced.values()) - cpu_s
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            section = "per_layer"
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {"cpu_s": cpu_s, "setup_s": setup_s, "peak_rss_mb": peak_kib * 1024 / 1e6}
            section = "end_to_end"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "task_median_s": medians,
        "task_samples": {name: len(v) for name, v in samples.items()},
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in spec[section]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
