"""Seeded benchmark of tokenpath. Run from the root of a checkout:

    python3 perfbench/run.py --workload short-forms --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One workload runs per process, so peak_rss_mb belongs to that workload;
``--workload all`` starts a fresh process for each. ``--trace 0`` measures
the end-to-end metrics with no tracing; ``--trace 1`` is a separate traced
run that gives the per-layer metrics. Every metric of the mode is printed by
name and unit, unavailable ones marked so; the last line is one JSON object
with the metrics BENCHMARK.json gates. The program is imported from ``src/``
of the checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("short-forms", "long-pages", "cli-pipeline")


def import_program() -> None:
    # One BLAS thread: at these sizes a second one only spins (a long-pages
    # training run takes the same wall time with one or two threads and twice
    # the CPU with two), and a spinning thread would blur the CPU clock.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import tokenpath
    except ImportError as exc:
        sys.exit(f"cannot import tokenpath from {src}: {exc}")
    if not os.path.abspath(tokenpath.__file__).startswith(src + os.sep):
        sys.exit(f"tokenpath was imported from {tokenpath.__file__}, not from {src}")


def blas_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    # The thread count is a run-time setting of the loaded library.
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f
                if "blas" in line.lower() and line.rstrip().endswith(".so")}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas_info(),
    }


def measure(run_workload, trace: bool, work: str):
    """Run ``run_workload(ctx, work)`` once.

    Returns the metric values of the mode (end-to-end untraced, per-layer
    traced) at the reference CPU speed (see timing.py), the checks, the
    training losses and the meter.
    """
    import spans
    import timing
    import workloads

    meter = timing.Meter()
    ctx = workloads.Context(meter, workloads.Checks(),
                            spans.Tracer(meter.clock) if trace else None)
    try:
        if ctx.tracer is not None:
            spans.install(ctx.tracer)
        meter.tick()
        t0 = meter.clock()
        outcome = run_workload(ctx, work)
        t1 = meter.clock()
        meter.tick()
    finally:
        if ctx.tracer is not None:
            ctx.tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    if ctx.tracer is None:
        values = outcome.values(meter)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        values, problems = spans.per_layer(ctx.tracer, meter, (t0, t1))
        for problem in problems:
            ctx.checks.record(False, problem)
    return values, ctx.checks, outcome.losses, meter


def losses_digest(losses: dict) -> str:
    return hashlib.sha256(json.dumps(losses, sort_keys=True).encode()).hexdigest()[:16]


def run_one(args) -> int:
    import_program()
    import catalogue
    import workloads

    print(f"# tokenpath benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine: " + json.dumps(machine_info(), sort_keys=True))
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    values, checks, losses, meter = measure(
        lambda ctx, work: workloads.run(ctx, args.workload, args.seed, args.seconds, work),
        bool(args.trace), work)
    # Equal in the traced and the untraced run of one seed: tracing must not
    # change what the program computes.
    print(f"# training losses digest: {losses_digest(losses)}")
    print(f"# reference ticks: {len(meter.ticks)}, median "
          f"{statistics.median(s for _, s in meter.ticks) * 1e3:.3f} ms" if meter.ticks else
          "# reference ticks: 0")
    rows = catalogue.PER_LAYER if args.trace else catalogue.END_TO_END
    gated = catalogue.GATED_PER_LAYER if args.trace else list(catalogue.GATED_END_TO_END)
    units = {row[0]: row[1] for row in rows}
    for name, unit, _ in rows:
        shown = f"{values[name]:.6g}" if name in values else "n/a (not measured by this workload)"
        print(f"{name:<42} {shown:>14} {unit}")
    for problem in checks.problems:
        print(f"# FAILED: {problem}")
    missing = [name for name in gated if name not in values]
    if missing:
        print(f"# missing gated metrics: {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.failed == 0 and not missing,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in gated if n in values},
    }))
    return 1 if missing else 0


def run_all(args) -> int:
    """Each workload in a fresh process; a summary line keyed workload/metric."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget; library workloads add extraction passes up to it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
