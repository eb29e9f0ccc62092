"""Run one arclab benchmark workload and print its metrics.

    python3 bench/run.py --workload {train,deploy,spectrum} --seed N --seconds S --trace {0,1}

arclab is imported from ``src/`` of the checkout this file sits in; the
run writes only under ``.bench_work/`` there and removes what it wrote.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with
nothing patched: the medians of the set-up and loop-cycle times, scaled
to a reference machine speed (see ``reference.py``). With ``--trace 1``
they are the per-layer metrics, in unscaled seconds: the
loop alternates untraced and traced cycles, and the traced ones patch
arclab's public functions (see ``spans.py``). The line before the result
records the environment, the workload's named metrics and its output
fingerprints.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "deploy", "spectrum")
# One BLAS thread: the matrices are small, and a single-client loop on a
# shared machine reads steadier without a thread pool.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fewest loop cycles in a run, whatever --seconds says, so that a traced
# run has both untraced and traced cycles.
MIN_CYCLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, run_dir: Path) -> tuple[dict, dict]:
    """Set up, run the loop, and return (result line, info line)."""
    import spans
    import workloads
    from reference import timed

    workload = workloads.WORKLOADS[args.workload](args.seed, run_dir)
    checks = workloads.Checks()
    tracer = spans.Tracer() if args.trace else None
    setup_book, loop_book = spans.Book(), spans.Book()

    def recorded(book, fn):
        """``fn`` run under the tracer, so the speed reference stays untraced."""
        def call():
            with tracer.recording(book):
                return fn()
        return call

    setups = []  # (seconds, speed factor)
    for _ in range(workload.setup_reps):
        gc.collect()
        setup = recorded(setup_book, workload.setup) if tracer else workload.setup
        _, elapsed, speed = timed(setup)
        setups.append((elapsed, speed))
    workload.prepare(checks)

    cycle = functools.partial(workload.cycle, checks)
    untraced, traced = [], []  # per cycle: (seconds per stage, speed factor)
    deadline = perf_counter() + args.seconds
    while len(untraced) + len(traced) < MIN_CYCLES or perf_counter() < deadline:
        # Every cycle starts from the same collector state, so every cycle
        # does the same work, collections included.
        gc.collect()
        if tracer and len(untraced) > len(traced):
            stages, _, speed = timed(recorded(loop_book, cycle))
            traced.append((stages, speed))
        else:
            stages, _, speed = timed(cycle)
            untraced.append((stages, speed))

    def cycle_s(cycles):
        return statistics.median(sum(stages.values()) * speed for stages, speed in cycles)

    setup_s = statistics.median(elapsed * speed for elapsed, speed in setups)
    info = environment(args)
    info["setup_times_s"] = [elapsed for elapsed, _ in setups]
    info["setup_speed_factors"] = [speed for _, speed in setups]
    info["cycle_times_s"] = [sum(stages.values()) for stages, _ in untraced]
    info["cycle_speed_factors"] = [speed for _, speed in untraced]
    info["traced_cycles"] = len(traced)
    info["checks"] = checks.tally
    named = {"setup_s": (setup_s, "s")}
    named.update(workload.named_metrics({
        stage: statistics.median(stages[stage] * speed for stages, speed in untraced)
        for stage in untraced[0][0]}))
    named["ops_failed_ratio"] = (checks.failed / checks.attempted, "ratio")
    info["named_metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in named.items()}
    info["fingerprints"] = workload.fingerprints()

    if tracer:
        metrics = spans.layer_metrics(setup_book, len(setups), loop_book, len(traced))
        metrics["accounting.census_mismatches"] = (checks.tally["census"][1], "count")
        metrics["trace.untraced_cycle_s"] = (cycle_s(untraced), "s")
        metrics["trace.traced_cycle_s"] = (cycle_s(traced), "s")
        metrics["trace.overhead_ratio"] = (cycle_s(traced) / cycle_s(untraced) - 1.0, "ratio")
        info["fingerprints"]["singular_values_sha256"] = tracer.singular_values_sha256()
        info["trace_targets_missing"] = tracer.missing
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "cycle_s": (cycle_s(untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "arclab" / "__init__.py").is_file():
        print(f"bench: no arclab sources under {src}; run inside a checkout of the repository",
              file=sys.stderr)
        return 2
    # Ending by SIGTERM still runs the clean-up below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in BLAS_VARIABLES:  # numpy reads these when it is first imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    work_root = ROOT / ".bench_work"
    run_dir = work_root / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        result, info = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"bench": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
