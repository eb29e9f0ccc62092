"""Run the benchmark on two checkouts in alternated pairs and compare them.

Usage:
    python3 tools/pairs.py --base DIR --change DIR --workload W --pairs N --seconds S
                           [--first-seed K]

Pair i runs ``bench/run.py --workload W --seed K+i --seconds S --trace 0``
in each tree, as a fresh process: the base first on even i, the change
first on odd i. Both paths must resolve to paths of the same length, since
the checkout path's length moves the heap layout and so the peak RSS.

Each pair prints one line with both sides' end-to-end metrics. Then, for
each end-to-end metric of the base's ``BENCHMARK.json``, it prints the two
medians, the base's quartiles, each side's maximum, the change's wins out
of N (a tie counts for neither side), the range of the per-pair ratios
change / base, and one verdict:

- ``gain``: there are at least ten pairs, the change won at least nine
  tenths of them, and its median is better than the base's by more than
  the base's interquartile range;
- ``worse``: the change's median is worse than the base's by more than
  the metric's bound, as a fraction of the base's median;
- ``unresolved``: the ratios spread (max - min) wider than the gap between
  the medians, |change / base - 1|;
- ``flat`` otherwise.

Exit status: 0 when every run succeeded; 1 when a run failed, reported a
failed operation, or printed fingerprints that differ between the two
sides at one seed; 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if args.first_seed < 0:
        parser.error("--first-seed must be >= 0")
    base, change = (os.path.realpath(p) for p in (args.base, args.change))
    if len(base) != len(change):
        parser.error(f"--base and --change must resolve to paths of one length, "
                     f"got {base} ({len(base)}) and {change} ({len(change)})")
    for tree in (base, change):
        if not (Path(tree) / "bench" / "run.py").is_file():
            parser.error(f"{tree} holds no bench/run.py")
    return args


def run(tree: Path, args, seed: int) -> tuple[dict, dict]:
    """(info line, result line) of one bench run in ``tree``; raises RuntimeError
    when the run exits non-zero or prints no result."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode or len(lines) < 2 or "bench" not in lines[-2]:
        raise RuntimeError(f"{tree}: bench/run.py at seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return lines[-2]["bench"], lines[-1]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """The comparison of one metric's per-pair values, as the module docstring defines it."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    ratios = [c / b for b, c in zip(base, change)]
    base_median, change_median = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    gap = abs(change_median / base_median - 1.0)
    won = len(base) >= 10 and wins >= 0.9 * len(base)
    if won and sign * (base_median - change_median) > q3 - q1:
        word = "gain"
    elif sign * (change_median - base_median) > bound * base_median:
        word = "worse"
    elif max(ratios) - min(ratios) > gap:
        word = "unresolved"
    else:
        word = "flat"
    return {"base_median": base_median, "change_median": change_median, "base_q1": q1,
            "base_q3": q3, "base_max": max(base), "change_max": max(change), "wins": wins,
            "ratio_min": min(ratios), "ratio_max": max(ratios), "gap": gap, "verdict": word}


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["base"] / "BENCHMARK.json").read_text())["end_to_end"]
    values = {side: {m["name"]: [] for m in spec} for side in trees}
    faults = []
    print(f"{args.workload}: {args.pairs} pairs at --seconds {args.seconds}, seeds "
          f"{args.first_seed}-{args.first_seed + args.pairs - 1}; base {trees['base']}, "
          f"change {trees['change']}")
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        runs = {}
        for side in order:
            try:
                runs[side] = run(trees[side], args, seed)
            except RuntimeError as exc:
                print(f"FAILED RUN {exc}", file=sys.stderr)
                return 1
        cells = []
        for side in ("base", "change"):
            result = runs[side][1]
            if result["failed"]:
                faults.append(f"seed {seed}: {side} failed {result['failed']} of "
                              f"{result['attempted']} operations")
            metrics = result["metrics"]
            for m in spec:
                values[side][m["name"]].append(metrics[m["name"]]["value"])
            cells.append(side + " " + " ".join(f"{m['name']} {metrics[m['name']]['value']:.6g}"
                                               for m in spec))
        if runs["base"][0]["fingerprints"] != runs["change"][0]["fingerprints"]:
            faults.append(f"seed {seed}: fingerprints differ: base "
                          f"{runs['base'][0]['fingerprints']}, change "
                          f"{runs['change'][0]['fingerprints']}")
        print(f"pair {i} seed {seed} ({order[0]} first): " + " | ".join(cells))
    print(f"{'metric':<12} {'base median':>12} {'base q1-q3':>23} {'change median':>14} "
          f"{'base max':>10} {'change max':>10} {'wins':>6} {'ratios':>17} {'gap':>8}  verdict")
    for m in spec:
        v = verdict(values["base"][m["name"]], values["change"][m["name"]], m["better"],
                    m["bound"])
        print(f"{m['name']:<12} {v['base_median']:>12.6g} {v['base_q1']:>11.6g}-"
              f"{v['base_q3']:<11.6g} {v['change_median']:>14.6g} "
              f"{v['base_max']:>10.6g} {v['change_max']:>10.6g} "
              f"{v['wins']:>3}/{args.pairs:<2} {v['ratio_min']:>8.4f}-{v['ratio_max']:<8.4f} "
              f"{v['gap']:>8.4f}  {v['verdict']}")
    for fault in faults:
        print(f"FAULT {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
