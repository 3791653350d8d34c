#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark, for a claimed gain.

Usage:

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --seed 301 --seconds 25

PARENT and CHANGE are two source checkouts whose paths have the same
length: `peak_rss_mb` moves with the length of the checkout's path, so
paths of different lengths are refused.  Pair i runs

    python3 bench/run.py --workload W --seed SEED+i --seconds S --trace 0

in each checkout, the parent first in even pairs and the change first in
odd ones.  With `--workload all` (the default) W is each workload of
BENCHMARK.json in turn, and its two sides run back to back, so that a
burst of load on the host falls on both sides of a pair rather than on
one.  Each run's last line is the benchmark's JSON result.  At the end it
prints, per workload and end-to-end metric:
  - each side's median and quartiles;
  - the change's median against the parent's, as a share of it;
  - the pairs the change won, ties counting for neither side;
  - whether the medians lie further apart than the parent's quartiles do.

ROADMAP.md claims a gain only when the change wins at least 9 in 10
pairs and the gap exceeds the parent's IQR.  A median worse than the
parent's by more than the metric's bound in BENCHMARK.json is marked.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `checkout`: its JSON result."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Quartiles that lie within the values, as bench/run.py takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workload", default="all")
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        parser.error(f"checkout paths differ in length: {sides['parent']}, {sides['change']}")
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])

    # per side, one result a pair: its failed runs and its metrics, named
    # "workload.metric" as `bench/run.py --workload all` names them
    results: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(args.pairs):
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        pair = {side: {"failed": 0, "metrics": {}} for side in sides}
        for workload in workloads:
            prefix = f"{workload}." if len(workloads) > 1 else ""
            for side in order:
                result = run(sides[side], workload, args.seed + i, args.seconds)
                pair[side]["failed"] += result["failed"]
                pair[side]["metrics"].update(
                    {prefix + key: value for key, value in result["metrics"].items()})
                print(f"pair {i + 1} {workload} {side}: correct {result['correct']}, "
                      f"{result['failed']} of {result['attempted']} failed", flush=True)
        for side in sides:
            results[side].append(pair[side])

    failed = {side: sum(r["failed"] for r in runs) for side, runs in results.items()}
    print(f"failed runs: parent {failed['parent']}, change {failed['change']}")
    print(f"{'metric':<22} {'parent median (q1-q3)':>28} {'change median (q1-q3)':>28}"
          f" {'change':>8} {'won':>6}  gap > parent IQR")
    for key in results["parent"][0]["metrics"]:
        metric = metrics[key.rpartition(".")[2]]
        lower = metric["better"] == "lower"
        parent = [r["metrics"][key]["value"] for r in results["parent"]]
        change = [r["metrics"][key]["value"] for r in results["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        rel = cm / pm - 1 if pm else 0.0
        worse = rel > metric["bound"] if lower else -rel > metric["bound"]
        print(f"{key:<22} {pm:12.5g} ({p1:.5g}-{p3:.5g}) {cm:12.5g} ({c1:.5g}-{c3:.5g})"
              f" {rel:+8.1%} {won:>2}/{len(parent):<3}  {abs(cm - pm) > p3 - p1}"
              + ("  worse than its bound" if worse else ""))
    return 0 if not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
