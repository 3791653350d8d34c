#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics against their bounds.

Usage, from the root of a source checkout:

    python3 bench/spread.py

Runs `bench/run.py --trace 0` once per workload and seed 1 to 10 and
prints each run's metrics.  Then it prints for each end-to-end metric the
median of the runs and the spread, the distance between the first and
third quartiles as a share of the median.  A spread
above a third of the metric's bound is marked, since a comparison of two
commits cannot resolve changes smaller than the spread; `setup_s` is
exempt, its bound only limits how far its median may drift.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results: dict[str, list[dict]] = {}
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                failed += 1
                continue
            result = json.loads(lines[-1])
            failed += not result["correct"]
            results.setdefault(workload, []).append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(f"{'workload':<10} {'metric':<12} {'median':>10} {'spread':>8} {'bound':>6}")
    for workload, runs in results.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            # setup_s is exempt: its bound limits drift between medians only
            steady = spread < metric["bound"] / 3 or metric["name"] == "setup_s"
            mark = "" if steady else "  above a third of the bound"
            print(f"{workload:<10} {metric['name']:<12} {median:10.4g} {spread:8.4f} "
                  f"{metric['bound']:6.3f}{mark}")
    print(f"failed runs: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
