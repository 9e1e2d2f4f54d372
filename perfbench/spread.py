#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

  python3 perfbench/spread.py --workload paper_window --seeds 1-10 [--seconds 20]

Runs the workload once per seed through run.py (untraced) and prints, per
metric, the median of the runs and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of that median, next
to the metric's bound from BENCHMARK.json. A spread below a third of the
bound is what a steady metric looks like on this benchmark.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
            file=sys.stderr, flush=True)

    print(f"{'metric':28} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < bounds.get(name, 0) / 3 else "  <- wide"
        print(f"{name:28} {med:14.4f} {spread:11.4f} {bounds.get(name, 0):6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
