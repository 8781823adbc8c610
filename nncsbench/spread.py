#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 nncsbench/spread.py --workload serve_mix --runs 10

Runs seeds 1..runs with tracing off for BENCHMARK.json's run_seconds.
For every metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median -- the steadiness figure BENCHMARK.json's bounds
are checked against.  Run it from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]

    values = {}
    units = {}
    for seed in range(1, args.runs + 1):
        cmd = ["bash", "nncsbench/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output: {lines[-1]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"\n{'metric':40s} {'median':>14s} {'IQR/median':>11s}  unit")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = vs[0]
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} {med:14.6g} {spread:11.4f}  {units[name]}")


if __name__ == "__main__":
    main()
