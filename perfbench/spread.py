#!/usr/bin/env python3
"""Runs each workload repeatedly and prints how much every metric spreads.

    python3 perfbench/spread.py --runs 10 [--workloads amazon-tree,imagenet-dag]

Run i (from 1) uses seed i and BENCHMARK.json's run_seconds. Per workload
and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the interquartile range as a share of the
median, and (max-min)/median. Compare the IQR share with the metric's
`bound` in BENCHMARK.json: a steady metric stays well below it. Runs are
made one after another, never in parallel.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print(f"{'workload':16} {'metric':42} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(1, args.runs + 1):
            for name, value in run_once(workload, seed,
                                        bench["run_seconds"]).items():
                values.setdefault(name, []).append(value)
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med,) * 3
            print(f"{workload:16} {name:42} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {(q3 - q1) / med:8.4f} {(max(vs) - min(vs)) / med:8.4f}"
                  f" {bounds[name]:>6}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
