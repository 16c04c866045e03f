#!/usr/bin/env python3
"""Steadiness check: runs one workload on several seeds and prints, for
each end-to-end metric, the median and the interquartile spread as a
share of the median, next to a third of the metric's bound.

    python3 perfbench/spread.py <workload> [--seeds 1,2,3] [--trace 0]

Run from the repository root; it calls the command in BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="11,12,13,14,15,16,17,18,19,20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", seed,
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout}\n{run.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect\n{run.stdout}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        if args.trace == "0":
            print(f"seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        if "bound" not in m:
            print(f"{m['name']:<34} median {med:<12.6g} spread {spread:.4f}")
            continue
        limit = m["bound"] / 3
        flag = "ok" if spread < limit or m["name"] == "setup_s" else "WIDE"
        print(f"{m['name']:<14} median {med:<12.6g} spread {spread:.4f}"
              f"  (bound/3 {limit:.4f}) {flag}")


if __name__ == "__main__":
    main()
