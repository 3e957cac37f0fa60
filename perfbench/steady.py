#!/usr/bin/env python3
"""Steadiness self-check for the benchmark described by BENCHMARK.json.

Runs every workload (or the ones named with --workload) N times back to
back, each time with another --seed, and prints for every metric the
median, the spread between the first and third quartile as a share of
the median (as `statistics.quantiles(values, n=4)` gives them), the
min/max, and the metric's bound. A spread below a third of the bound is
steady; `setup_s` is exempt from the spread rule.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload serve-mix
    python3 perfbench/steady.py --runs 3 --trace 1
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  warning: {workload} seed {seed} reported failures: {result}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    raw = {}
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            result = run_once(bench, workload, args.first_seed + i, args.trace)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<38} {'median':>14} {'iqr/med':>8} {'min':>14} {'max':>14} {'bound':>6}  verdict")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            if bound is None:
                verdict = ""
            elif m["name"] == "setup_s":
                verdict = "exempt"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
            shown = "-" if bound is None else f"{bound:.2f}"
            print(f"  {m['name']:<38} {med:>14.6g} {spread:>8.4f} {min(v):>14.6g} {max(v):>14.6g} {shown:>6}  {verdict}")
    print("raw: " + json.dumps(raw))


if __name__ == "__main__":
    main()
