#!/usr/bin/env python3
"""Repeatability check: runs every workload N times, each time with another
seed, twice over (two "sets", as the driver does), and prints per workload and
end-to-end metric the median, the quartiles and the relative spread
(interquartile range / median) of each set, and how far the second set's
median is worse than the first's. Exits 1 if a spread or a drift exceeds the
metric's bound (setup_s is exempt from the spread check, as in the driver).

    python3 benchmark/repeat.py [-n 10] [--workload NAME ...] [--seconds S]

Run it from the repo root on an otherwise idle host.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(manifest, workload, seed, seconds, trace):
    command = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return result["metrics"], time.monotonic() - started


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--workload", action="append", help="only this workload (repeatable)")
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    seconds = args.seconds or manifest["run_seconds"]
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    bad = 0
    for workload in workloads:
        sets = []
        for which in range(2):
            seeds = range(args.first_seed + which * args.n, args.first_seed + (which + 1) * args.n)
            runs, walls = zip(*(run_once(manifest, workload, seed, seconds, 0) for seed in seeds))
            sets.append(runs)
            print(f"# {workload} set {which + 1}: seeds {seeds[0]}..{seeds[-1]}, "
                  f"{statistics.mean(walls):.1f} s per run", flush=True)
        print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
              f"{'spread2':>7} {'drift':>7} {'bound':>6}")
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (summarise([run[name]["value"] for run in runs]) for runs in sets)
            drift = (second[0] - first[0]) / first[0]
            if metric["better"] == "higher":
                drift = -drift
            spread = max(first[3], second[3])
            failed = drift > bound or (name != "setup_s" and spread > bound)
            bad += failed
            print(f"{name:<18} {first[0]:>12.4f} {first[1]:>12.4f} {first[2]:>12.4f} "
                  f"{first[3]:>7.3f} {second[3]:>7.3f} {drift:>+7.3f} {bound:>6.2f}"
                  f"{'  <-- over' if failed else ''}", flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
