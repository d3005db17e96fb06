#!/usr/bin/env python3
"""Measure the benchmark's baseline and write perfbench/baseline.json.

Run from the repository root:

    python3 perfbench/baseline.py

Each workload runs once per seed with tracing off (seeds 1..10 by default,
for the run_seconds of BENCHMARK.json), then once traced.  For every
end-to-end metric the file holds the ten values, their median and
quartiles, and the spread: the distance between the quartiles as a share
of the median.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE
from workloads import WORKLOADS


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          cwd=HERE.parent)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed\n"
                         f"{proc.stderr}")
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    baseline = {"machine": {"cpus": len(os.sched_getaffinity(0)),
                            "python": platform.python_version(),
                            "platform": platform.platform()},
                "seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        values = {}
        attempted = failed = 0
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4)
                                   for k, v in values.items()},
                  f"failed_frac={result['failed']}/{result['attempted']}",
                  flush=True)
        traced = run_once(workload, seeds[0], seconds, 1)
        baseline["workloads"][workload] = {
            "end_to_end": {k: summarize(v) for k, v in values.items()},
            "checks": {"attempted": attempted, "failed": failed},
            "per_layer": {k: m["value"]
                          for k, m in traced["metrics"].items()},
        }
        for name, summary in baseline["workloads"][workload][
                "end_to_end"].items():
            print(f"{workload} {name}: median {summary['median']:.4g} "
                  f"spread {summary['spread']:.4f}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
