#!/usr/bin/env python3
"""Measure every workload and append the numbers to the trajectory.

    python3 perfbench/record.py --label <name>

Run from the repository root.  For each workload this makes ten end-to-end
runs of run.py, with seeds 1 to 10, and two traced runs with seed 1.  It prints every metric with its unit: for the end-to-end
metrics the median over the runs and the spread (quartile distance over
median, next to the metric's bound); for the per-layer metrics the first
traced run, and whether the two traced runs gave the same counts and ratios.
Then it appends one record per workload to perfbench/trajectory.json, with
the Python version, nproc and git sha, for later changes to diff against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

TRAJECTORY = os.path.join(run.HERE, "trajectory.json")
SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(os.path.relpath(run.HERE), "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=200)
    sys.stderr.write(proc.stderr)
    if proc.returncode:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_sha():
    """HEAD, marked when src/ differs from it; "unknown" outside a git checkout."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], capture_output=True,
                               text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("+modified-src" if dirty else "")


def record_workload(workload, seeds, bench):
    seconds = bench["run_seconds"]
    runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
    traced = [run_once(workload, seeds[0], seconds, 1) for _ in range(2)]

    end_to_end = {}
    for spec in bench["end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        end_to_end[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                            "unit": unit, "values": values}
        print(f"{workload} {name} = {median} {unit} "
              f"(q1 {q1:.4g}, q3 {q3:.4g}, spread {spread:.3f}, bound {spec['bound']})")
    per_layer = traced[0]["metrics"]
    for name, metric in per_layer.items():
        print(f"{workload} {name} = {metric['value']} {metric['unit']}")
    repeat = (run.deterministic_metrics(traced[0]["metrics"], bench["per_layer"])
              == run.deterministic_metrics(traced[1]["metrics"], bench["per_layer"]))
    attempted = sum(r["attempted"] for r in runs + traced)
    failed = sum(r["failed"] for r in runs + traced)
    print(f"{workload} ops_failed_ratio = {failed / attempted} ratio ({failed} of {attempted})")
    print(f"{workload} traced counts repeat: {repeat}", flush=True)
    return {
        "workload": workload,
        "seeds": seeds,
        "run_seconds": seconds,
        "ops_failed_ratio": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "traced_counts_repeat": repeat,
    }


def main():
    parser = argparse.ArgumentParser(description="record every workload into the trajectory")
    parser.add_argument("--label", required=True, help="what was measured, e.g. the change's title")
    args = parser.parse_args()
    with open(run.BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    context = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    records = [dict(context, **record_workload(w, SEEDS, bench)) for w in run.WORKLOADS]
    trajectory = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(trajectory + records, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
