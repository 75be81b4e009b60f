#!/usr/bin/env python3
"""Smoke check of the benchmark itself, on tiny ladders (about a minute).

    python3 perfbench/smoke.py

From the repository root it checks that:
- every workload, with --trace 0 and with --trace 1, prints every metric that
  BENCHMARK.json names, with its unit, and fails no operation;
- two traced runs give identical counts and ratios;
- every fibration plan a seed can draw verifies, with the expected summand
  count, and `fibration plan` at the twists found agrees with the search;
- a deliberately wrong expected digest raises ops_failed_ratio above 0;
- run.py exits non-zero without a result where src/tiltcheck is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run


def _run(args, cwd=None):
    """run.py's command line, from the repository root or from `cwd` laid out like it."""
    command = [sys.executable, os.path.join(os.path.relpath(run.HERE), "run.py"), *args]
    return subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=cwd)


def check_metrics(bench):
    for workload in run.WORKLOADS:
        traced = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny"]
            proc = _run(args)
            assert proc.returncode == 0, f"{args}: exit {proc.returncode}\n{proc.stderr}"
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                f"{args}: {proc.stderr}"
            assert sorted(result["metrics"]) == sorted(m["name"] for m in bench[section])
            for spec in bench[section]:
                got = result["metrics"][spec["name"]]
                assert got["unit"] == spec["unit"], (spec["name"], got)
                assert f"{spec['name']} = {got['value']} {spec['unit']}" in lines, spec["name"]
            assert any(line.startswith("ops_failed_ratio = 0.0 ratio") for line in lines)
            if trace:
                traced.append(run.deterministic_metrics(result["metrics"], bench[section]))
        assert traced[0] == traced[1], f"{workload}: traced counts differ between runs"
        print(f"ok {workload}: every metric printed with its unit; traced counts repeat")


def check_plan_space():
    """A seeded plan that legitimately failed would count as a program failure."""
    sys.path.insert(0, run.SRC)
    space = run.plan_space()
    ops = []
    for i, (shape, degrees) in enumerate(space):
        path = os.path.join(run.WORK_DIR, f"plan-space-{i}.json")
        ops.append(run.fibration_op(path, run.write_plan(path, shape, degrees)))
    tally = run.Tally()
    run.run_pass(ops, run.InProcess(), tally)
    assert tally.failed == 0 and tally.attempted == 2 * len(space), (tally.failed, tally.attempted)
    print(f"ok plan space: all {len(space)} plans a seed can draw verify")


def check_wrong_digest():
    with open(run.DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    key = "verify kapranov --d 2 --n 4"
    assert key in digests
    wrong = dict(digests, **{key: "0" * 20})
    tally = run.Tally()
    print("expect one FAILED line:", flush=True)
    run.end_to_end(run.build_ladder("grass", 7, "tiny", wrong), 0, wrong, tally)
    assert tally.failed == 1 and tally.failed / tally.attempted > 0, (tally.failed, tally.attempted)
    print(f"ok wrong digest: ops_failed_ratio = {tally.failed / tally.attempted}")


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the run must fail without printing a result."""
    bare = os.path.join(run.WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.BENCHMARK, bare)
    proc = _run(["--workload", "grass", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok bare directory: exit {proc.returncode}, no result")


def main():
    with open(run.BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(run.WORK_DIR, exist_ok=True)
    check_plan_space()
    check_metrics(bench)
    check_wrong_digest()
    check_bare_directory()
    print("smoke check passed")


if __name__ == "__main__":
    main()
