#!/usr/bin/env python3
"""Closed-loop benchmark of the tiltcheck command line.

One client runs a workload's ladder of real `python -m tiltcheck ...`
commands, one fresh process per operation (so the `lr_expand` cache starts
cold, as it does for a user), the next one only after the previous one has
finished, and checks every report.  With `--trace 1` the same ladder runs
in-process instead, with the layers wrapped from the outside (spans.py), to
give per-layer numbers; its end-to-end cost is reported as
`trace_overhead_ratio`.

End-to-end times are in reference seconds (see `Children`): each operation's
time is scaled by the machine's speed at that moment, measured with a fixed
pure-Python loop just before and just after it.  On a shared 2-vCPU machine
whose speed drifts by 20% over minutes, this took the quartile spread of
`wall_s` over runs from about 18% to about 5%.

Run from the repository root:

    python3 perfbench/run.py --workload grass --seed 1 --seconds 15 --trace 0

Every metric is printed as `name = value unit`; the last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.  Operation failures are explained on standard error.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
WORK_DIR = ".perfbench"  # seeded plan files and span dumps, inside the checkout
DIGESTS = os.path.join(HERE, "expected_digests.json")
BENCHMARK = "BENCHMARK.json"

WORKLOADS = ("grass", "tower", "descent")
SHIPPED_PLANS = tuple(f"src/tiltcheck/data/{name}_plan.json"
                      for name in ("flag_1_2_3", "hirzebruch", "sp4_borel_split"))
SETUP_COMMAND = ("partitions", "--rows", "1", "--cols", "1")
SETUP_RUNS = 7          # measured after one warm-up run; setup_s is their median
OP_TIMEOUT = 90.0       # seconds; a timed-out operation counts as failed
RUN_BUDGET = 165.0      # seconds from start after which nothing new is started
EXIT_CODES = {"pass": 0, "n/a": 0, "fail": 1}
REF_ITERATIONS = 1_000_000
REF_SECONDS = 0.1       # reference loop time that counts as speed 1

STARTED = time.monotonic()


def remaining() -> float:
    return RUN_BUDGET - (time.monotonic() - STARTED)


# ---------------------------------------------------------------------------
# operations and their checks

Check = Callable[[int, dict], Optional[str]]


@dataclass
class Op:
    """One CLI command of a ladder and the check its report must pass."""

    argv: tuple
    check: Check
    target: bool = False
    key: Optional[str] = None  # digest key of a fixed rung
    # builds a follow-up operation from this one's report (seeded fibration checks)
    then: Optional[Callable[[dict], "Op"]] = None


def report_digest(report: dict) -> str:
    """Digest of a report's result and verdict; engine_version is left out.

    CRC-32 and length rather than hashlib, whose OpenSSL library would add
    about 4 MB to this process, and so to every child's peak memory.
    """
    blob = json.dumps({"result": report["result"], "verdict": report["verdict"]},
                      sort_keys=True).encode()
    return f"{len(blob)}-{zlib.crc32(blob):08x}"


def digest_key(argv) -> str:
    return " ".join(argv)


def fixed(argv, digests, target=False, extra: Optional[Check] = None) -> Op:
    """A fixed rung, checked against its recorded digest."""
    key = digest_key(argv)

    def check(code, report):
        if code != EXIT_CODES[report["verdict"]]:
            return f"exit code {code} with verdict {report['verdict']}"
        if report_digest(report) != digests.get(key):
            return "report differs from the recorded digest"
        return extra(code, report) if extra else None
    return Op(tuple(argv), check, target, key)


def beilinson_control(n, digests) -> Op:
    """O(0..n+1) on P^n: length n+2, so Ext^n(O(n+1), O(0)) != 0 and verify must fail."""
    degrees = ",".join(str(d) for d in range(n + 2))

    def witness_in_degree_n(code, report):
        witness = report["result"]["higher_ext_witness"]
        if code != 1 or witness is None or int(witness[2]) != n:
            return f"expected exit 1 with a degree-{n} witness, got {code}, {witness}"
        return None
    return fixed(("verify", "beilinson", "--n", str(n), "--degrees", degrees), digests,
                 extra=witness_in_degree_n)


def euler_op(a, b, d, n, expected) -> Op:
    def check(code, report):
        value = report["result"]["euler_characteristic"]
        if code != 0 or value != str(expected):
            return f"euler {value} (exit {code}), alternating Ext sum is {expected}"
        return None
    return Op(("euler", "--a", ",".join(map(str, a)), "--b", ",".join(map(str, b)),
               "--d", str(d), "--n", str(n)), check)


def fibration_op(path, summands) -> Op:
    """`fibration search`, then `fibration plan` at the twists it found."""
    def check(code, report):
        result = report["result"]
        if code != 0 or report["verdict"] != "pass":
            return f"search did not verify (exit {code})"
        if int(result["summand_count"]) != summands:
            return f"{result['summand_count']} summands, expected {summands}"
        return None

    def then(search_report):
        def same_as_search(code, report):
            if code != 0 or report["result"] != search_report["result"]:
                return "fibration plan at the found twists differs from the search"
            return None
        twists = ",".join(search_report["result"]["twists"])
        return Op(("fibration", "plan", "--plan", path, "--twists", twists), same_as_search)
    return Op(("fibration", "search", "--plan", path), check, then=then)


# ---------------------------------------------------------------------------
# workloads

# Seeded fibration plans: (root dim, split rank, tautological stage).  The
# shapes are fixed so every seed costs about the same; the seed draws the split
# degrees, each from 0..PLAN_MAX_DEGREE[taut].
PLAN_SHAPES = ((1, 2, False), (2, 3, False), (1, 3, True))
PLAN_MAX_DEGREE = {False: 3, True: 2}


def write_plan(path, shape, degrees) -> int:
    """A split or tautological Grassmann-bundle plan over P^dim; returns its summand count."""
    dim, rank, taut = shape
    if taut:
        stages = [{"kind": "grass", "l": 2, "degrees": list(degrees)},
                  {"kind": "grass-taut", "l": 1}]
        summands = 3 * 2 * (dim + 1)  # C(3,2) * C(2,1) * (dim + 1) base degrees
    else:
        stages = [{"kind": "grass", "l": 1, "degrees": list(degrees)}]
        summands = rank * (dim + 1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"cap": 8, "root": {"kind": "pn", "dim": dim}, "stages": stages}, fh)
    return summands


def plan_space():
    """Every (shape, degrees) a seed can draw: 16 + 64 + 27 plans."""
    return [(shape, degrees) for shape in PLAN_SHAPES
            for degrees in itertools.product(range(PLAN_MAX_DEGREE[shape[2]] + 1),
                                             repeat=shape[1])]


def _seeded_plans(rng, count, tag):
    """Seeded plans, written under WORK_DIR: [(path, expected summand count)]."""
    os.makedirs(WORK_DIR, exist_ok=True)
    out = []
    for i in range(count):
        shape = PLAN_SHAPES[i % len(PLAN_SHAPES)]
        degrees = [rng.randint(0, PLAN_MAX_DEGREE[shape[2]]) for _ in range(shape[1])]
        path = os.path.join(WORK_DIR, f"plan-{tag}-{i}.json")
        out.append((path, write_plan(path, shape, degrees)))
    return out


# Run in a throwaway process, so that this one stays small: a child's peak
# memory starts from its parent's at fork, and would otherwise carry the
# cache that computing these sums builds up here.
EULER_SCRIPT = """
import json, random, sys
from tiltcheck.collections import schur_pair_ext
from tiltcheck.partitions import enumerate_box_partitions
seed, count, d, n = json.loads(sys.argv[1])
rng = random.Random(seed)
box = enumerate_box_partitions(d, n - d).members
pairs = []
for _ in range(count):
    a, b = rng.choice(box), rng.choice(box)
    chi = sum((-1) ** s * v for s, v in schur_pair_ext(d, n, a, b).items())
    pairs.append((a, b, chi))
print(json.dumps(pairs))
"""


def _euler_pairs(seed, count, d, n):
    """Random box pairs on Grass(d, n) with their alternating Ext sums (untimed)."""
    proc = subprocess.run([sys.executable, "-c", EULER_SCRIPT, json.dumps([seed, count, d, n])],
                          capture_output=True, text=True, env=child_env(), timeout=OP_TIMEOUT)
    if proc.returncode:
        raise RuntimeError(f"computing the euler expectations failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def build_ladder(workload, seed, size, digests):
    """The ladder of one workload; the seed draws fibration plans and euler pairs."""
    rng_seed = f"{workload}:{seed}"
    rng = random.Random(rng_seed)
    full = size == "full"
    if workload == "grass":
        rungs = ((3, 7), (3, 8), (4, 8), (4, 9)) if full else ((2, 4), (2, 5))
        ops = [fixed(("verify", "kapranov", "--d", str(d), "--n", str(n)), digests,
                     target=(d, n) == rungs[-1]) for d, n in rungs]
        ops.append(beilinson_control(3 if full else 2, digests))
    elif workload == "tower":
        flags = (("1,2,3,4", 5), ("2,4", 6), ("1,3,5", 6)) if full else (("1,2", 3),)
        ops = [fixed(("verify", "flag", "--steps", steps, "--n", str(n)), digests,
                     target=(steps, n) == flags[-1]) for steps, n in flags]
        ops += [fixed(("fibration", "search", "--plan", p), digests) for p in SHIPPED_PLANS]
        plans = _seeded_plans(rng, 3 if full else 1, f"{size}-{seed}")
        ops += [fibration_op(path, summands) for path, summands in plans]
    elif workload == "descent":
        gbs = ((6, 3, 3), (8, 2, 3), (8, 2, 4)) if full else ((4, 2, 2),)
        ops = [fixed(("descent", "gbs", "--degree", str(deg), "--period", str(per), "--d", str(d)),
                     digests, target=(deg, per, d) == gbs[-1]) for deg, per, d in gbs]
        ops.append(fixed(("selftest",) if full else ("selftest", "--criteria", "3"), digests))
        count, d, n = (6, 4, 8) if full else (1, 2, 4)
        ops += [euler_op(a, b, d, n, chi) for a, b, chi in _euler_pairs(rng_seed, count, d, n)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# ---------------------------------------------------------------------------
# running operations

def reference_seconds() -> float:
    """Time of a fixed pure-Python loop, which no change to tiltcheck can affect."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class Speedometer:
    """Converts an operation's measured seconds into reference seconds.

    The factor is REF_SECONDS over the mean of the reference loop's time just
    before and just after the operation.  On a shared machine whose speed
    drifts by 20% over minutes this keeps runs comparable.
    """

    def __init__(self):
        self.reference = reference_seconds()
        self.factors = []

    def factor(self) -> float:
        previous, self.reference = self.reference, reference_seconds()
        self.factors.append(REF_SECONDS / ((previous + self.reference) / 2))
        return self.factors[-1]


def child_env():
    """The environment of a tiltcheck process: the checkout's sources, one worker."""
    env = dict(os.environ, TILTCHECK_JOBS="1")  # the jobs=1 path every workload documents
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)  # the operation and whatever it started
    except ProcessLookupError:
        pass


class Children:
    """Runs each operation as a fresh `python -m tiltcheck` process.

    Returns its exit code, its output, and its wall and CPU time (of the child
    and whatever it waited for) in reference seconds.  `peak_kb` is the
    largest resident memory the kernel reported for any of these children
    when it reaped it.
    """

    def __init__(self):
        self.env = child_env()
        self.speed = Speedometer()
        self.peak_kb = 0
        os.makedirs(WORK_DIR, exist_ok=True)

    def __call__(self, command, timeout):
        # stdout goes to a file, so that the child can never block on a full pipe
        # while this process is waiting for it.
        with tempfile.TemporaryFile(dir=WORK_DIR) as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "tiltcheck", *command],
                                    stdout=out, stderr=subprocess.DEVNULL,
                                    env=self.env, start_new_session=True)
            killer = threading.Timer(timeout, _kill_group, (proc.pid,))
            killer.start()
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            killer.cancel()
            killer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read().decode()
        # killed by a signal: the timeout, or a crash
        code = proc.returncode if proc.returncode >= 0 else None
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        factor = self.speed.factor()
        return code, text, wall * factor, (usage.ru_utime + usage.ru_stime) * factor


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout()


class InProcess:
    """Runs each operation as `cli.run(argv)` in this process, cache cleared first.

    Times are in reference seconds, as for `Children`.
    """

    def __init__(self):
        from tiltcheck import cli, schur
        self.cli = cli
        self.lr_expand = schur.lr_expand  # the cached original, even while wrapped
        self.lr_hits = self.lr_misses = 0
        self.before_operation = None
        self.speed = Speedometer()
        os.environ["TILTCHECK_JOBS"] = "1"  # cli.run reads it; measure the jobs=1 path
        signal.signal(signal.SIGALRM, _alarm)

    def __call__(self, command, timeout):
        self.lr_expand.cache_clear()
        if self.before_operation:
            self.before_operation()
        out = io.StringIO()
        t0, cpu0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cli.run(command)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except _Timeout:
            code = None
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        info = self.lr_expand.cache_info()
        self.lr_hits += info.hits
        self.lr_misses += info.misses
        factor = self.speed.factor()
        return code, out.getvalue(), wall * factor, cpu * factor


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, op, reason):
        self.failed += 1
        sys.stderr.write(f"FAILED tiltcheck {' '.join(op.argv)}: {reason}\n")


def run_op(op, execute, tally):
    """Run and check one operation: (report, or None if it failed; seconds; CPU seconds)."""
    tally.attempted += 1
    timeout = min(OP_TIMEOUT, remaining())
    if timeout <= 1:
        tally.fail(op, "not started: run budget spent")
        return None, 0.0, 0.0
    code, out, seconds, cpu = execute(list(op.argv), timeout)
    if code is None:
        tally.fail(op, "timed out or crashed")
        return None, seconds, cpu
    try:
        report = json.loads(out)
        problem = op.check(code, report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problem = f"bad report ({exc!r}), exit {code}"
    if problem:
        tally.fail(op, problem)
        return None, seconds, cpu
    return report, seconds, cpu


def run_pass(ops, execute, tally):
    """One closed-loop pass over the ladder: (seconds, target rung seconds, CPU seconds)."""
    total = target = cpu_total = 0.0
    for op in ops:
        report, seconds, cpu = run_op(op, execute, tally)
        total += seconds
        cpu_total += cpu
        if op.target:
            target = seconds
        if op.then is not None:
            if report is None:
                tally.attempted += 1
                tally.fail(op, "follow-up check not run")
            else:
                _report, seconds, cpu = run_op(op.then(report), execute, tally)
                total += seconds
                cpu_total += cpu
    return total, target, cpu_total


# ---------------------------------------------------------------------------
# metrics

def end_to_end(ops, seconds, digests, tally):
    execute = Children()
    setup = fixed(SETUP_COMMAND, digests)
    setup_times = [run_op(setup, execute, tally)[1] for _ in range(SETUP_RUNS + 1)][1:]
    execute.peak_kb = 0  # the peak of the ladder's operations only
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, execute, tally))
        if time.perf_counter() - start >= seconds or remaining() < 1.5 * passes[-1][0]:
            break
    factors = execute.speed.factors
    print(f"speed factor = {statistics.median(factors)} median over "
          f"{len(factors)} operations; {len(passes)} passes")
    # A child's peak starts from this process's at fork; this shows that floor.
    print(f"benchmark process peak = {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024} MB")
    return {
        "wall_s": statistics.median(p[0] for p in passes),
        "largest_case_s": statistics.median(p[1] for p in passes),
        "cpu_s": statistics.median(p[2] for p in passes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": execute.peak_kb / 1024,
    }


def _ratio(part, whole):
    """part / whole, or 0 where the layer did no work on this workload."""
    return part / whole if whole else 0.0


class Alternating:
    """Runs each operation both untraced and traced, for `trace_overhead_ratio`.

    Taking the two times next to each other keeps the machine's drift out of
    their ratio, and which of the two goes first alternates from operation to
    operation, so that neither profits from the other having warmed up.  Only
    the traced run is returned, and checked.
    """

    def __init__(self, execute, tracer):
        self.execute = execute
        self.tracer = tracer
        self.ratios = []

    def _traced(self, command, timeout):
        self.tracer.install()
        try:
            return self.execute(command, timeout)
        finally:
            self.tracer.restore()

    def _plain(self, command, timeout):
        hits, misses = self.execute.lr_hits, self.execute.lr_misses
        seconds = self.execute(command, timeout)[2]
        self.execute.lr_hits, self.execute.lr_misses = hits, misses  # count the traced run only
        return seconds

    def __call__(self, command, timeout):
        if len(self.ratios) % 2:
            result = self._traced(command, timeout / 2)
            plain = self._plain(command, timeout / 2)
        else:
            plain = self._plain(command, timeout / 2)
            result = self._traced(command, timeout / 2)
        self.ratios.append(_ratio(result[2], plain))
        return result


def per_layer(ops, tally, span_path):
    import spans
    execute = InProcess()
    tracer = spans.SpanTracer()
    alternating = Alternating(execute, tracer)
    run_pass(ops, alternating, tally)
    hits, misses = execute.lr_hits, execute.lr_misses

    counters = spans.Counters()
    execute.before_operation = counters.begin_operation
    counters.install()
    try:
        run_pass(ops, execute, tally)
    finally:
        counters.restore()
        execute.before_operation = None

    values = {}
    for name, (calls, self_s) in tracer.summary().items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    calls, nonzero = counters.calls, counters.nonzero
    values.update({
        "schur.lr_expand.hit_ratio": _ratio(hits, hits + misses),
        "partitions.normalize.calls": calls["partitions.normalize"],
        "schur.as_weight.calls": calls["schur.as_weight"],
        "bwb.HomogeneousBundle.constructions": calls["bwb.HomogeneousBundle.__post_init__"],
        "bwb.flag_cohomology.nonzero_ratio":
            _ratio(nonzero["bwb.flag_cohomology"], calls["bwb.flag_cohomology"]),
        "collections.schur_pair_ext.unique_ratio":
            _ratio(counters.unique_pair_args, calls["collections.schur_pair_ext"]),
        "collections.tower_hom_degrees.nonzero_ratio":
            _ratio(nonzero["collections.tower_hom_degrees"], calls["collections.tower_hom_degrees"]),
        "collections.ext_table.pairs": counters.pairs,
        "collections.ext_table.nonzero_pair_ratio":
            _ratio(nonzero["collections.ext_table"], counters.pairs),
        # verified plans over twists tried, i.e. over candidate tables built by the search
        "fibration.twist_search.verified_ratio":
            _ratio(nonzero["fibration.twist_search"],
                   tracer.calls_under("fibration.candidate_ext_table", "fibration.twist_search")),
        "trace_overhead_ratio": statistics.median(alternating.ratios),
    })
    tracer.dump(span_path)
    return values


def deterministic_metrics(metrics, spec):
    """The counts and ratios of a traced run, which must repeat exactly between runs."""
    return {m["name"]: metrics[m["name"]]["value"] for m in spec
            if m["unit"] in ("count", "ratio") and m["name"] != "trace_overhead_ratio"}


def load_metric_units(section):
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny ladders for the benchmark's own smoke check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tiltcheck", "__init__.py")):
        sys.stderr.write("perfbench: run from a tiltcheck checkout (src/tiltcheck not found)\n")
        return 2
    sys.path.insert(0, SRC)
    units = load_metric_units("per_layer" if args.trace else "end_to_end")
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)

    ops = build_ladder(args.workload, args.seed, args.size, digests)
    tally = Tally()
    if args.trace:
        os.makedirs(WORK_DIR, exist_ok=True)
        span_path = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.size}-{args.seed}.json.gz")
        values = per_layer(ops, tally, span_path)
    else:
        values = end_to_end(ops, args.seconds, digests, tally)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"ops_failed_ratio = {tally.failed / max(tally.attempted, 1)} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
