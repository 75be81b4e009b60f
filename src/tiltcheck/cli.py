"""Command-line front door: parse, dispatch, emit deterministic JSON reports.

Every command prints one report object with sorted keys; numeric payloads are
serialized as decimal strings so downstream consumers never see truncated
integers.  A report's `result` holds the values of the result object its
command computes: a `VerificationReport`'s `REPORTED` values for `verify`, a
`DescentSummary`'s fields plus its `summand_count` and `total_rank` for
`descent`.  Exit codes: 0 pass (or informational), 1 failed verification,
2 invalid input, an engine error or a report that cannot be written (reported
on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

# Each command imports the engine modules it runs, so a process pays only for those;
# no engine module loads dataclasses or inspect (their values are partitions.FrozenValue).
from . import __version__, partitions
from .partitions import json_field, json_int


def _canonical(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [str(x) if type(x) is int else _canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    return obj


def emit(command: str, inputs: dict, result, verdict: str, pretty: bool) -> int:
    report = {
        "command": command,
        "engine_version": __version__,
        "inputs": _canonical(inputs),
        "result": _canonical(result),
        "verdict": verdict,
    }
    indent = 2 if pretty else None
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=indent) + "\n")
    return {"pass": 0, "n/a": 0, "fail": 1}[verdict]


def parse_ints(text: str | None, option: str) -> tuple[int, ...]:
    """The comma list of integers given to `option`; blank or absent text is the empty list."""
    text = (text or "").strip()
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"{option} must be a comma list of integers, got {text!r}") from None


def parse_space(text: str) -> bwb.FlagSpace:
    from . import bwb
    kind, _, rest = text.partition(":")
    # grass:d,n is Flag(d; n), one step before the last comma
    steps_text, _, n_text = rest.rpartition(";" if kind == "flag" else ",")
    try:
        steps, n = tuple(int(x) for x in steps_text.split(",")), int(n_text)
    except ValueError:
        kind = None  # malformed: refused with the usage text, as an unknown kind is
    if kind not in ("grass", "flag") or kind == "grass" and len(steps) > 1:
        raise ValueError(f"unknown space descriptor {text!r} (use grass:d,n or flag:l1,..;n)")
    return bwb.FlagSpace(n, steps)


def _cohomology_payload(res):
    if res is None:
        return {"zero": True}
    out = {"zero": False, "degree": res.degree, "dimension": res.dimension}
    if res.dominant_weight is not None:
        out["weight"] = list(res.dominant_weight)
    return out


def _plan_payload(plan: fibration.FibrationPlan) -> dict:
    higher = [{"source": i, "target": j, "degree": s, "dimension": v}
              for (i, j, s), v in plan.table.higher_entries()[:5]]
    return {
        "verified": plan.verified,
        "twists": [tw for _f, tw in plan.layers],
        "summand_count": plan.table.size,
        "total_dimension": plan.table.max_degree,
        "obstruction": plan.obstruction,
        "higher_ext_sample": higher,
    }


def _cmd_partitions(args, pretty):
    box = partitions.enumerate_box_partitions(args.rows, args.cols)
    result = {"count": len(box), "members": [list(p) for p in box]}
    return emit("partitions", {"rows": args.rows, "cols": args.cols}, result, "n/a", pretty)


def _cmd_lr(args, pretty):
    from .schur import lr_expand
    terms = lr_expand(parse_ints(args.a, "--a"), parse_ints(args.b, "--b"), args.rank)
    result = {"terms": [{"partition": list(p), "multiplicity": c}
                        for p, c in sorted(terms.items())]}
    return emit("lr", {"a": args.a, "b": args.b, "rank": args.rank}, result, "n/a", pretty)


def _cmd_schur_dim(args, pretty):
    from .schur import schur_dimension
    dim = schur_dimension(parse_ints(args.weight, "--weight"), args.n)
    return emit("schur-dim", {"weight": args.weight, "n": args.n},
                {"dimension": dim}, "n/a", pretty)


def _cmd_bott(args, pretty):
    from . import bwb
    space = parse_space(args.space)
    if args.blocks is not None:
        blocks = tuple(parse_ints(b, "--blocks") for b in args.blocks.split("|"))
        bundle = bwb.HomogeneousBundle(space, blocks)
    elif args.sub is not None:
        bundle = bwb.of_sub(space, parse_ints(args.sub, "--sub"))
    elif args.sub_dual is not None:
        bundle = bwb.of_sub_dual(space, parse_ints(args.sub_dual, "--sub-dual"))
    else:
        bundle = bwb.of_quot(space, parse_ints(args.quot, "--quot"))
    res = bwb.flag_cohomology(bundle)
    return emit("bott", {"space": args.space, "blocks": [list(b) for b in bundle.blocks]},
                _cohomology_payload(res), "n/a", pretty)


def _cmd_euler(args, pretty):
    from . import bwb
    a, b = parse_ints(args.a, "--a"), parse_ints(args.b, "--b")
    value = bwb.localization_euler(a, b, args.d, args.n)
    return emit("euler", {"a": args.a, "b": args.b, "d": args.d, "n": args.n},
                {"euler_characteristic": value}, "n/a", pretty)


def _cmd_verify(args, pretty):
    from . import bwb, collections as coll
    if args.what == "kapranov":
        spec = coll.kapranov_collection(args.d, args.n)
        inputs = {"collection": "kapranov", "d": args.d, "n": args.n}
    elif args.what == "flag":
        steps = parse_ints(args.steps, "--steps")
        spec = coll.flag_collection(bwb.FlagSpace(args.n, steps))
        inputs = {"collection": "flag", "steps": list(steps), "n": args.n}
    else:
        degrees = parse_ints(args.degrees, "--degrees") or None
        spec = coll.beilinson_collection(args.n, degrees)
        inputs = {"collection": "beilinson", "n": args.n,
                  "degrees": list(degrees) if degrees else list(range(args.n + 1))}
    report = coll.verify_tilting(spec)
    result = {name: getattr(report, name) for name in report.REPORTED}
    return emit("verify", inputs, result, "pass" if report.passed else "fail", pretty)


def _parse_algebra(args) -> descent.CSAClass:
    from . import descent
    indices = parse_ints(args.indices, "--indices") or None
    return descent.CSAClass(args.degree, args.period, indices)


def _cmd_descent(args, pretty):
    from . import descent
    if args.what == "bs":
        summary = descent.bs_tilting_summary(_parse_algebra(args), args.range_length)
        inputs = {"variety": "bs", "degree": args.degree, "period": args.period}
    elif args.what == "gbs":
        summary = descent.generalized_bs_summary(_parse_algebra(args), args.d)
        inputs = {"variety": "gbs", "degree": args.degree, "period": args.period, "d": args.d}
    else:
        with open(args.plan, encoding="utf-8") as fh:
            payload = json.load(fh)
        # every stage is read before any is summarized, so a bad file is refused up front
        stages = []
        for st in json_field(payload, "stages", "a tower plan", listed=True):
            alg = json_field(st, "algebra", "a tower stage")
            indices = json_field(alg, "indices", "a stage algebra", None, listed=True)
            algebra = descent.CSAClass(
                json_int(json_field(alg, "degree", "a stage algebra"), "algebra degree"),
                json_int(json_field(alg, "period", "a stage algebra"), "algebra period"),
                None if indices is None else tuple(json_int(x, "algebra index") for x in indices),
            )
            kind = json_field(st, "kind", "a tower stage")
            if kind == "bs":
                stages.append(partial(descent.bs_tilting_summary, algebra))
            elif kind == "gbs":
                params = json_field(st, "params", "a gbs stage")
                d = json_int(json_field(params, "d", "gbs params"), "gbs d")
                stages.append(partial(descent.generalized_bs_summary, algebra, d))
            else:
                raise ValueError(f"unknown tower stage kind {kind!r}")
        summary = descent.twisted_tower_summary([summarize() for summarize in stages])
        inputs = {"variety": "tower", "plan": args.plan, "stage_count": len(stages)}
    result = {**summary._asdict(), "summand_count": summary.summand_count,
              "total_rank": summary.total_rank}
    return emit("descent", inputs, result, "n/a", pretty)


def _cmd_fibration(args, pretty):
    from . import fibration
    with open(args.plan, encoding="utf-8") as fh:
        payload = json.load(fh)
    root, stages, cap = fibration.parse_plan(payload, os.path.dirname(args.plan))
    if args.what == "search":
        plan = fibration.tower_compose(stages, root, cap)
    else:
        twists = parse_ints(args.twists, "--twists") or (0,) * len(stages)
        if len(twists) != len(stages):
            raise ValueError("one twist per stage required")
        plan = fibration.FibrationPlan(root, zip(stages, twists))
    verdict = "pass" if plan.verified else "fail"
    return emit("fibration", {"mode": args.what, "plan": args.plan},
                _plan_payload(plan), verdict, pretty)


def _cmd_selftest(args, pretty):
    from . import acceptance
    results = acceptance.run_all(parse_ints(args.criteria, "--criteria"))
    ok = all(passed for _name, passed, _detail, _seconds in results)
    for name, passed, detail, seconds in results:
        sys.stderr.write(f"{'PASS' if passed else 'FAIL'} {name}: {detail} ({seconds:.3f} s)\n")
    payload = {"criteria": [{"name": n, "passed": p, "detail": d} for n, p, d, _s in results]}
    return emit("selftest", {"criteria": args.criteria or "all"}, payload,
                "pass" if ok else "fail", pretty)


def build_parser() -> argparse.ArgumentParser:
    # no parser takes an abbreviated option, as `--d` would read as beilinson's `--degrees`;
    # each kind of verify, descent and fibration declares only the options its command
    # reads, so any other is a usage error; parent parsers declare the options kinds share
    parser_class = partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = parser_class(prog="tiltcheck", description="exact tilting-bundle construction and checks")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON report")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    p = sub.add_parser("partitions", help="enumerate a partition box")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)

    p = sub.add_parser("lr", help="Littlewood-Richardson expansion")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--rank", type=int, required=True)

    p = sub.add_parser("schur-dim", help="irreducible GL_n dimension")
    p.add_argument("--weight", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("bott", help="cohomology of a homogeneous bundle")
    p.add_argument("--space", required=True)
    bundle = p.add_mutually_exclusive_group(required=True)
    bundle.add_argument("--sub")
    bundle.add_argument("--sub-dual")
    bundle.add_argument("--quot")
    bundle.add_argument("--blocks")

    p = sub.add_parser("euler", help="localization Euler characteristic")
    p.add_argument("--a", default="")
    p.add_argument("--b", default="")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    n, algebra, plan = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    n.add_argument("--n", type=int, required=True)
    algebra.add_argument("--degree", type=int, required=True)
    algebra.add_argument("--period", type=int, required=True)
    algebra.add_argument("--indices")
    plan.add_argument("--plan", required=True)

    kinds = sub.add_parser("verify", help="verify a collection").add_subparsers(
        dest="what", required=True, parser_class=parser_class)
    kinds.add_parser("kapranov", parents=[n]).add_argument("--d", type=int, required=True)
    kinds.add_parser("flag", parents=[n]).add_argument("--steps", required=True)
    kinds.add_parser("beilinson", parents=[n]).add_argument("--degrees")

    kinds = sub.add_parser("descent", help="descent bookkeeping summaries").add_subparsers(
        dest="what", required=True, parser_class=parser_class)
    kinds.add_parser("bs", parents=[algebra]).add_argument("--range-length", type=int)
    kinds.add_parser("gbs", parents=[algebra]).add_argument("--d", type=int, required=True)
    kinds.add_parser("tower", parents=[plan])

    kinds = sub.add_parser("fibration", help="twist search over fibration plans").add_subparsers(
        dest="what", required=True, parser_class=parser_class)
    kinds.add_parser("plan", parents=[plan]).add_argument("--twists")
    kinds.add_parser("search", parents=[plan])

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--criteria", help="comma-separated criterion numbers")

    return parser


_DISPATCH = {
    "partitions": _cmd_partitions,
    "lr": _cmd_lr,
    "schur-dim": _cmd_schur_dim,
    "bott": _cmd_bott,
    "euler": _cmd_euler,
    "verify": _cmd_verify,
    "descent": _cmd_descent,
    "fibration": _cmd_fibration,
    "selftest": _cmd_selftest,
}


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args, args.pretty)
    except BrokenPipeError:
        raise  # a closed stdout is not invalid input; `main` reports the failed write
    except (ValueError, KeyError, OSError, TypeError) as exc:
        sys.stderr.write(f"tiltcheck: invalid input: {exc}\n")
        return 2
    except (ArithmeticError, RecursionError) as exc:
        sys.stderr.write(f"tiltcheck: engine error: {type(exc).__name__}: {exc}\n")
        return 2


def main() -> None:
    import gc
    try:
        try:
            code = run(sys.argv[1:])
        except SystemExit as exc:  # argparse has written its usage error or help
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError as exc:
        sys.stderr.write(f"tiltcheck: cannot write the report: {exc}\n")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        code = 2
    finally:
        # the OS frees the heap at exit: spare the interpreter's final full collections
        gc.freeze()
    raise SystemExit(code)
