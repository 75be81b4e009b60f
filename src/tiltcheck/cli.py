"""Command-line front door: parse, dispatch, emit deterministic JSON reports.

Every command prints one report object with sorted keys; numeric payloads are
serialized as decimal strings so downstream consumers never see truncated
integers.  Exit codes: 0 pass (or informational), 1 failed verification,
2 invalid input or an engine error (reported on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Each command imports the engine modules it runs, so a process pays only for those.
from . import __version__, partitions


def _canonical(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
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


def parse_weight(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def parse_space(text: str) -> bwb.FlagSpace:
    from . import bwb
    kind, _, rest = text.partition(":")
    if kind == "grass":
        d, n = (int(x) for x in rest.split(","))
        return bwb.grassmannian(d, n)
    if kind == "flag":
        steps_text, _, n_text = rest.rpartition(";")
        steps = tuple(int(x) for x in steps_text.split(","))
        return bwb.FlagSpace(int(n_text), steps)
    raise ValueError(f"unknown space descriptor {text!r} (use grass:d,n or flag:l1,..;n)")


def _cohomology_payload(res):
    if res is None:
        return {"zero": True}
    out = {"zero": False, "degree": res.degree, "dimension": res.dimension}
    if res.dominant_weight is not None:
        out["weight"] = list(res.dominant_weight)
    return out


def _report_payload(report: coll.VerificationReport) -> dict:
    return {
        "is_strong_exceptional": report.is_strong_exceptional,
        "is_exceptional_each": report.is_exceptional_each,
        "triangularity_witness": report.triangularity_witness,
        "higher_ext_witness": report.higher_ext_witness,
        "k0_rank": report.k0_rank,
        "end_algebra_dim": report.end_algebra_dim,
        "hom_matrix": [list(r) for r in report.hom_matrix],
        "order_note": report.order_note,
        "generation_note": report.generation_note,
    }


def _summary_payload(s: descent.DescentSummary) -> dict:
    return {
        "summand_labels": [list(l) if isinstance(l, tuple) else l for l in s.summand_labels],
        "multiplicities": list(s.multiplicities),
        "ranks": list(s.ranks),
        "summand_count": s.summand_count,
        "total_rank": s.total_rank,
        "end_dim": s.end_dim,
        "notes": list(s.notes),
    }


def _plan_payload(plan: fibration.FibrationPlan) -> dict:
    layers = plan.layers()
    table = plan.table
    higher = []
    if table is not None:
        for (i, j, s), v in table.higher_entries():
            higher.append({"source": i, "target": j, "degree": s, "dimension": v})
            if len(higher) >= 5:
                break
    return {
        "verified": plan.verified,
        "twists": [tw for _f, tw in layers],
        "summand_count": len(plan.summands()),
        "total_dimension": plan.total_dimension(),
        "obstruction": plan.obstruction,
        "higher_ext_sample": higher,
    }


def _cmd_partitions(args, pretty):
    # both tags name the one order enumerate_box_partitions lists
    if args.order not in ("size_order", "containment_order"):
        raise ValueError(f"unknown order tag {args.order!r}")
    box = partitions.enumerate_box_partitions(args.rows, args.cols)
    result = {"count": len(box), "members": [list(p) for p in box]}
    return emit("partitions", {"rows": args.rows, "cols": args.cols, "order": args.order},
                result, "n/a", pretty)


def _cmd_lr(args, pretty):
    from .schur import lr_expand
    terms = lr_expand(parse_weight(args.a), parse_weight(args.b), args.rank)
    result = {"terms": [{"partition": list(p), "multiplicity": c}
                        for p, c in sorted(terms.items())]}
    return emit("lr", {"a": args.a, "b": args.b, "rank": args.rank}, result, "n/a", pretty)


def _cmd_schur_dim(args, pretty):
    from .schur import schur_dimension
    dim = schur_dimension(parse_weight(args.weight), args.n)
    return emit("schur-dim", {"weight": args.weight, "n": args.n},
                {"dimension": dim}, "n/a", pretty)


def _cmd_bott(args, pretty):
    from . import bwb
    space = parse_space(args.space)
    given = [x for x in (args.sub, args.sub_dual, args.quot, args.blocks) if x is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of --sub / --sub-dual / --quot / --blocks")
    if args.blocks is not None:
        blocks = tuple(parse_weight(b) for b in args.blocks.split("|"))
        bundle = bwb.HomogeneousBundle(space, blocks)
    elif args.sub is not None:
        bundle = bwb.of_sub(space, parse_weight(args.sub))
    elif args.sub_dual is not None:
        bundle = bwb.of_sub_dual(space, parse_weight(args.sub_dual))
    else:
        bundle = bwb.of_quot(space, parse_weight(args.quot))
    res = bwb.flag_cohomology(bundle)
    return emit("bott", {"space": args.space, "blocks": [list(b) for b in bundle.blocks]},
                _cohomology_payload(res), "n/a", pretty)


def _cmd_euler(args, pretty):
    from . import bwb
    value = bwb.localization_euler(parse_weight(args.a), parse_weight(args.b), args.d, args.n)
    return emit("euler", {"a": args.a, "b": args.b, "d": args.d, "n": args.n},
                {"euler_characteristic": value}, "n/a", pretty)


def _cmd_verify(args, pretty):
    from . import bwb, collections as coll
    if args.what == "kapranov":
        if args.d is None:
            raise ValueError("verify kapranov needs --d")
        spec = coll.kapranov_collection(args.d, args.n)
        inputs = {"collection": "kapranov", "d": args.d, "n": args.n}
    elif args.what == "flag":
        if not args.steps:
            raise ValueError("verify flag needs --steps")
        steps = tuple(int(x) for x in args.steps.split(","))
        spec = coll.flag_collection(bwb.FlagSpace(args.n, steps))
        inputs = {"collection": "flag", "steps": list(steps), "n": args.n}
    else:
        degrees = parse_weight(args.degrees) if args.degrees else None
        spec = coll.beilinson_collection(args.n, degrees)
        inputs = {"collection": "beilinson", "n": args.n,
                  "degrees": list(degrees) if degrees else list(range(args.n + 1))}
    table = coll.ext_table(spec)
    report = coll.verify_tilting(spec, table)
    verdict = "pass" if report.passed else "fail"
    return emit("verify", inputs, _report_payload(report), verdict, pretty)


def _parse_algebra(args) -> descent.CSAClass:
    from . import descent
    indices = tuple(int(x) for x in args.indices.split(",")) if args.indices else None
    return descent.CSAClass(args.degree, args.period, indices)


def _cmd_descent(args, pretty):
    from . import descent
    needed = {"bs": ("degree", "period"), "gbs": ("degree", "period", "d"), "tower": ("plan",)}
    missing = [f"--{name}" for name in needed[args.what] if getattr(args, name) is None]
    if missing:
        raise ValueError(f"descent {args.what} needs {' and '.join(missing)}")
    if args.what == "bs":
        summary = descent.bs_tilting_summary(_parse_algebra(args), args.range_length)
        inputs = {"variety": "bs", "degree": args.degree, "period": args.period}
    elif args.what == "gbs":
        summary = descent.generalized_bs_summary(_parse_algebra(args), args.d)
        inputs = {"variety": "gbs", "degree": args.degree, "period": args.period, "d": args.d}
    else:
        with open(args.plan, encoding="utf-8") as fh:
            payload = json.load(fh)
        stages = []
        for st in payload["stages"]:
            algebra = descent.CSAClass(
                int(st["algebra"]["degree"]),
                int(st["algebra"]["period"]),
                tuple(st["algebra"]["indices"]) if "indices" in st["algebra"] else None,
            )
            if st["kind"] == "bs":
                stages.append(("bs", algebra))
            elif st["kind"] == "gbs":
                stages.append(("gbs", algebra, int(st["params"]["d"])))
            else:
                raise ValueError(f"unknown tower stage kind {st['kind']!r}")
        summary = descent.twisted_tower_summary(stages)
        inputs = {"variety": "tower", "plan": args.plan, "stage_count": len(stages)}
    return emit("descent", inputs, _summary_payload(summary), "n/a", pretty)


def _cmd_fibration(args, pretty):
    from . import fibration
    with open(args.plan, encoding="utf-8") as fh:
        payload = json.load(fh)
    root, stages, cap = fibration.parse_plan(payload, os.path.dirname(args.plan))
    if args.what == "search":
        plan = fibration.tower_compose(stages, root, cap)
    else:
        twists = [int(x) for x in args.twists.split(",")] if args.twists else [0] * len(stages)
        if len(twists) != len(stages):
            raise ValueError("one twist per stage required")
        # the fiberless plan adds no layer: with no stages it is the root's own bundle
        plan = fibration.FibrationPlan(root, None, 0)
        for fiber, tw in zip(stages, twists):
            plan = fibration.FibrationPlan(plan, fiber, tw)
        plan = fibration.verify_plan(plan)
    verdict = "pass" if plan.verified else "fail"
    return emit("fibration", {"mode": args.what, "plan": args.plan},
                _plan_payload(plan), verdict, pretty)


def _cmd_selftest(args, pretty):
    from . import acceptance
    results = acceptance.run_all(criteria=args.criteria)
    ok = all(passed for _name, passed, _detail in results)
    for name, passed, detail in results:
        sys.stderr.write(f"{'PASS' if passed else 'FAIL'} {name}: {detail}\n")
    payload = {"criteria": [{"name": n, "passed": p, "detail": d} for n, p, d in results]}
    return emit("selftest", {"criteria": args.criteria or "all"}, payload,
                "pass" if ok else "fail", pretty)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tiltcheck",
                                     description="exact tilting-bundle construction and checks")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="enumerate a partition box")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--order", default="size_order")

    p = sub.add_parser("lr", help="Littlewood-Richardson expansion")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--rank", type=int, required=True)

    p = sub.add_parser("schur-dim", help="irreducible GL_n dimension")
    p.add_argument("--weight", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("bott", help="cohomology of a homogeneous bundle")
    p.add_argument("--space", required=True)
    p.add_argument("--sub")
    p.add_argument("--sub-dual", dest="sub_dual")
    p.add_argument("--quot")
    p.add_argument("--blocks")

    p = sub.add_parser("euler", help="localization Euler characteristic")
    p.add_argument("--a", default="")
    p.add_argument("--b", default="")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="verify a collection")
    p.add_argument("what", choices=["kapranov", "flag", "beilinson"])
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps")
    p.add_argument("--degrees")

    p = sub.add_parser("descent", help="descent bookkeeping summaries")
    p.add_argument("what", choices=["bs", "gbs", "tower"])
    p.add_argument("--degree", type=int)
    p.add_argument("--period", type=int)
    p.add_argument("--indices")
    p.add_argument("--d", type=int)
    p.add_argument("--range-length", dest="range_length", type=int)
    p.add_argument("--plan")

    p = sub.add_parser("fibration", help="twist search over fibration plans")
    p.add_argument("what", choices=["plan", "search"])
    p.add_argument("--plan", required=True)
    p.add_argument("--twists")

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
    except (ValueError, KeyError, OSError, TypeError) as exc:
        sys.stderr.write(f"tiltcheck: invalid input: {exc}\n")
        return 2
    except (ArithmeticError, RecursionError) as exc:
        sys.stderr.write(f"tiltcheck: engine error: {type(exc).__name__}: {exc}\n")
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
