"""Relative tilting candidates: twist search over fibrations and towers.

Given a base with a verified tilting bundle and a fiberwise strongly
exceptional collection with computable pushforwards, the candidate bundle
sums pullbacks of twisted base summands against fiber objects.  The engine
computes its full Ext table exactly and searches for the least twist exponent
killing every positive-degree entry.

A plan (`FibrationPlan`) is a root, P^m or a point, and its layers: a
bottom-first tuple of (fiber, twist exponent) pairs, the stage list of a plan
file with one twist per stage.  Its candidate Ext table is built from these
when the plan is constructed, and alone decides it: verified without a
positive-degree entry, else obstructed by the first.  A tower is searched
stage by stage from the root plan, the layerless plan whose table is the one
check of the root's degrees: each search adds one layer to the verified plan
below it, and an unverified root plan is the result, with its witness.

Computability boundary: automatic verification covers Grassmann-bundle stages
(`GrassFiber`, the stage model the flag tables of `collections` use too)
whose bundle is either split with degrees taken from the root or the
tautological subbundle of the previous Grass stage, plus fiber collections
supplied as pushforward tables.  Anything else is rejected rather than
approximated.  The twist sheaf is always a power of the root hyperplane
class, applied per fiber position; the search starts at zero and reports the
least verifying exponent.
"""

from __future__ import annotations

import json
import os
from itertools import product as iter_product
from typing import Optional

from .collections import ExtTable, GrassFiber, _chain_table, rank_stages
from .partitions import FrozenValue, json_field, json_int, json_str


class BaseModel(FrozenValue):
    """P^dim with the line-bundle degrees of its summands (Beilinson range by default).

    The ample generator is the hyperplane class.  Whether the degrees are
    tilting is the verdict of the root plan, `FibrationPlan(root)`, read from
    its table, and is not checked here.
    """

    __slots__ = _fields = ("dim", "degrees")

    def __init__(self, dim: int, degrees: tuple[int, ...] = ()):
        if json_int(dim, "root dim") < 0:
            raise ValueError("dimension must be non-negative")
        degrees = tuple(json_int(d, "base degree") for d in degrees) or tuple(range(dim + 1))
        if len(set(degrees)) != len(degrees):
            raise ValueError("base summand degrees must be distinct")
        self._set(dim, degrees)


class TableFiber(FrozenValue):
    """Fiber collection given by its pushforward table.

    `records` maps (j, i, s, base_degree) to a multiplicity and must have the
    strongly-exceptional shape: no s > 0 entries, nothing for j < i, and the
    diagonal equal to the single trivial class {degree 0: 1}.  Every entry
    and multiplicity is an integer, and every label a string.
    """

    # _pushforwards, (j, i) -> {base degree: multiplicity} with degrees
    # ascending, is derived from records: no field, so eq, hash and repr skip it
    __slots__ = ("labels", "records", "_pushforwards")
    _fields = ("labels", "records")

    def __init__(self, labels: tuple[str, ...], records: Optional[dict] = None):
        records = {} if records is None else records
        labels = tuple(json_str(x, "fiber object label") for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("fiber labels must be distinct")
        n = len(labels)
        diag_seen = set()
        for key, mult in records.items():
            j, i, s, deg = (json_int(x, "record index") for x in key)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"record index ({j}, {i}) out of range")
            if json_int(mult, "record multiplicity") < 1:
                raise ValueError("multiplicities must be positive")
            if s != 0:
                raise ValueError(f"record ({j}, {i}, s={s}): positive-degree direct images "
                                 "contradict a fiberwise strongly exceptional collection")
            if j < i:
                raise ValueError(f"record ({j}, {i}): backward pushforwards must vanish")
            if j == i:
                if deg != 0 or mult != 1:
                    raise ValueError(f"diagonal ({i}, {i}) must be exactly {{0: 1}}")
                diag_seen.add(i)
        if diag_seen != set(range(n)):
            missing = sorted(set(range(n)) - diag_seen)
            raise ValueError(f"diagonal records missing for objects {missing}")
        # every record has s = 0, so (j, i, deg) is unique
        pushforwards: dict = {}
        for (j, i, _s, deg), mult in sorted(records.items()):
            pushforwards.setdefault((j, i), {})[deg] = mult
        self._set(labels, records, pushforwards)

    def objects(self, rank=None) -> tuple[int, ...]:
        """Object indices; `rank` is unused, as the table lists its objects."""
        return tuple(range(len(self.labels)))

    def pushforward(self, j: int, i: int) -> dict[int, int]:
        """{base degree: multiplicity} of the (j, i) records, degrees ascending."""
        return dict(self._pushforwards.get((j, i), {}))


class FibrationPlan(FrozenValue):
    """A root and its fibration layers, bottom-first, as a plan file lists them.

    Each layer is a (fiber, twist exponent) pair; a plan with no layers is
    the root's own tilting bundle.  Its `table`, the candidate Ext table, is
    built from root and layers at construction (no field, so eq, hash and
    repr skip it) and decides its verdict.
    """

    __slots__ = ("root", "layers", "table")
    _fields = ("root", "layers")

    def __init__(self, root: BaseModel, layers=()):
        layers = tuple((fiber, json_int(twist, "twist")) for fiber, twist in layers)
        self._set(root, layers)
        self._set(root, layers, candidate_ext_table(self))

    @property
    def obstruction(self) -> Optional[tuple[int, int, int, int]]:
        return self.table.higher_witness()

    @property
    def verified(self) -> bool:
        return self.obstruction is None

    def summands(self) -> tuple[tuple, ...]:
        """Candidate summand labels: top fiber object first, root degree last."""
        ranked = rank_stages(f for f, _twist in self.layers)
        objects = [fiber.objects(rank) for fiber, rank in ranked]
        return tuple(iter_product(*reversed(objects), self.root.degrees))


def candidate_ext_table(plan: FibrationPlan) -> ExtTable:
    """Full Ext table of the candidate bundle, exact integers.

    The layers are one root-first chain of stages over the root.  A summand
    carries the root shift of its base degree plus, per layer, the twist
    times its object's position there.
    """
    layers = plan.layers
    ranked = rank_stages(f for f, _twist in layers)
    positions = [{obj: p for p, obj in enumerate(fiber.objects(rank))} for fiber, rank in ranked]
    summands = plan.summands()
    # a summand lists the top fiber object first and the root degree last
    labels = [A[-2::-1] for A in summands]
    shifts = [A[-1] + sum(twist * positions[k][lab[k]] for k, (_fiber, twist) in enumerate(layers))
              for A, lab in zip(summands, labels)]
    return _chain_table(ranked, labels, plan.root.dim, shifts)


def _checked_cap(cap) -> int:
    if json_int(cap, "cap") < 1:
        raise ValueError("cap must be positive")
    return cap


def twist_search(below: FibrationPlan, fiber: GrassFiber | TableFiber, cap: int) -> FibrationPlan:
    """Least twist exponent m in [0, cap] for `fiber` stacked on `below`.

    Tries the layers of `below` plus (fiber, m), m = 0, 1, ..., and returns
    the first plan with no positive-degree Ext; `FibrationPlan(root)` stands
    for the root alone.  On failure returns the cap plan, unverified, carrying
    the first obstruction witness (source, target, degree, dimension).  Each
    twist tried is one plan, so one candidate table build.
    """
    for m in range(_checked_cap(cap) + 1):
        plan = FibrationPlan(below.root, below.layers + ((fiber, m),))
        if plan.verified:
            break
    return plan


def tower_compose(stages, root: BaseModel, cap: int) -> FibrationPlan:
    """Fold twist_search along a stage list, root-first, from `FibrationPlan(root)`.

    The root plan's table, the root's own tilting bundle, is the one check of
    the root: an unverified root plan is returned as it stands, with its
    witness, and no stage is searched.  Each verified plan is the one the
    next stage is searched on, and the first unverified one is returned.
    """
    _checked_cap(cap)
    plan = FibrationPlan(root)
    for fiber in stages:
        if not plan.verified:
            break
        plan = twist_search(plan, fiber, cap)
    return plan


# ---------------------------------------------------------------------------
# fiber-table and plan files

def parse_fiber_table(text: str) -> TableFiber:
    payload = json.loads(text)
    labels = json_field(payload, "objects", "a fiber table", listed=True)
    records: dict[tuple[int, int, int, int], int] = {}
    for rec in json_field(payload, "pushforwards", "a fiber table", listed=True):
        key = tuple(json_int(json_field(rec, name, "a pushforward record"), f"record {name}")
                    for name in ("j", "i", "s", "base_degree"))
        if key in records:
            raise ValueError(f"duplicate pushforward record {key}")
        records[key] = json_int(json_field(rec, "multiplicity", "a pushforward record"),
                                "record multiplicity")
    return TableFiber(labels, records)


def load_fiber_table(path) -> TableFiber:
    with open(path, encoding="utf-8") as fh:
        return parse_fiber_table(fh.read())


def parse_plan(payload: dict, plan_dir: str = ""):
    """Plan files: {"root": {...}, "stages": [...], "cap": int}.

    Roots: {"kind": "point"} or {"kind": "pn", "dim": m, "degrees": [...]?}.
    Stages: {"kind": "grass", "l": int, "degrees": [...]} for split bundles,
    {"kind": "grass-taut", "l": int} for tautological stages, or
    {"kind": "table", "path": "..."} for fiber tables.  A relative table path
    is read from `plan_dir`, the directory of the plan file; an absolute one
    as it stands.  Every number is a JSON integer; a refusal names the field.
    """
    root_spec = json_field(payload, "root", "a plan", {"kind": "point"})
    kind = json_field(root_spec, "kind", "a plan root", "pn")
    if kind == "point":
        root = BaseModel(0)
    elif kind == "pn":
        degrees = json_field(root_spec, "degrees", "a plan root", [], listed=True)
        degrees = tuple(json_int(d, "root degree") for d in degrees)
        root = BaseModel(json_field(root_spec, "dim", "a plan root"), degrees)
    else:
        raise ValueError(f"unknown root kind {kind!r}")
    stages = []
    for st in json_field(payload, "stages", "a plan", [], listed=True):
        skind = json_field(st, "kind", "a plan stage")
        if skind == "grass":
            l = json_int(json_field(st, "l", "a grass stage"), "stage l")
            degrees = json_field(st, "degrees", "a grass stage", listed=True)
            stages.append(GrassFiber(l, tuple(json_int(d, "stage degree") for d in degrees)))
        elif skind == "grass-taut":
            stages.append(GrassFiber(json_int(json_field(st, "l", "a grass-taut stage"), "stage l")))
        elif skind == "table":
            path = json_str(json_field(st, "path", "a table stage"), "table stage path")
            stages.append(load_fiber_table(os.path.join(plan_dir, path)))
        else:
            raise ValueError(f"unknown stage kind {skind!r}")
    cap = json_int(json_field(payload, "cap", "a plan", 8), "cap")
    return root, stages, cap
