"""Relative tilting candidates: twist search over fibrations and towers.

Given a base with a verified tilting bundle and a fiberwise strongly
exceptional collection with computable pushforwards, the candidate bundle
sums pullbacks of twisted base summands against fiber objects.  The engine
computes its full Ext table exactly and searches for the least twist exponent
killing every positive-degree entry.

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
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Optional, Union

from .bwb import pn_line_cohomology
from .collections import ExtTable, GrassFiber, _build_scope, _chain, segment_stages


@dataclass(frozen=True)
class BaseModel:
    """P^dim with a line-bundle tilting collection (Beilinson range by default).

    The ample generator is the hyperplane class; construction checks that the
    declared summands already satisfy the Ext-vanishing predicate.
    """

    dim: int
    tilting_degrees: tuple[int, ...] = ()

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be non-negative")
        degs = tuple(self.tilting_degrees) or tuple(range(self.dim + 1))
        object.__setattr__(self, "tilting_degrees", degs)
        if len(set(degs)) != len(degs):
            raise ValueError("base summand degrees must be distinct")
        for a in degs:
            for b in degs:
                res = pn_line_cohomology(b - a, self.dim)
                if res is not None and res.degree > 0:
                    raise ValueError(
                        f"degrees {degs} are not tilting on P^{self.dim}: "
                        f"H^{res.degree}(O({b - a})) = {res.dimension}"
                    )


def point_base() -> BaseModel:
    return BaseModel(0)


@dataclass(frozen=True)
class TableFiber:
    """Fiber collection given by its pushforward table.

    `records` maps (j, i, s, base_degree) to a multiplicity and must have the
    strongly-exceptional shape: no s > 0 entries, nothing for j < i, and the
    diagonal equal to the single trivial class {degree 0: 1}.
    """

    labels: tuple[str, ...]
    records: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("fiber labels must be distinct")
        n = len(self.labels)
        diag_seen = set()
        for (j, i, s, deg), mult in self.records.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"record index ({j}, {i}) out of range")
            if int(mult) < 1:
                raise ValueError("multiplicities must be positive")
            if s != 0:
                raise ValueError(f"record ({j}, {i}, s={s}): positive-degree direct images "
                                 "contradict a fiberwise strongly exceptional collection")
            if j < i:
                raise ValueError(f"record ({j}, {i}): backward pushforwards must vanish")
            if j == i:
                if deg != 0 or int(mult) != 1:
                    raise ValueError(f"diagonal ({i}, {i}) must be exactly {{0: 1}}")
                diag_seen.add(i)
        if diag_seen != set(range(n)):
            missing = sorted(set(range(n)) - diag_seen)
            raise ValueError(f"diagonal records missing for objects {missing}")

    def objects(self, rank=None) -> tuple[int, ...]:
        """Object indices; `rank` is unused, as the table lists its objects."""
        return tuple(range(len(self.labels)))

    def pushforward(self, j: int, i: int) -> dict[int, int]:
        out = {}
        for (jj, ii, _s, deg), mult in self.records.items():
            if jj == j and ii == i:
                out[deg] = out.get(deg, 0) + mult
        return dict(sorted(out.items()))


Fiber = Union[GrassFiber, TableFiber]


@dataclass(frozen=True)
class FibrationPlan:
    """One fibration layer, possibly stacked on a previous verified plan."""

    base: Union[BaseModel, "FibrationPlan"]
    fiber: Optional[Fiber]
    twist: int = 0
    verified: bool = False
    table: Optional[ExtTable] = None
    obstruction: Optional[tuple] = None

    @property
    def root(self) -> BaseModel:
        node = self.base
        while isinstance(node, FibrationPlan):
            node = node.base
        return node

    def layers(self) -> list[tuple[Fiber, int]]:
        """Fibration layers bottom-first, with their twist exponents."""
        if isinstance(self.base, FibrationPlan):
            below = self.base.layers()
        else:
            below = []
        if self.fiber is None:
            return below
        return below + [(self.fiber, self.twist)]

    def summands(self) -> tuple[tuple, ...]:
        """Candidate summand labels: top fiber object first, root degree last."""
        objects = [fiber.objects(rank)
                   for segment in segment_stages(f for f, _twist in self.layers())
                   for fiber, rank in segment]
        return tuple(iter_product(*reversed(objects), self.root.tilting_degrees))

    def total_dimension(self) -> int:
        dim = self.root.dim
        for segment in segment_stages(f for f, _twist in self.layers()):
            dim += sum(fiber.l * (rank - fiber.l) for fiber, rank in segment if rank is not None)
        return dim


def _convolve(a: dict, b: dict) -> dict:
    """Product of two {(Ext degree, root degree): multiplicity} counters."""
    out: dict[tuple[int, int], int] = {}
    for (sa, da), ma in a.items():
        for (sb, db), mb in b.items():
            key = (sa + sb, da + db)
            out[key] = out.get(key, 0) + ma * mb
    return out


def candidate_ext_table(plan: FibrationPlan) -> ExtTable:
    """Full Ext table of the candidate bundle, exact integers.

    Per summand pair, every fiber layer is pushed down: Grass segments through
    the weight chain, table layers through their records (all in Ext degree
    0); each surviving (Ext degree s, base degree) meets the root pair and its
    twist shift in the root cohomology, whose degree adds to s.  Stages,
    layer objects and twist offsets are set up once per table, and the pairs
    share one build memo of stage transfers.
    """
    root = plan.root
    layers = plan.layers()
    top = len(layers) - 1
    # summand component for bottom-first layer k sits at position top - k;
    # segments: (table fiber, position) or (Grass segment, positions)
    segments = []
    positions = []
    for segment in segment_stages(fiber for fiber, _twist in layers):
        at = tuple(range(top - len(positions), top - len(positions) - len(segment), -1))
        positions += [{obj: p for p, obj in enumerate(fiber.objects(rank))}
                      for fiber, rank in segment]
        fiber, rank = segment[0]
        segments.append((fiber, at[0]) if rank is None else (segment, at))
    summands = plan.summands()
    # the twist shift of a pair (A, B) is offsets[B] - offsets[A]
    offsets = [sum(twist * positions[k][A[top - k]]
                   for k, (_fiber, twist) in enumerate(layers))
               for A in summands]
    dims: dict[tuple[int, int, int], int] = {}
    with _build_scope():
        for ia, A in enumerate(summands):
            for ib, B in enumerate(summands):
                counter: dict[tuple[int, int], int] = {(0, 0): 1}
                for head, at in segments:
                    if isinstance(head, TableFiber):
                        part = {(0, deg): m for deg, m in head.pushforward(B[at], A[at]).items()}
                    else:
                        # layer objects come padded from GrassFiber.objects
                        part = _chain(head, tuple(A[p] for p in at), tuple(B[p] for p in at))
                    if not part:
                        break
                    counter = _convolve(counter, part)
                else:
                    base_shift = B[-1] - A[-1] + offsets[ib] - offsets[ia]
                    for (s, deg), mult in counter.items():
                        res = pn_line_cohomology(base_shift + deg, root.dim)
                        if res is not None:
                            key = (ia, ib, s + res.degree)
                            dims[key] = dims.get(key, 0) + mult * res.dimension
    return ExtTable(len(summands), plan.total_dimension(), dims)


def verify_plan(plan: FibrationPlan) -> FibrationPlan:
    """The plan with its candidate Ext table, verified or obstructed.

    The obstruction is the first positive-degree entry, as (source, target,
    degree, dimension).
    """
    table = candidate_ext_table(plan)
    witness = next(iter(table.higher_entries()), None)
    obstruction = None if witness is None else (*witness[0], witness[1])
    return FibrationPlan(plan.base, plan.fiber, plan.twist, witness is None, table, obstruction)


def twist_search(base, fiber: Fiber, cap: int = 8) -> FibrationPlan:
    """Least twist exponent in [0, cap] with no positive-degree Ext.

    On failure returns the cap plan, unverified, carrying the first
    obstruction witness (source, target, degree, dimension).  Only the root
    shift depends on the twist, so every twist tried shares one build memo.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    with _build_scope():
        for m in range(cap + 1):
            plan = verify_plan(FibrationPlan(base, fiber, m))
            if plan.verified:
                break
    return plan


def tower_compose(stages, root: BaseModel, cap: int = 8) -> FibrationPlan:
    """Fold twist_search along a stage list, root-first.

    Each verified stage becomes the base of the next; an empty list returns
    the root's own tilting bundle as a trivial plan.
    """
    if not stages:
        return verify_plan(FibrationPlan(root, None, 0))
    base: Union[BaseModel, FibrationPlan] = root
    plan = None
    for fiber in stages:
        plan = twist_search(base, fiber, cap)
        if not plan.verified:
            return plan
        base = plan
    return plan


# ---------------------------------------------------------------------------
# fiber-table and plan files

def serialize_fiber_table(fiber: TableFiber) -> str:
    records = [
        {"base_degree": deg, "i": i, "j": j, "multiplicity": mult, "s": s}
        for (j, i, s, deg), mult in sorted(fiber.records.items())
    ]
    payload = {"objects": list(fiber.labels), "pushforwards": records}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_fiber_table(text: str) -> TableFiber:
    payload = json.loads(text)
    labels = tuple(str(x) for x in payload["objects"])
    records: dict[tuple[int, int, int, int], int] = {}
    for rec in payload["pushforwards"]:
        key = (int(rec["j"]), int(rec["i"]), int(rec["s"]), int(rec["base_degree"]))
        if key in records:
            raise ValueError(f"duplicate pushforward record {key}")
        records[key] = int(rec["multiplicity"])
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
    as it stands.
    """
    root_spec = payload.get("root", {"kind": "point"})
    kind = root_spec.get("kind", "pn")
    if kind == "point":
        root = point_base()
    elif kind == "pn":
        degrees = tuple(root_spec.get("degrees", ())) or ()
        root = BaseModel(int(root_spec["dim"]), degrees)
    else:
        raise ValueError(f"unknown root kind {kind!r}")
    stages = []
    for st in payload.get("stages", ()):
        skind = st["kind"]
        if skind == "grass":
            stages.append(GrassFiber(int(st["l"]), tuple(int(d) for d in st["degrees"])))
        elif skind == "grass-taut":
            stages.append(GrassFiber(int(st["l"]), taut=True))
        elif skind == "table":
            stages.append(load_fiber_table(os.path.join(plan_dir, st["path"])))
        else:
            raise ValueError(f"unknown stage kind {skind!r}")
    cap = int(payload.get("cap", 8))
    return root, stages, cap
