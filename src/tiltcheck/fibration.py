"""Relative tilting candidates: twist search over fibrations and towers.

Given a base with a verified tilting bundle and a fiberwise strongly
exceptional collection with computable pushforwards, the candidate bundle
sums pullbacks of twisted base summands against fiber objects.  The engine
computes its full Ext table exactly and searches for the least twist exponent
killing every positive-degree entry.

Computability boundary: automatic verification covers Grassmann-bundle stages
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
from .collections import (
    SPLIT,
    TAUT,
    ExtTable,
    StageSpec,
    _build_scope,
    _chain,
    tower_hom_degrees,
    validate_stages,
)
from .partitions import CONTAINMENT_ORDER, enumerate_box_partitions
from .schur import as_weight


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
class GrassFiber:
    """Fiberwise Kapranov collection on a Grassmann bundle.

    `split_degrees` names the stage bundle as (+) O(d) over the root; `taut`
    instead takes the tautological subbundle of the previous Grass stage (the
    iterated-flag case), whose rank is that stage's l.
    """

    l: int
    split_degrees: Optional[tuple[int, ...]] = None
    taut: bool = False

    def __post_init__(self):
        if self.split_degrees is not None:
            object.__setattr__(self, "split_degrees", tuple(int(d) for d in self.split_degrees))
        if (self.split_degrees is None) == (not self.taut):
            raise ValueError("exactly one of split_degrees / taut must be given")
        if self.l < 1:
            raise ValueError("l must be positive")

    def rank(self, below_rank: Optional[int]) -> int:
        if self.split_degrees is not None:
            return len(self.split_degrees)
        if below_rank is None:
            raise ValueError("taut stage needs a Grass stage below it")
        return below_rank

    def objects(self, rank: int) -> tuple[tuple[int, ...], ...]:
        if not self.l <= rank:
            raise ValueError(f"need l <= rank, got l={self.l}, rank={rank}")
        box = enumerate_box_partitions(self.l, rank - self.l, CONTAINMENT_ORDER)
        return tuple(as_weight(lam, self.l) for lam in reversed(box.members))


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

    def pushforward(self, j: int, i: int) -> dict[int, int]:
        out = {}
        for (jj, ii, _s, deg), mult in self.records.items():
            if jj == j and ii == i:
                out[deg] = out.get(deg, 0) + mult
        return dict(sorted(out.items()))


Fiber = Union[GrassFiber, TableFiber]


def relative_pushforward(fiber: Fiber, j: int, i: int, rank: Optional[int] = None) -> dict[int, int]:
    """Base line-bundle degrees of the direct image of Hom(E_i, E_j).

    Only degree-zero direct images occur; the empty map means the pushforward
    vanishes entirely.  Split Grass fibers need their ambient rank implied by
    the degree list; tautological stages are handled by the tower engine.
    """
    if isinstance(fiber, TableFiber):
        return fiber.pushforward(j, i)
    if fiber.split_degrees is None:
        raise ValueError("tautological stages push forward into weights, not degrees; "
                         "use the tower engine")
    rank = fiber.rank(None) if rank is None else rank
    objs = fiber.objects(rank)
    stage = (StageSpec(fiber.l, SPLIT, fiber.split_degrees),)
    return tower_hom_degrees(stage, (objs[i],), (objs[j],))


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
        root = self.root
        layer_objects = [_layer_objects(fiber, rank)
                         for fiber, rank in zip_layer_ranks(self.layers())]
        parts = list(reversed(layer_objects)) + [root.tilting_degrees]
        return tuple(iter_product(*parts))

    def total_dimension(self) -> int:
        dim = self.root.dim
        for fiber, rank in zip_layer_ranks(self.layers()):
            if isinstance(fiber, TableFiber):
                continue
            dim += fiber.l * (rank - fiber.l)
        return dim


def _layer_objects(fiber: Fiber, rank: Optional[int]):
    if isinstance(fiber, TableFiber):
        return tuple(range(len(fiber.labels)))
    return fiber.objects(rank)


def zip_layer_ranks(layers) -> list[tuple[Fiber, Optional[int]]]:
    """Pair each layer with its ambient rank (None for table fibers)."""
    out = []
    below_rank: Optional[int] = None
    for fiber, _twist in layers:
        if isinstance(fiber, TableFiber):
            out.append((fiber, None))
            below_rank = None
            continue
        if fiber.taut and below_rank is None:
            raise ValueError("tautological stage requires a Grass stage directly below")
        rank = fiber.rank(below_rank)
        out.append((fiber, rank))
        below_rank = fiber.l
    return out


def _segments(layers):
    """Group layers into taut-linked Grass segments and table singletons.

    Returns a list of ("grass", [layer indices bottom-first]) and
    ("table", layer index) entries, bottom-first.
    """
    segs: list[tuple[str, list[int]]] = []
    for k, (fiber, _twist) in enumerate(layers):
        if isinstance(fiber, TableFiber):
            segs.append(("table", [k]))
        elif fiber.taut:
            if not segs or segs[-1][0] != "grass" or segs[-1][1][-1] != k - 1:
                raise ValueError("tautological stage requires a Grass stage directly below")
            segs[-1][1].append(k)
        else:
            segs.append(("grass", [k]))
    return segs


def _convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for da, ma in a.items():
        for db, mb in b.items():
            out[da + db] = out.get(da + db, 0) + ma * mb
    return out


def candidate_ext_table(plan: FibrationPlan) -> ExtTable:
    """Full Ext table of the candidate bundle, exact integers.

    Per summand pair, every fiber layer is pushed down: Grass segments through
    the weight chain, table layers through their records; the surviving base
    degrees meet the root pair and its twist shift in the root cohomology.
    Stages, layer objects and twist offsets are set up once per table, and
    the pairs share one build memo of stage transfers.
    """
    root = plan.root
    layers = plan.layers()
    ranked = zip_layer_ranks(layers)
    n_layers = len(layers)
    # summand component for bottom-first layer k sits at position n_layers-1-k;
    # segments: (table fiber, position) or ((stages, ranks), positions)
    segments = []
    for kind, idxs in _segments(layers):
        at = [n_layers - 1 - k for k in idxs]
        if kind == "table":
            segments.append((layers[idxs[0]][0], at[0]))
            continue
        fibers = [layers[k][0] for k in idxs]
        stages = tuple(StageSpec(f.l, TAUT) if f.taut else StageSpec(f.l, SPLIT, f.split_degrees)
                       for f in fibers)
        segments.append(((stages, validate_stages(stages)), at))
    positions = [{obj: p for p, obj in enumerate(_layer_objects(fiber, rank))}
                 for fiber, rank in ranked]
    summands = plan.summands()
    # the twist shift of a pair (A, B) is offsets[B] - offsets[A]
    offsets = [sum(twist * positions[k][A[n_layers - 1 - k]]
                   for k, (_fiber, twist) in enumerate(layers))
               for A in summands]
    dims: dict[tuple[int, int, int], int] = {}
    with _build_scope():
        for ia, A in enumerate(summands):
            for ib, B in enumerate(summands):
                counter: dict[int, int] = {0: 1}
                for head, at in segments:
                    if isinstance(head, TableFiber):
                        part = head.pushforward(B[at], A[at])
                    else:
                        # layer objects come padded from GrassFiber.objects
                        part = _chain(*head, tuple(A[p] for p in at), tuple(B[p] for p in at))
                    if not part:
                        break
                    counter = _convolve(counter, part)
                else:
                    base_shift = B[-1] - A[-1] + offsets[ib] - offsets[ia]
                    for deg, mult in counter.items():
                        res = pn_line_cohomology(base_shift + deg, root.dim)
                        if res is not None:
                            key = (ia, ib, res.degree)
                            dims[key] = dims.get(key, 0) + mult * res.dimension
    return ExtTable(len(summands), plan.total_dimension(), dims)


def twist_search(base, fiber: Fiber, cap: int = 8) -> FibrationPlan:
    """Least twist exponent in [0, cap] with no positive-degree Ext.

    On failure returns the cap plan, unverified, carrying the first
    obstruction witness (source, target, degree, dimension).
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    last = None
    for m in range(cap + 1):
        plan = FibrationPlan(base, fiber, m)
        table = candidate_ext_table(plan)
        witness = next(iter(table.higher_entries()), None)
        if witness is None:
            return FibrationPlan(base, fiber, m, True, table, None)
        (i, j, s), v = witness
        last = FibrationPlan(base, fiber, m, False, table, (i, j, s, v))
    return last


def tower_compose(stages, root: BaseModel, cap: int = 8) -> FibrationPlan:
    """Fold twist_search along a stage list, root-first.

    Each verified stage becomes the base of the next; an empty list returns
    the root's own tilting bundle as a trivial plan.
    """
    if not stages:
        table = candidate_ext_table(FibrationPlan(root, None, 0))
        return FibrationPlan(root, None, 0, True, table, None)
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
