"""Homogeneous-bundle collections, their Ext tables, and tilting verification.

Objects are labelled by one extended weight per flag stage; the object is the
tensor product over stages of S^(weight) applied to the stage's tautological
subbundle.  Collections built here list larger diagrams first, which is the
direction making the Hom matrix upper unitriangular (all nonzero Hom groups
point forward); the convention is recorded in each report rather than assumed.

Three Ext engines back the tables; each pair gets exactly one, chosen by its
weights.

- Closed form (single Grassmannians, in-bound pairs).  For extended weights
  v, w of length d on Grass(d, n), every summand S^kappa(R^dual) of
  Hom(S^v R, S^w R) has kappa_d >= v_d - w_1.  When v_d - w_1 >= -(n - d),
  the dotted walk of (kappa, 0^(n-d)) is dominant (kappa_d >= 0) or repeats
  (kappa_d + n - d lands on one of the trailing rho entries n-d-1, ..., 0),
  so Ext^(>0) vanishes.  Shifting v, w by a common c to partitions, Hom is
  the skew Schur dimension s_{v/w}(1^n), zero unless w is contained in v and
  otherwise one Jacobi-Trudi determinant (`schur._skew_dimension`).  Every
  pair of a Kapranov box is in bound.
- Weyl walk (single Grassmannians, out-of-bound pairs): `schur_pair_ext`, the
  LR expansion of the Hom bundle and one absolute walk per term, valid for
  arbitrary extended weights.
- Stage chain (flag spaces, Grassmann-bundle towers): the Hom content of each
  stage is expanded into weights on that stage's subbundle, weights with a
  negative entry have no direct images, the rest descend in degree zero and
  are either converted to line-bundle degrees (split stage) or fed into the
  next stage down (tautological stage).

A table build (`ext_table` here, `fibration.candidate_ext_table` for
candidate bundles) validates its stages and pads its labels once, then opens
a build memo shared by its walk and chain pairs: one Weyl walk per distinct
Grassmannian LR term, and one stage transfer per distinct (stage, incoming
weight, source and target stage weights).  A pair's chain folds the cached
transfers.  The memo is dropped when the build returns or raises; outside a
build every call computes afresh.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Optional

from .partitions import CONTAINMENT_ORDER, enumerate_box_partitions, normalize
from . import bwb
from .schur import _skew_dimension, as_weight, dual_weight, product_expand, split_bundle_expand

Label = tuple[tuple[int, ...], ...]

SPLIT = "split"
TAUT = "taut"


@dataclass(frozen=True)
class StageSpec:
    """One Grassmann-bundle stage of a tower, listed root-first.

    kind "split": the stage bundle is (+) O(d) pulled back from the root.
    kind "taut": the stage bundle is the tautological subbundle of the stage
    below, so its rank is that stage's l.
    """

    l: int
    kind: str
    degrees: tuple[int, ...] = ()

    @property
    def rank(self) -> int:
        if self.kind != SPLIT:
            raise ValueError("rank of a taut stage comes from the stage below")
        return len(self.degrees)


def validate_stages(stages: tuple[StageSpec, ...]) -> tuple[int, ...]:
    """Check a root-first stage list; returns the ambient rank of each stage."""
    if not stages:
        return ()
    ranks = []
    for k, st in enumerate(stages):
        if st.kind == SPLIT:
            rank = len(st.degrees)
        elif st.kind == TAUT:
            if k == 0:
                raise ValueError("the bottom stage must be split over the root")
            rank = stages[k - 1].l
        else:
            raise ValueError(f"unknown stage kind {st.kind!r}")
        if not 1 <= st.l <= rank:
            raise ValueError(f"stage {k}: need 1 <= l <= rank, got l={st.l}, rank={rank}")
        ranks.append(rank)
    return tuple(ranks)


# Work shared by the pairs of one table build (each pool worker's own under
# --jobs): cohomology keyed (d, n, gamma), stage transfers ("transfer", ...)
# and split expansions ("split", delta, duals).  Unset outside a build.
_build_memo: ContextVar[dict] = ContextVar("build_memo")


def _open_build_memo():
    return _build_memo.set({})


@contextmanager
def _build_scope():
    """Open a fresh build memo for the enclosed table build; dropped on exit."""
    token = _open_build_memo()
    try:
        yield
    finally:
        _build_memo.reset(token)


def tower_hom_degrees(stages: tuple[StageSpec, ...], src: Label, tgt: Label) -> dict[int, int]:
    """Root line-bundle degrees of the full pushforward of Hom(src, tgt).

    `src`/`tgt` carry one weight per stage, root-first, each inside the
    stage's box.  Stages are pushed down from the top: per stage the content
    S^(incoming) (x) S^(src_k)(R)^dual (x) S^(tgt_k)(R) is expanded into
    weights on the stage subbundle; only componentwise non-negative weights
    have direct images (all in degree zero), the rest die in every degree.
    """
    ranks = validate_stages(stages)
    if len(src) != len(stages) or len(tgt) != len(stages):
        raise ValueError("one weight per stage required")
    src = tuple(as_weight(w, st.l) for w, st in zip(src, stages))
    tgt = tuple(as_weight(w, st.l) for w, st in zip(tgt, stages))
    return _chain(stages, ranks, src, tgt)


def _chain(stages, ranks, src, tgt) -> dict[int, int]:
    """`tower_hom_degrees` on validated stages and padded weights.

    Folds the per-stage transfers from the top stage down, merging equal
    (gamma, degree) items between stages.
    """
    # items: (gamma destined for the current stage or None, degree) -> multiplicity
    items: dict[tuple[Optional[tuple[int, ...]], int], int] = {(None, 0): 1}
    for k in range(len(stages) - 1, -1, -1):
        next_items: dict[tuple[Optional[tuple[int, ...]], int], int] = {}
        for (gamma, deg), mult in items.items():
            for gamma_out, shift, c in _transfer(k, stages[k], ranks[k], gamma, src[k], tgt[k]):
                key = (gamma_out, deg + shift)
                next_items[key] = next_items.get(key, 0) + mult * c
        items = next_items
    out: dict[int, int] = {}
    for (gamma, deg), mult in items.items():
        if gamma is not None:
            raise ArithmeticError(f"weight {gamma} was never pushed down to the root")
        out[deg] = out.get(deg, 0) + mult
    return dict(sorted(out.items()))


def _transfer(k, st, rank, gamma, lam, mu):
    """One stage of the chain: (gamma', degree shift, multiplicity) terms.

    gamma' is the normalized weight handed to the stage below (taut stage) or
    None with a root line-bundle degree shift (split stage).  Within a build,
    each distinct input and split delta is expanded once; failures are not stored.
    """
    memo = _build_memo.get({})
    key = ("transfer", k, st, rank, gamma, lam, mu)
    terms = memo.get(key)
    if terms is not None:
        return terms
    factors = [lam, dual_weight(mu)] if gamma is None else [gamma, lam, dual_weight(mu)]
    out: dict[tuple[Optional[tuple[int, ...]], int], int] = {}
    for delta, c in product_expand(factors, st.l).items():
        if delta[-1] < -(rank - st.l):
            raise ValueError(f"stage {k}: weight {delta} outside the pushforward model")
        if delta[-1] < 0:
            continue
        if st.kind == SPLIT:
            split_key = ("split", delta, tuple(-d for d in st.degrees))
            if split_key not in memo:
                memo[split_key] = split_bundle_expand(delta, split_key[2])
            for w, cc in memo[split_key].items():
                out[(None, w)] = out.get((None, w), 0) + c * cc
        else:
            key_out = (normalize(delta), 0)
            out[key_out] = out.get(key_out, 0) + c
    terms = tuple((g, shift, c) for (g, shift), c in out.items())
    memo[key] = terms
    return terms


@dataclass(frozen=True)
class CollectionSpec:
    space: bwb.FlagSpace
    labels: tuple[Label, ...]
    multiplicities: tuple[int, ...] = ()
    order_note: str = ""

    def __post_init__(self):
        labels = tuple(tuple(tuple(int(x) for x in w) for w in lab) for lab in self.labels)
        object.__setattr__(self, "labels", labels)
        mults = tuple(self.multiplicities) or (1,) * len(labels)
        object.__setattr__(self, "multiplicities", mults)
        if len(mults) != len(labels):
            raise ValueError("one multiplicity per object required")
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        if len(set(labels)) != len(labels):
            raise ValueError("objects must be pairwise distinct")
        steps = self.space.steps
        for lab in labels:
            if len(lab) != len(steps):
                raise ValueError(f"label {lab} has {len(lab)} stages, expected {len(steps)}")
            for w, l in zip(lab, steps):
                as_weight(w, l)

    def __len__(self) -> int:
        return len(self.labels)

    def with_multiplicities(self, mults) -> "CollectionSpec":
        return CollectionSpec(self.space, self.labels, tuple(mults), self.order_note)


def _reversed_box(rows: int, cols: int) -> list[tuple[int, ...]]:
    return list(reversed(enumerate_box_partitions(rows, cols, CONTAINMENT_ORDER).members))


def kapranov_collection(d: int, n: int) -> CollectionSpec:
    """S^lam(R) over the d x (n-d) box on Grass(d, n), larger diagrams first."""
    if not 1 <= d < n:
        raise ValueError("need 1 <= d < n")
    space = bwb.grassmannian(d, n)
    labels = tuple((as_weight(lam, d),) for lam in _reversed_box(d, n - d))
    return CollectionSpec(space, labels, order_note="containment order, larger diagrams first")


def flag_collection(space: bwb.FlagSpace) -> CollectionSpec:
    """Products of stage Schur functors of the tautological flag subbundles.

    Stage i ranges over the l_i x (l_{i+1} - l_i) box; the object count is the
    product of the stage binomials.
    """
    steps = space.steps + (space.n,)
    stage_lists = [
        [as_weight(lam, steps[i]) for lam in _reversed_box(steps[i], steps[i + 1] - steps[i])]
        for i in range(len(space.steps))
    ]
    labels = tuple(iter_product(*stage_lists))
    return CollectionSpec(space, labels, order_note="stagewise containment order, larger diagrams first")


def beilinson_collection(n: int, degrees=None) -> CollectionSpec:
    """Line bundles O(d) on P^n in the order given (default O(0)..O(n))."""
    if n < 1:
        raise ValueError("n must be positive")
    degrees = tuple(range(n + 1)) if degrees is None else tuple(int(d) for d in degrees)
    space = bwb.projective_space(n)
    labels = tuple(((-d,),) for d in degrees)
    return CollectionSpec(space, labels, order_note="line-bundle degrees as given")


def twist_collection(spec: CollectionSpec, power: int) -> CollectionSpec:
    """Tensor every object of a Grassmannian collection by det(R)^power."""
    if not spec.space.is_grassmannian:
        raise ValueError("determinant twist helper is single-stage only")
    labels = tuple(
        (tuple(x + power for x in lab[0]),) for lab in spec.labels
    )
    return CollectionSpec(spec.space, labels, spec.multiplicities, spec.order_note)


@dataclass(frozen=True)
class ExtTable:
    """dims maps (i, j, s) to dim Ext^s(E_i, E_j); absent keys are zero."""

    size: int
    max_degree: int
    dims: dict = field(default_factory=dict)

    def get(self, i: int, j: int, s: int) -> int:
        return self.dims.get((i, j, s), 0)

    def hom_matrix(self) -> list[list[int]]:
        return [[self.get(i, j, 0) for j in range(self.size)] for i in range(self.size)]

    def higher_entries(self):
        for (i, j, s), v in sorted(self.dims.items()):
            if s > 0 and v:
                yield (i, j, s), v

    def euler(self, i: int, j: int) -> int:
        return sum((-1) ** s * self.get(i, j, s) for s in range(self.max_degree + 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtTable):
            return NotImplemented
        mine = {k: v for k, v in self.dims.items() if v}
        theirs = {k: v for k, v in other.dims.items() if v}
        return self.size == other.size and mine == theirs


def schur_pair_ext(d: int, n: int, v, w) -> dict[int, int]:
    """Ext^*(S^v(R), S^w(R)) on Grass(d, n) for extended weights v, w.

    The absolute reference: one Weyl walk per LR term gamma of the Hom
    bundle.  `ext_table` calls it only for pairs outside the closed-form
    bound (see the module docstring); the pairs of one build share each walk.
    """
    memo = _build_memo.get({})
    out: dict[int, int] = {}
    for gamma, mult in product_expand([dual_weight(as_weight(v, d)), w], d).items():
        key = (d, n, gamma)
        if key not in memo:
            space = bwb.grassmannian(d, n)
            bundle = bwb.HomogeneousBundle(space, (dual_weight(gamma), (0,) * (n - d)))
            memo[key] = bwb.flag_cohomology(bundle)
        res = memo[key]
        if res is not None:
            out[res.degree] = out.get(res.degree, 0) + mult * res.dimension
    return out


def _flag_stages(space: bwb.FlagSpace) -> tuple[StageSpec, ...]:
    steps = space.steps
    stages = [StageSpec(steps[-1], SPLIT, (0,) * space.n)]
    for l in reversed(steps[:-1]):
        stages.append(StageSpec(l, TAUT))
    return tuple(stages)


def _pair_task(args) -> dict[int, int]:
    kind, params, li, lj = args
    if kind == "bwb":
        return schur_pair_ext(*params, li, lj)
    degrees = _chain(*params, li, lj)
    return {0: sum(degrees.values())} if degrees else {}


def ext_table(spec: CollectionSpec, jobs: int = 1) -> ExtTable:
    """Every Ext^s between every ordered pair of the collection, exactly.

    Labels are validated and padded once (flag labels root-first, for the
    chain).  In-bound Grassmannian pairs are answered in closed form here;
    only walk and chain pairs become tasks, and a pool starts under
    jobs > 1 only when there is such a task.
    """
    n_obj = len(spec.labels)
    dims: dict[tuple[int, int, int], int] = {}
    if spec.space.is_grassmannian:
        d, n = spec.space.steps[0], spec.space.n
        kind, params = "bwb", (d, n)
        labels = [as_weight(lab[0], d) for lab in spec.labels]
        todo = []
        for i, v in enumerate(labels):
            for j, w in enumerate(labels):
                if v[-1] - w[0] < d - n:
                    todo.append(i * n_obj + j)
                elif all(a >= b for a, b in zip(v, w)):
                    dims[(i, j, 0)] = _skew_dimension(v, w, n)
    else:
        stages = _flag_stages(spec.space)
        kind, params = "chain", (stages, validate_stages(stages))
        labels = [tuple(as_weight(w, st.l) for w, st in zip(reversed(lab), stages))
                  for lab in spec.labels]
        todo = range(n_obj * n_obj)
    # pair (i, j) is i * n_obj + j: `todo` is iterated twice and is never a
    # list of every pair, which a large flag table would hold in memory
    tasks = ((kind, params, labels[p // n_obj], labels[p % n_obj]) for p in todo)
    with _build_scope():
        if jobs > 1 and todo:
            from concurrent.futures import ProcessPoolExecutor  # only here: slow to import
            with ProcessPoolExecutor(max_workers=jobs, initializer=_open_build_memo) as pool:
                results = list(pool.map(_pair_task, tasks, chunksize=16))
        else:
            results = map(_pair_task, tasks)
        for p, res in zip(todo, results):
            for s, dim in res.items():
                if dim:
                    dims[(p // n_obj, p % n_obj, s)] = dim
    return ExtTable(n_obj, spec.space.dimension(), dims)


@dataclass(frozen=True)
class VerificationReport:
    is_strong_exceptional: bool
    is_exceptional_each: bool
    triangularity_witness: Optional[tuple[int, int]]
    higher_ext_witness: Optional[tuple[int, int, int, int]]
    k0_rank: int
    end_algebra_dim: int
    hom_matrix: tuple[tuple[int, ...], ...]
    order_note: str
    generation_note: str

    @property
    def passed(self) -> bool:
        return self.is_strong_exceptional


GENERATION_NOTE = (
    "generation granted by citation: the semiorthogonal decomposition of the "
    "ambient space restricts fullness checking to the K_0 rank count"
)


def verify_tilting(spec: CollectionSpec, table: Optional[ExtTable] = None) -> VerificationReport:
    """Ext-vanishing half of the tilting predicate; failure is data, not error.

    Checks End(E_i) = k, vanishing of all shifted Homs, and vanishing of all
    backward Homs against the stored order.  Fullness is not recomputed (see
    GENERATION_NOTE); k0_rank reports the necessary free-rank count.
    """
    if table is None:
        table = ext_table(spec)
    n_obj = table.size
    higher = next(iter(table.higher_entries()), None)
    higher_witness = None
    if higher is not None:
        (i, j, s), v = higher
        higher_witness = (i, j, s, v)
    exceptional_each = all(table.get(i, i, 0) == 1 for i in range(n_obj)) and not any(
        table.get(i, i, s) for i in range(n_obj) for s in range(1, table.max_degree + 1)
    )
    tri_witness = None
    for i in range(n_obj):
        for j in range(i):
            if table.get(i, j, 0):
                tri_witness = (i, j)
                break
        if tri_witness:
            break
    is_strong = higher_witness is None and exceptional_each and tri_witness is None
    mults = spec.multiplicities
    end_dim = sum(
        mults[i] * mults[j] * table.get(i, j, 0) for i in range(n_obj) for j in range(n_obj)
    )
    return VerificationReport(
        is_strong_exceptional=is_strong,
        is_exceptional_each=exceptional_each,
        triangularity_witness=tri_witness,
        higher_ext_witness=higher_witness,
        k0_rank=n_obj,
        end_algebra_dim=end_dim,
        hom_matrix=tuple(tuple(row) for row in table.hom_matrix()),
        order_note=spec.order_note,
        generation_note=GENERATION_NOTE,
    )


def end_quiver_dims(spec: CollectionSpec) -> list[list[int]]:
    """Hom-dimension matrix of a verified collection.

    This is quiver dimension data, not arrow counts: extracting arrows needs
    composition maps, which dimension bookkeeping cannot see.
    """
    report = verify_tilting(spec)
    if not report.passed:
        raise ValueError("collection failed verification; no quiver data emitted")
    return [list(row) for row in report.hom_matrix]
