"""Homogeneous-bundle collections, their Ext tables, and tilting verification.

Objects are labelled by one extended weight per flag stage; the object is the
tensor product over stages of S^(weight) applied to the stage's tautological
subbundle.  Collections built here list larger diagrams first, which is the
direction making the Hom matrix upper unitriangular (all nonzero Hom groups
point forward); the convention is recorded in each report rather than assumed.

Two Ext engines back the tables; each pair gets exactly one, chosen by its
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
- Stage chain (every other pair; a Grassmannian is the single split stage
  (d, 0^n) over a point).  The Hom content of each stage is expanded into
  weights delta on the dual of its subbundle, and relative Bott (Bott 1957;
  Demazure 1976) pushes each down Grass(l, E), E the rank-r stage bundle:
  the dotted walk of (delta, 0^(r-l)) in GL(r) kills delta on a repeat, and
  otherwise leaves S^dom(E^dual) in Ext degree `inversions`, expanded into
  root line-bundle degrees (split stage) or handed to the stage below
  (tautological stage).  So the chain reports every Ext degree.

Flag tables and fibration plans share one stage model, `GrassFiber`, and one
function, `segment_stages`, that gives every stage its ambient rank: a flag
space is a single segment of stages over a point, and a plan stacks segments
and fiber tables over its root (see `fibration`).

A table build (`ext_table` here, `fibration.candidate_ext_table` for
candidate bundles) validates its stages and pads its labels once, then opens
a build memo shared by its chain pairs: one stage transfer per distinct
(stage, incoming weight, source and target stage weights), and one walk and
line-bundle expansion per distinct weight a split stage pushes down.  A
pair's chain folds the cached transfers.  The memo is dropped when the
outermost build returns or raises; outside a build every call computes afresh.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Optional

from .partitions import enumerate_box_partitions
from . import bwb
from .schur import _skew_dimension, as_weight, dual_weight, product_expand, split_bundle_expand

Label = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GrassFiber:
    """One Grassmann-bundle stage: l-planes in a stage bundle.

    The stage bundle is split, (+) O(d) over the root for d in
    `split_degrees`, or, with `taut`, the tautological subbundle of the stage
    directly below, whose rank is that stage's l.  Both kinds serve flag
    tables and fibration plans alike: Flag(l_1 < ... < l_m; n) is the split
    stage (l_m, 0^n) carrying taut stages l_(m-1), ..., l_1, and a plan stacks
    stages of either kind over its root.  The fiberwise collection is the
    Kapranov one.
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

    def objects(self, rank: int) -> tuple[tuple[int, ...], ...]:
        """S^lam over the l x (rank - l) box, larger diagrams first."""
        box = enumerate_box_partitions(self.l, rank - self.l)
        return tuple(as_weight(lam, self.l) for lam in reversed(box.members))


def segment_stages(stages) -> list[tuple]:
    """Bottom-first segments of a bottom-first stage list, with ambient ranks.

    A segment is a tuple of (stage, rank) pairs: a split GrassFiber starts
    one, with rank its degree count, and each taut GrassFiber joins the one
    below it, with rank that stage's l.  Any other stage (a fiber table) is a
    segment of its own, with rank None.
    """
    segments: list[tuple] = []
    for k, st in enumerate(stages):
        if not isinstance(st, GrassFiber):
            segments.append(((st, None),))
            continue
        if not st.taut:
            rank = len(st.split_degrees)
            segments.append(())
        elif segments and segments[-1][-1][1] is not None:
            rank = segments[-1][-1][0].l
        else:
            raise ValueError("tautological stage requires a Grass stage directly below")
        if st.l > rank:
            raise ValueError(f"stage {k}: need 1 <= l <= rank, got l={st.l}, rank={rank}")
        segments[-1] += ((st, rank),)
    return segments


# Work shared by the pairs of one table build: stage transfers ("transfer",
# ...) and split-stage pushforwards ("split", delta, duals).  Unset outside a
# build.
_build_memo: ContextVar[dict] = ContextVar("build_memo")


@contextmanager
def _build_scope():
    """Open a build memo for the enclosed table build, or join an open one."""
    token = _build_memo.set(_build_memo.get({}))
    try:
        yield
    finally:
        _build_memo.reset(token)


def tower_hom_degrees(stages: tuple[GrassFiber, ...], src: Label, tgt: Label) -> dict:
    """Pushforward of Hom(src, tgt) to the root, as {(Ext degree, root degree): mult}.

    `src`/`tgt` carry one weight per stage, root-first, each inside the
    stage's box.  Stages are pushed down from the top by the relative Bott
    walk (see the module docstring); an item (s, e) is a summand O(e) of the
    root in Ext degree s.
    """
    ranked = tuple(pair for segment in segment_stages(stages) for pair in segment)
    if len(src) != len(stages) or len(tgt) != len(stages):
        raise ValueError("one weight per stage required")
    src = tuple(as_weight(w, st.l) for w, st in zip(src, stages))
    tgt = tuple(as_weight(w, st.l) for w, st in zip(tgt, stages))
    return _chain(ranked, src, tgt)


def _chain(ranked, src, tgt) -> dict:
    """`tower_hom_degrees` on (stage, rank) pairs and padded weights.

    Folds the per-stage transfers from the top stage down, merging equal
    (gamma, Ext degree, root degree) items between stages.
    """
    # items: (gamma destined for the current stage or None, s, root degree) -> multiplicity
    items: dict[tuple[Optional[tuple[int, ...]], int, int], int] = {(None, 0, 0): 1}
    for k in range(len(ranked) - 1, -1, -1):
        st, rank = ranked[k]
        next_items: dict[tuple[Optional[tuple[int, ...]], int, int], int] = {}
        for (gamma, s, deg), mult in items.items():
            for gamma_out, ds, shift, c in _transfer(st, rank, gamma, src[k], tgt[k]):
                key = (gamma_out, s + ds, deg + shift)
                next_items[key] = next_items.get(key, 0) + mult * c
        items = next_items
    out: dict[tuple[int, int], int] = {}
    for (gamma, s, deg), mult in items.items():
        if gamma is not None:
            raise ArithmeticError(f"weight {gamma} was never pushed down to the root")
        out[(s, deg)] = out.get((s, deg), 0) + mult
    return dict(sorted(out.items()))


def _push(delta, rank: int, duals) -> tuple:
    """S^delta(R^dual) on Grass(l, E), rank E = `rank`, pushed down by relative Bott.

    `_transfer` terms; a split stage expands S^dom(E^dual) over root degrees `duals`.
    """
    walked = bwb.dotted_weyl(delta + (0,) * (rank - len(delta)), range(rank - 1, -1, -1))
    if walked is None:
        return ()
    s, dom = walked
    if duals is None:
        return ((dom, s, 0, 1),)
    return tuple((None, s, deg, c) for deg, c in split_bundle_expand(dom, duals).items())


def _transfer(st, rank, gamma, lam, mu):
    """One stage of the chain: (gamma', Ext degree, root degree shift, multiplicity) terms.

    gamma' is the full-length weight handed to the stage below (taut stage)
    or None with a root line-bundle degree shift (split stage).  Within a
    build, each distinct input and split-stage delta is pushed down once;
    failures are not stored.
    """
    memo = _build_memo.get({})
    key = ("transfer", st, rank, gamma, lam, mu)
    terms = memo.get(key)
    if terms is not None:
        return terms
    factors = [lam, dual_weight(mu)] if gamma is None else [gamma, lam, dual_weight(mu)]
    duals = None if st.taut else tuple(-d for d in st.split_degrees)
    out: dict[tuple[Optional[tuple[int, ...]], int, int], int] = {}
    for delta, c in product_expand(factors, st.l).items():
        if duals is None:
            pushed = _push(delta, rank, None)
        else:
            split_key = ("split", delta, duals)
            if split_key not in memo:
                memo[split_key] = _push(delta, rank, duals)
            pushed = memo[split_key]
        for gamma_out, s, shift, cc in pushed:
            out[(gamma_out, s, shift)] = out.get((gamma_out, s, shift), 0) + c * cc
    terms = tuple((g, s, shift, c) for (g, s, shift), c in out.items())
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


def kapranov_collection(d: int, n: int) -> CollectionSpec:
    """S^lam(R) over the d x (n-d) box on Grass(d, n), larger diagrams first."""
    if not 1 <= d < n:
        raise ValueError("need 1 <= d < n")
    space = bwb.grassmannian(d, n)
    # Grass(d, n) is the single split stage (d, 0^n) over a point
    labels = tuple((w,) for w in GrassFiber(d, (0,) * n).objects(n))
    return CollectionSpec(space, labels, order_note="containment order, larger diagrams first")


def flag_collection(space: bwb.FlagSpace) -> CollectionSpec:
    """Products of stage Schur functors of the tautological flag subbundles.

    Stage i ranges over the l_i x (l_{i+1} - l_i) box; the object count is the
    product of the stage binomials.
    """
    # labels list stage l_1 first, the reverse of the root-first stages
    stage_lists = [st.objects(rank) for st, rank in reversed(_flag_stages(space))]
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


def _flag_stages(space: bwb.FlagSpace) -> tuple:
    """The flag space as one root-first segment of (stage, rank) pairs."""
    steps = space.steps
    stages = [GrassFiber(steps[-1], (0,) * space.n)]
    stages += [GrassFiber(l, taut=True) for l in reversed(steps[:-1])]
    [segment] = segment_stages(stages)
    return segment


def schur_pair_ext(d: int, n: int, v, w) -> dict[int, int]:
    """Ext^*(S^v(R), S^w(R)) on Grass(d, n) for extended weights v, w, as {s: dim}.

    The stage chain of Grass(d, n), the single split stage (d, 0^n) over a
    point, where every root degree is 0: one relative walk per LR term of the
    Hom bundle, shared by the pairs of one build.
    """
    chain = _chain(_flag_stages(bwb.grassmannian(d, n)), (as_weight(v, d),), (as_weight(w, d),))
    return {s: mult for (s, _deg), mult in chain.items()}


def ext_table(spec: CollectionSpec) -> ExtTable:
    """Every Ext^s between every ordered pair of the collection, exactly.

    Labels are validated and padded once, root-first for the chain.  Each
    pair goes to its engine (see the module docstring): the closed form for
    in-bound Grassmannian pairs, the stage chain for every other pair.
    """
    n = spec.space.n
    segment = _flag_stages(spec.space)
    labels = [tuple(as_weight(w, st.l) for w, (st, _rank) in zip(reversed(lab), segment))
              for lab in spec.labels]
    # in bound: a Grassmannian pair (v,), (w,) with v_d - w_1 >= -(n - d)
    closed, bound = spec.space.is_grassmannian, spec.space.steps[0] - n
    dims: dict[tuple[int, int, int], int] = {}
    with _build_scope():
        for i, v in enumerate(labels):
            for j, w in enumerate(labels):
                if closed and v[0][-1] - w[0][0] >= bound:
                    if all(a >= b for a, b in zip(v[0], w[0])):
                        dims[(i, j, 0)] = _skew_dimension(v[0], w[0], n)
                    continue
                # over a point every root degree is 0
                for (s, _deg), mult in _chain(segment, v, w).items():
                    dims[(i, j, s)] = mult
    return ExtTable(len(labels), spec.space.dimension(), dims)


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
