"""Homogeneous-bundle collections, their Ext tables, and tilting verification.

Objects are labelled by one extended weight per flag stage: the tensor
product over stages of S^(weight) of the stage's tautological subbundle.
Collections built here list larger diagrams first, the direction making the
Hom matrix upper unitriangular; each report records the convention.

Each Hom term gets one of two Ext engines.

- Closed form (in-bound pairs).  For extended weights v, w of length d on
  Grass(d, n), every summand S^kappa(R^dual) of Hom(S^v R, S^w R) has
  kappa_d >= v_d - w_1.  When v_d - w_1 >= -(n - d), the dotted walk of
  (kappa, 0^(n-d)) is dominant or repeats (kappa_d + n - d lands on a
  trailing rho entry n-d-1, ..., 0), so Ext^(>0) vanishes, and Hom is the
  skew Schur dimension s_{v/w}(1^n) (`schur._skew_dimension`), zero unless
  w is contained in v.  A split stage of equal degrees d' is Grass(l, r)
  over the root with R twisted by O(d'), so `_transfer` takes each in-bound
  term (alpha, mu) of its Hom this way, at root degree -d'(|alpha| - |mu|).
  A Grassmannian's table, and so `schur_pair_ext`, enumerates the contained
  in-bound labels w under each source v at once (`_skew_homs`), along the
  labels' prefixes, with s_{v/w}(1^n) the product over the edge-connected
  row components of v/w, each translated to a canonical form and evaluated
  once per build.  Every pair of a Kapranov box is in bound.
- Stage chain (every other term; `GrassFiber` is the one stage model, and a
  Grassmannian the split stage (d, 0^n) over a point).  Each stage's Hom
  content is expanded into weights delta on the dual of its subbundle, and
  relative Bott (Bott 1957; Demazure 1976) pushes each down Grass(l, E), E
  the rank-r stage bundle: the dotted walk of (delta, 0^(r-l)) in GL(r) kills
  delta on a repeat, and otherwise leaves S^dom(E^dual) in Ext degree
  `inversions`, expanded into root line-bundle degrees (split stage) or
  handed to the stage below (tautological stage).

A table's chains (`ext_table`, `fibration.candidate_ext_table`) come from one
sweep over root-first labels.  The items left after the top stages depend
only on the labels' weights there, so `_sweep` folds from the top stage down
over live (source suffix, target suffix) pairs, each stage once per distinct
items and stage weights, and drops a pair with no items, as every extension
of it is zero.  A chain is handed over once with its label pairs, and the
root step maps it once per shift difference among their index pairs.  A
build owns one memo: one transfer per distinct input, one walk per distinct
pushed weight; `tower_hom_degrees` sweeps its one pair from an empty memo.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product as iter_product
from typing import Optional

from .partitions import FrozenValue, enumerate_box_partitions, json_int
from . import bwb
from .schur import _skew_dimension, as_weight, dual_weight, product_expand, split_bundle_expand

Label = tuple[tuple[int, ...], ...]


class GrassFiber(FrozenValue):
    """One Grassmann-bundle stage: l-planes in a stage bundle.

    The stage bundle is split, (+) O(d) over the root for d in
    `split_degrees`, or, given no degrees (`taut`), the tautological
    subbundle of the stage directly below, whose rank is that stage's l.
    Both kinds serve flag tables and fibration plans alike:
    Flag(l_1 < ... < l_m; n) is the split stage (l_m, 0^n) carrying taut
    stages l_(m-1), ..., l_1, and a plan stacks stages of either kind over its
    root.  The fiberwise collection is the Kapranov one.
    """

    __slots__ = _fields = ("l", "split_degrees")

    def __init__(self, l: int, split_degrees: Optional[tuple[int, ...]] = None):
        if split_degrees is not None:
            split_degrees = tuple(json_int(d, "split degree") for d in split_degrees)
        if json_int(l, "l") < 1:
            raise ValueError("l must be positive")
        self._set(l, split_degrees)

    @property
    def taut(self) -> bool:
        return self.split_degrees is None

    def objects(self, rank: int) -> tuple[tuple[int, ...], ...]:
        """S^lam over the l x (rank - l) box, larger diagrams first, zero-padded to length l."""
        box = enumerate_box_partitions(self.l, rank - self.l)
        return tuple(lam + (0,) * (self.l - len(lam)) for lam in reversed(box.members))


def rank_stages(stages) -> tuple:
    """A bottom-first stage list as bottom-first (stage, ambient rank) pairs.

    A split GrassFiber has rank its degree count, and a taut GrassFiber the l
    of the Grass stage directly below it.  Any other stage (a fiber table)
    has rank None.
    """
    ranked: list[tuple] = []
    for k, st in enumerate(stages):
        rank = None
        if isinstance(st, GrassFiber):
            if not st.taut:
                rank = len(st.split_degrees)
            elif ranked and ranked[-1][1] is not None:
                rank = ranked[-1][0].l
            else:
                raise ValueError("tautological stage requires a Grass stage directly below")
            if st.l > rank:
                raise ValueError(f"stage {k}: need 1 <= l <= rank, got l={st.l}, rank={rank}")
        ranked.append((st, rank))
    return tuple(ranked)


def tower_hom_degrees(stages: tuple[GrassFiber, ...], src: Label, tgt: Label) -> dict:
    """Pushforward of Hom(src, tgt) to the root, as {(Ext degree, root degree): mult}.

    `src`/`tgt` carry one weight per stage, root-first, each inside the
    stage's box; an item (s, e) is a summand O(e) of the root in Ext degree s.
    """
    ranked = rank_stages(stages)
    if len(src) != len(stages) or len(tgt) != len(stages):
        raise ValueError("one weight per stage required")
    src = tuple(as_weight(w, st.l) for w, st in zip(src, stages))
    tgt = tuple(as_weight(w, st.l) for w, st in zip(tgt, stages))
    return dict(sorted(kv for _pairs, chain in _sweep(ranked, (src,), (tgt,), {}) for kv in chain.items()))


def _sweep(ranked, sources, targets, memo: dict):
    """(pairs, chain) once per chain computed over sources x targets of root-first labels.

    A chain, {(Ext degree, root degree): mult}, is Hom(source, target) pushed
    to the root, nonempty, for each (p, q) of `pairs`; no pair is listed twice.
    A suffix is named by the first position carrying it, so a label by its own.
    """
    # items: (gamma destined for the current stage or None, s, root degree) -> multiplicity;
    # with no sources or no targets there is no pair to extend
    level = [([(0, 0)], {(None, 0, 0): 1})] if sources and targets else []
    for k in range(len(ranked) - 1, -1, -1):
        grown = []  # per side: suffix from stage k + 1 -> (its stage-k weights, their suffixes)
        for labels in (sources, targets):
            grow, above, here = {}, {}, {}
            for p, lab in enumerate(labels):
                a = above.setdefault(lab[k + 1:], p)
                grow.setdefault(a, {})[lab[k]] = here.setdefault(lab[k:], p)
            grown.append({a: (tuple(ext), tuple(ext.values())) for a, ext in grow.items()})
        level = _fold(k, *ranked[k], level, *grown, memo)
    for pairs, items in level:
        for gamma, _s, _deg in items:
            if gamma is not None:
                raise ArithmeticError(f"weight {gamma} was never pushed down to the root")
        yield pairs, {(s, deg): mult for (_gamma, s, deg), mult in items.items()}


def _fold(k, st, rank, level, grow_src, grow_tgt, memo: dict):
    """Stage k, `st`, folded into the suffix pairs extending the (pairs, items) of `level`.

    Pairs whose items and stage-k weights agree form a group, and each stage-k
    weight pair of a group yields (the pairs it extends to, its items) once.
    """
    groups: dict = {}
    for pairs, items in level:
        for a, b in pairs:
            (lams, vs), (mus, ws) = grow_src[a], grow_tgt[b]
            groups.setdefault((frozenset(items.items()), lams, mus), (items, []))[1].append((vs, ws))
    for (_items, lams, mus), (items, extended) in groups.items():
        for (i, lam), (j, mu) in iter_product(enumerate(lams), enumerate(mus)):
            out = {}  # item -> multiplicity
            for (gamma, s, deg), mult in items.items():
                for gamma_out, ds, shift, c in _transfer(k, st, rank, gamma, lam, mu, memo):
                    item = (gamma_out, s + ds, deg + shift)
                    out[item] = out.get(item, 0) + mult * c
            if out:
                yield [(vs[i], ws[j]) for vs, ws in extended], out


def _push(delta, rank: int, duals) -> tuple:
    """S^delta(R^dual) on Grass(l, E), rank E = `rank`, pushed down by relative Bott.

    `_transfer` terms; a split stage expands S^dom(E^dual) over root degrees `duals`.
    """
    walked = bwb.dotted_weyl(delta + (0,) * (rank - len(delta)))
    if walked is None:
        return ()
    s, dom = walked
    if duals is None:
        return ((dom, s, 0, 1),)
    return tuple((None, s, deg, c) for deg, c in split_bundle_expand(dom, duals).items())


def _transfer(k, st, rank, gamma, lam, mu, memo: dict):
    """Stage k of the chain: (gamma', Ext degree, root degree shift, multiplicity) terms.

    gamma' is the full-length weight handed to the stage below (taut stage)
    or None with a root line-bundle degree shift (split stage, fiber table).
    On a split stage of equal degrees d, a term S^alpha of gamma (x) lam in
    the closed form's bound adds s_{alpha/mu}(1^rank) at root degree
    -d(|alpha| - |mu|); every other term is walked (`_push`).  `memo` keeps
    ("transfer", k, gamma, lam, mu), ("expand", k, gamma, lam), ("skew",
    alpha, mu, rank) and ("push", delta, rank, duals) once each.  A memo
    serves one stage list, so the position k stands for the stage and its
    rank, and no stage is hashed.  A fiber table (rank None) is read afresh.
    """
    if rank is None:
        return tuple((None, 0, deg, m) for deg, m in st.pushforward(mu, lam).items())
    key = ("transfer", k, gamma, lam, mu)
    terms = memo.get(key)
    if terms is not None:
        return terms
    duals = None if st.taut else tuple(-d for d in st.split_degrees)
    out = {}  # item -> multiplicity
    if duals is not None and duals.count(duals[0]) == rank:
        alphas = {lam: 1} if gamma is None else memo.get(("expand", k, gamma, lam))
        if alphas is None:
            alphas = memo[("expand", k, gamma, lam)] = product_expand([gamma, lam], st.l)
        walks = []
        for alpha, c in alphas.items():
            if alpha[-1] - mu[0] < st.l - rank:
                walks.append(([alpha, dual_weight(mu)], c))
            elif all(x >= y for x, y in zip(alpha, mu)):  # else s_{alpha/mu} = 0
                hom = memo.get(("skew", alpha, mu, rank))
                if hom is None:
                    hom = memo[("skew", alpha, mu, rank)] = _skew_dimension(alpha, mu, rank)
                item = (None, 0, duals[0] * (sum(alpha) - sum(mu)))
                out[item] = out.get(item, 0) + c * hom
    else:
        walks = [([lam, dual_weight(mu)] if gamma is None else [gamma, lam, dual_weight(mu)], 1)]
    for factors, c in walks:
        for delta, cd in product_expand(factors, st.l).items():
            push_key = ("push", delta, rank, duals)
            if push_key not in memo:
                memo[push_key] = _push(delta, rank, duals)
            for gamma_out, s, shift, cc in memo[push_key]:
                out[(gamma_out, s, shift)] = out.get((gamma_out, s, shift), 0) + c * cd * cc
    memo[key] = tuple((g, s, shift, c) for (g, s, shift), c in out.items())
    return memo[key]


class CollectionSpec(FrozenValue):
    """Objects on a flag space, one weight per step each, stored padded by `as_weight`."""

    __slots__ = _fields = ("space", "labels", "multiplicities", "order_note")

    def __init__(self, space: bwb.FlagSpace, labels: tuple[Label, ...],
                 multiplicities: tuple[int, ...] = (), order_note: str = ""):
        steps = space.steps
        labels = tuple(tuple(lab) for lab in labels)
        for lab in labels:
            if len(lab) != len(steps):
                raise ValueError(f"label {lab} has {len(lab)} stages, expected {len(steps)}")
        labels = tuple(tuple(as_weight(w, l) for w, l in zip(lab, steps)) for lab in labels)
        mults = tuple(json_int(m, "multiplicity") for m in multiplicities) or (1,) * len(labels)
        if len(mults) != len(labels):
            raise ValueError("one multiplicity per object required")
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        if len(set(labels)) != len(labels):
            raise ValueError("objects must be pairwise distinct")
        self._set(space, labels, mults, order_note)

    def __len__(self) -> int:
        return len(self.labels)

    def with_multiplicities(self, mults) -> "CollectionSpec":
        return CollectionSpec(self.space, self.labels, tuple(mults), self.order_note)


def kapranov_collection(d: int, n: int) -> CollectionSpec:
    """S^lam(R) over the d x (n-d) box on Grass(d, n), larger diagrams first."""
    if not 1 <= json_int(d, "d") < json_int(n, "n"):
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
    if json_int(n, "n") < 1:
        raise ValueError("n must be positive")
    degrees = tuple(range(n + 1)) if degrees is None else tuple(json_int(d, "degree") for d in degrees)
    space = bwb.projective_space(n)
    labels = tuple(((-d,),) for d in degrees)
    return CollectionSpec(space, labels, order_note="line-bundle degrees as given")


def twist_collection(spec: CollectionSpec, power: int) -> CollectionSpec:
    """Tensor every object of a Grassmannian collection by det(R)^power, entrywise."""
    if not spec.space.is_grassmannian:
        raise ValueError("determinant twist helper is single-stage only")
    labels = tuple((tuple(x + power for x in lab[0]),) for lab in spec.labels)
    return CollectionSpec(spec.space, labels, spec.multiplicities, spec.order_note)


class ExtTable(FrozenValue):
    """dims maps (i, j, s) to dim Ext^s(E_i, E_j); absent keys are zero.

    `higher_entries`, `higher_witness` and `end_dim` each go once over the
    nonzero entries rather than probing every (i, j, s).
    """

    __slots__ = _fields = ("size", "max_degree", "dims")

    def __init__(self, size: int, max_degree: int, dims: Optional[dict] = None):
        self._set(size, max_degree, {} if dims is None else dims)

    def get(self, i: int, j: int, s: int) -> int:
        return self.dims.get((i, j, s), 0)

    def higher_entries(self) -> list:
        """The nonzero positive-degree entries as ((i, j, s), dim), sorted."""
        return sorted((key, v) for key, v in self.dims.items() if key[2] > 0 and v)

    def higher_witness(self) -> Optional[tuple[int, int, int, int]]:
        """The least nonzero positive-degree entry as (i, j, s, dim), or None."""
        return min(((*key, v) for key, v in self.dims.items() if key[2] > 0 and v), default=None)

    def end_dim(self, mults) -> int:
        """dim End of the sum of E_i^(mults[i]): sum of mults[i] mults[j] dim Hom(E_i, E_j)."""
        return sum(mults[i] * mults[j] * v for (i, j, s), v in self.dims.items() if s == 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtTable):
            return NotImplemented
        mine = {k: v for k, v in self.dims.items() if v}
        theirs = {k: v for k, v in other.dims.items() if v}
        return self.size == other.size and mine == theirs


def _flag_stages(space: bwb.FlagSpace) -> tuple:
    """The flag space as root-first (stage, rank) pairs."""
    steps = space.steps
    stages = [GrassFiber(steps[-1], (0,) * space.n)]
    stages += [GrassFiber(l) for l in reversed(steps[:-1])]
    return rank_stages(stages)


def schur_pair_ext(d: int, n: int, v, w) -> dict[int, int]:
    """Ext^*(S^v(R), S^w(R)) on Grass(d, n) for extended weights v, w, as {s: dim}.

    The (v, w) entries of the table of the labels v, w, built afresh as any
    Grassmannian's: in bound by `_skew_homs`, otherwise by the relative walk.
    """
    ranked = _flag_stages(bwb.grassmannian(d, n))
    table = _chain_table(ranked, [(as_weight(v, d),), (as_weight(w, d),)], 0, (0, 0))
    return {s: dim for (i, j, s), dim in sorted(table.dims.items()) if (i, j) == (0, 1)}


def _skew_homs(weights, n: int, width: int):
    """(v, [(w, s_{v/w}(1^n)), ...]) for each v of `weights`, over its w with w_1 <= v_l + width.

    The w contained in v are enumerated row by row along the prefixes of
    `weights`.  v/w splits into edge-connected row components, one closing at
    row r when w_r >= v_(r+1), and s_{v/w} is the product of its components'
    skew Schur functions, each invariant under translation (Macdonald, ch. I,
    section 5).  So a component, shifted to end in w_r = 0, is evaluated by
    `_skew_dimension` once per call; an empty row is a component of value 1.
    """
    children: dict[tuple[int, ...], dict[int, None]] = {}
    for w in weights:
        for r in range(len(w)):
            children.setdefault(w[:r], {})[w[r]] = None
    parts: dict[tuple, int] = {}
    for v in weights:
        # (w prefix, first row of its open component, product of the closed ones)
        level = [((), 0, 1)]
        for r, top in enumerate(v):
            cap = min(top, v[-1] + width) if r == 0 else top
            below = v[r + 1] if r + 1 < len(v) else None
            grown = []
            for w, a, value in level:
                for x in children[w]:
                    if x > cap:
                        continue
                    if x == top:
                        grown.append((w + (x,), r + 1, value))
                    elif below is None or x >= below:
                        key = (tuple([y - x for y in v[a:r + 1]]), tuple([y - x for y in w[a:]]) + (0,))
                        part = parts.get(key)
                        if part is None:
                            part = parts[key] = _skew_dimension(*key, n)
                        grown.append((w + (x,), r + 1, value * part))
                    else:
                        grown.append((w + (x,), a, value))
            level = grown
        yield v, [(w, value) for w, _a, value in level]


def _chain_table(ranked, labels, root_dim: int, shifts) -> ExtTable:
    """The Ext table of every ordered pair of root-first labels on `ranked` over P^root_dim.

    A chain's root degree e adds H^*(P^root_dim, O(shifts[j] - shifts[i] + e)).
    `max_degree` is the total dimension: root_dim plus l(r - l) per Grass
    stage; a fiber table, carrying none, adds nothing.
    """
    index: dict[Label, list[int]] = {}
    for i, lab in enumerate(labels):
        index.setdefault(lab, []).append(i)
    distinct, at = tuple(index), list(index.values())
    memo: dict = {}
    dims: dict[tuple[int, int, int], int] = {}
    if root_dim == 0 and len(ranked) == 1 and ranked[0][1] is not None:
        # one split stage over a point is Grass(l, n); in bound: v_l - w_1 >= l - n
        [(st, n)] = ranked
        width = n - st.l
        for v, homs in _skew_homs([lab[0] for lab in distinct], n, width):
            for w, hom in homs:
                for i, j in iter_product(index[(v,)], index[(w,)]):
                    dims[(i, j, 0)] = hom
        # out-of-bound pairs, w_1 > v_l + width, walk in label order
        by_first = sorted(range(len(distinct)), key=lambda q: distinct[q][0][0])
        firsts = [distinct[q][0][0] for q in by_first]
        chains = (([(p, q)], chain) for p, v in enumerate(distinct)
                  for q in sorted(by_first[bisect_right(firsts, v[0][-1] + width):])
                  for _pairs, chain in _sweep(ranked, (v,), (distinct[q],), memo))
    else:
        chains = _sweep(ranked, distinct, distinct, memo)
    root: dict[int, Optional[bwb.CohomologyResult]] = {}
    for pairs, chain in chains:
        at_diff: dict[int, dict[int, int]] = {}  # shift difference -> {Ext degree: dim}
        for i, j in [(i, j) for p, q in pairs for i in at[p] for j in at[q]]:
            degrees = at_diff.get(shifts[j] - shifts[i])
            if degrees is None:
                degrees = at_diff[shifts[j] - shifts[i]] = {}
                for (s, e), mult in chain.items():
                    e += shifts[j] - shifts[i]
                    res = root[e] = root[e] if e in root else bwb.pn_line_cohomology(e, root_dim)
                    if res is not None:
                        degrees[s + res.degree] = degrees.get(s + res.degree, 0) + mult * res.dimension
            for s, dim in degrees.items():
                dims[(i, j, s)] = dims.get((i, j, s), 0) + dim
    dimension = root_dim + sum(st.l * (rank - st.l) for st, rank in ranked if rank is not None)
    return ExtTable(len(labels), dimension, dims)


def ext_table(spec: CollectionSpec) -> ExtTable:
    """Every Ext^s between every ordered pair of the collection, exactly.

    The space is its flag stages over a point, and the spec's labels, padded
    at its construction, are read root-first.
    """
    labels = [lab[::-1] for lab in spec.labels]
    return _chain_table(_flag_stages(spec.space), labels, 0, [0] * len(labels))


class VerificationReport(FrozenValue):
    """The Ext-vanishing half of the tilting predicate, read from a collection's Ext table.

    Only the evidence, `spec` and `table`, are fields, so eq, hash and repr go
    by it.  The other `REPORTED` values, slots after the fields, are read once
    from the table's nonzero entries, and `hom_matrix` from its degree-0 ones
    on each access.  Fullness is not checked (GENERATION_NOTE): `k0_rank` is
    the collection's length.
    """

    REPORTED = ("is_strong_exceptional", "is_exceptional_each", "triangularity_witness",
                "higher_ext_witness", "k0_rank", "end_algebra_dim", "hom_matrix", "order_note",
                "generation_note")
    __slots__ = ("spec", "table") + tuple(name for name in REPORTED if name != "hom_matrix")
    _fields = ("spec", "table")

    def __init__(self, spec: CollectionSpec, table: ExtTable):
        if json_int(table.size, "Ext table size") != len(spec):
            raise ValueError(f"the Ext table has {table.size} objects, the collection {len(spec)}")
        # End(E_i) = k with no shifted self-Ext, and the backward Homs against the stored order
        units, diagonal_higher, backward = 0, False, []
        for (i, j, s), v in table.dims.items():
            if v and i == j:
                units += s == 0 and v == 1
                diagonal_higher |= 0 < s <= table.max_degree
            elif v and s == 0 and j < i:
                backward.append((i, j))
        exceptional_each = units == table.size and not diagonal_higher
        tri_witness = min(backward, default=None)
        higher_witness = table.higher_witness()
        self._set(spec, table, higher_witness is None and exceptional_each and tri_witness is None,
                  exceptional_each, tri_witness, higher_witness, table.size,
                  table.end_dim(spec.multiplicities), spec.order_note, GENERATION_NOTE)

    @property
    def hom_matrix(self) -> tuple[tuple[int, ...], ...]:
        matrix = [[0] * self.table.size for _ in range(self.table.size)]
        for (i, j, s), v in self.table.dims.items():
            if s == 0 and v:
                matrix[i][j] = v
        return tuple(map(tuple, matrix))

    @property
    def passed(self) -> bool:
        return self.is_strong_exceptional


GENERATION_NOTE = (
    "generation granted by citation: the semiorthogonal decomposition of the "
    "ambient space restricts fullness checking to the K_0 rank count"
)


def verify_tilting(spec: CollectionSpec, table: Optional[ExtTable] = None) -> VerificationReport:
    """The collection's report from `table`, or from its own table; failure is data, not error."""
    return VerificationReport(spec, ext_table(spec) if table is None else table)
