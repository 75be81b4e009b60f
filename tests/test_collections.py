import importlib.resources as resources
import json
import random
from collections import Counter
from itertools import combinations, product as iter_product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltcheck import bwb
from tiltcheck import collections as coll
from tiltcheck import fibration as fib
from tiltcheck.partitions import enumerate_box_partitions, normalize
from tiltcheck.schur import _skew_dimension, as_weight, dual_weight, lr_expand, product_expand, split_bundle_expand

DATA = resources.files("tiltcheck") / "data"


def test_kapranov_counts():
    assert len(coll.kapranov_collection(1, 4).labels) == 4
    assert len(coll.kapranov_collection(2, 4).labels) == 6
    for d in (2, 3, 4):
        assert len(coll.kapranov_collection(d, d + 1).labels) == d + 1


def test_kapranov_order_larger_first():
    spec = coll.kapranov_collection(2, 4)
    sizes = [sum(lab[0]) for lab in spec.labels]
    assert sizes == sorted(sizes, reverse=True)
    assert spec.labels[0] == ((2, 2),)
    assert spec.labels[-1] == ((0, 0),)


def test_beilinson_p1_kronecker_matrix():
    spec = coll.kapranov_collection(1, 2)
    table = coll.ext_table(spec)
    assert coll.VerificationReport(spec, table).hom_matrix == ((1, 2), (0, 1))
    assert not list(table.higher_entries())


def test_beilinson_collection_matrices():
    table = coll.ext_table(coll.beilinson_collection(2))
    report = coll.verify_tilting(coll.beilinson_collection(2), table)
    assert report.hom_matrix == ((1, 3, 6), (0, 1, 3), (0, 0, 1))
    assert report.passed
    assert report.end_algebra_dim == 15
    assert report.k0_rank == 3


def test_grass24_table_and_report():
    spec = coll.kapranov_collection(2, 4)
    table = coll.ext_table(spec)
    assert all(table.get(i, i, 0) == 1 for i in range(6))
    assert not list(table.higher_entries())
    report = coll.verify_tilting(spec, table)
    assert report.passed and report.k0_rank == 6
    # spec example: Hom(S^(1) R, O) = 4 (source (1) earlier than target ())
    i = spec.labels.index(((1, 0),))
    j = spec.labels.index(((0, 0),))
    assert table.get(i, j, 0) == 4


def test_wrong_collection_fails_with_witness():
    spec = coll.beilinson_collection(1, degrees=(0, -1))
    report = coll.verify_tilting(spec)
    assert not report.passed
    assert report.triangularity_witness == (1, 0)
    assert report.hom_matrix == ((1, 0), (2, 1))


def test_higher_ext_witness_reported():
    # O, O(-2) on P^1: Ext^1(O, O(-2)) = H^1(O(-2)) = k and a backward Hom
    report = coll.verify_tilting(coll.beilinson_collection(1, degrees=(0, -2)))
    assert not report.passed
    assert report.higher_ext_witness == (0, 1, 1, 1)
    assert report.triangularity_witness == (1, 0)


def reversed_box(rows, cols):
    """Padded weights of the rows x cols box, larger diagrams first."""
    return [as_weight(lam, rows) for lam in reversed(enumerate_box_partitions(rows, cols).members)]


@pytest.mark.parametrize("d, n, witness", [(2, 4, (4, 0, 2, 4)), (2, 5, (6, 0, 3, 5)),
                                           (3, 6, (7, 0, 3, 15))],
                         ids=["grass-2-4", "grass-2-5", "grass-3-6"])
def test_kapranov_box_grown_by_one_column_fails(d, n, witness):
    # negative control: the d x (n - d + 1) box is one column too wide, so
    # some of its objects have higher Ext and some are not exceptional
    labels = tuple((w,) for w in reversed_box(d, n - d + 1))
    report = coll.verify_tilting(coll.CollectionSpec(bwb.grassmannian(d, n), labels))
    assert not report.passed
    assert report.higher_ext_witness == witness
    assert report.is_exceptional_each is False


def test_euler_consistency_with_localization():
    spec = coll.kapranov_collection(2, 4)
    table = coll.ext_table(spec)
    for i, li in enumerate(spec.labels):
        for j, lj in enumerate(spec.labels):
            chi = sum((-1) ** s * table.get(i, j, s) for s in range(table.max_degree + 1))
            assert chi == bwb.localization_euler(normalize(li[0]), normalize(lj[0]), 2, 4)


def test_multiplicity_scaling():
    spec = coll.kapranov_collection(1, 3)
    table = coll.ext_table(spec)
    base = coll.verify_tilting(spec, table)
    scaled = coll.verify_tilting(spec.with_multiplicities((2, 3, 5)), table)
    assert scaled.passed == base.passed
    expected = sum(
        r * s * table.get(i, j, 0)
        for i, r in enumerate((2, 3, 5))
        for j, s in enumerate((2, 3, 5))
    )
    assert scaled.end_algebra_dim == expected
    assert scaled.k0_rank == base.k0_rank


def test_global_twist_invariance():
    spec = coll.kapranov_collection(2, 4)
    table = coll.ext_table(spec)
    for power in (1, -1, 3):
        assert coll.ext_table(coll.twist_collection(spec, power)) == table


@pytest.mark.parametrize("d, n", [(2, 4), (2, 5)])
def test_twist_of_short_labels_is_exact(d, n):
    # labels are stored padded, so det(R)^power shifts every entry of a short one
    spec = coll.kapranov_collection(d, n)
    short = coll.CollectionSpec(spec.space, [[normalize(w) for w in lab] for lab in spec.labels],
                                order_note=spec.order_note)
    assert any(len(normalize(lab[0])) < d for lab in spec.labels)
    for power in (1, -1, 2, -2):
        assert coll.twist_collection(short, power) == coll.twist_collection(spec, power)
    one = coll.CollectionSpec(spec.space, (((1,),),))
    assert coll.twist_collection(one, 1).labels == (((2,) + (1,) * (d - 1),),)


def test_flag_table_dimension_is_the_space_dimension():
    # a chain table's max_degree sums l(r - l) over its stages
    for n in range(2, 7):
        for k in range(1, n):
            for steps in combinations(range(1, n), k):
                space = bwb.FlagSpace(n, steps)
                assert coll.ext_table(coll.flag_collection(space)).max_degree == space.dimension()


def test_flag_collection_counts():
    assert len(coll.flag_collection(bwb.FlagSpace(3, (1, 2))).labels) == 6
    assert len(coll.flag_collection(bwb.FlagSpace(5, (1,))).labels) == 5
    assert len(coll.flag_collection(bwb.FlagSpace(4, (1, 2, 3))).labels) == 24


@pytest.mark.parametrize("l, rank", [(1, 1), (1, 4), (2, 4), (3, 6), (4, 7)])
def test_fiber_objects_are_the_padded_box(l, rank):
    objects = coll.GrassFiber(l, (0,) * rank).objects(rank)
    assert objects == tuple(reversed_box(l, rank - l))
    assert all(type(x) is int for w in objects for x in w)


def test_flag_labels_are_padded_once(monkeypatch):
    # the box members are trusted partitions: only CollectionSpec checks and pads
    calls = []
    monkeypatch.setattr(coll, "as_weight", lambda w, length: calls.append(w) or as_weight(w, length))
    spec = coll.flag_collection(bwb.FlagSpace(6, (1, 3, 5)))
    assert len(spec) == 180
    assert len(calls) == 540


def test_flag_table_values():
    spec = coll.flag_collection(bwb.FlagSpace(3, (1, 2)))
    table = coll.ext_table(spec)
    assert not list(table.higher_entries())
    report = coll.verify_tilting(spec, table)
    assert report.passed and report.k0_rank == 6
    # hand value: Hom(R_1 (x) det R_2, O) = dim S^(2,1)(V*) = 8 for n = 3
    i = spec.labels.index(((1,), (1, 1)))
    j = spec.labels.index(((0,), (0, 0)))
    assert table.get(i, j, 0) == 8


def test_flag_full_flag_gl4_verifies():
    spec = coll.flag_collection(bwb.FlagSpace(4, (1, 2, 3)))
    report = coll.verify_tilting(spec)
    assert report.passed and report.k0_rank == 24


def test_flag_with_step_gaps_verifies():
    for n, steps, count in [(4, (1, 3), 12), (5, (2, 4), 30), (4, (2, 3), 12)]:
        spec = coll.flag_collection(bwb.FlagSpace(n, steps))
        report = coll.verify_tilting(spec)
        assert report.passed, (n, steps)
        assert report.k0_rank == count


def absolute_pair_ext(d, n, v, w):
    """Ext^*(S^v R, S^w R) on Grass(d, n): one absolute Weyl walk in GL(n) per LR term."""
    space = bwb.grassmannian(d, n)
    out = {}
    for gamma, mult in product_expand([dual_weight(as_weight(v, d)), w], d).items():
        res = bwb.flag_cohomology(bwb.HomogeneousBundle(space, (dual_weight(gamma), (0,) * (n - d))))
        if res is not None:
            out[res.degree] = out.get(res.degree, 0) + mult * res.dimension
    return out


def unmemoized_ext_table(spec):
    """Grassmannian Ext table with one absolute walk per LR term of every pair."""
    d, n = spec.space.steps[0], spec.space.n
    dims = {(i, j, s): dim
            for i, (v,) in enumerate(spec.labels)
            for j, (w,) in enumerate(spec.labels)
            for s, dim in absolute_pair_ext(d, n, v, w).items()}
    return coll.ExtTable(len(spec.labels), spec.space.dimension(), dims)


@pytest.mark.parametrize("d, n", [(2, 5), (3, 6)])
def test_memoized_table_euler_matches_localization(d, n):
    spec = coll.kapranov_collection(d, n)
    table = coll.ext_table(spec)
    for i, (a,) in enumerate(spec.labels):
        for j, (b,) in enumerate(spec.labels):
            chi = sum((-1) ** s * table.get(i, j, s) for s in range(table.max_degree + 1))
            assert chi == bwb.localization_euler(a, b, d, n), (a, b)


@pytest.mark.parametrize(
    "spec",
    [
        coll.twist_collection(coll.kapranov_collection(2, 5), -1),
        coll.twist_collection(coll.kapranov_collection(3, 6), 2),
        coll.beilinson_collection(3, range(5)),
    ],
    ids=["kapranov-2-5-det-1", "kapranov-3-6-det+2", "beilinson-3-range5"],
)
def test_memoized_table_matches_unmemoized_reference(spec):
    table = coll.ext_table(spec)
    reference = unmemoized_ext_table(spec)
    assert table == reference
    assert coll.verify_tilting(spec, table) == coll.verify_tilting(spec, reference)


def out_of_bound(d, n, v, w):
    """Pairs the closed form cannot certify: v_d - w_1 < -(n - d)."""
    return v[-1] - w[0] < d - n


def walk_routed_collection():
    """Grass(2, 5) over the 2 x 4 box, twisted by det^-1: 25 out-of-bound pairs."""
    labels = tuple((w,) for w in reversed_box(2, 4))
    return coll.twist_collection(coll.CollectionSpec(bwb.grassmannian(2, 5), labels), -1)


@pytest.mark.parametrize("d, n", [(d, n) for n in range(2, 9) for d in range(1, n)])
def test_closed_form_table_matches_walk_reference(d, n):
    # determinant-twisted tables are compared in test_memoized_table_matches_unmemoized_reference
    spec = coll.kapranov_collection(d, n)
    assert coll.ext_table(spec) == unmemoized_ext_table(spec)


@st.composite
def grassmannian_pairs(draw):
    """(d, n, v, w): extended weights of length d, entries in [-4, 4], d < n <= 7."""
    n = draw(st.integers(2, 7))
    d = draw(st.integers(1, n - 1))
    weight = st.lists(st.integers(-4, 4), min_size=d, max_size=d).map(
        lambda xs: tuple(sorted(xs, reverse=True)))
    return d, n, draw(weight), draw(weight)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(grassmannian_pairs())
def test_closed_form_matches_walk_on_extended_pairs(case):
    d, n, v, w = case
    labels = ((v,), (w,)) if v != w else ((v,),)
    sweep = coll._sweep
    swept = []

    def counted(ranked, sources, targets, memo):
        swept.extend(src + tgt for src, tgt in iter_product(sources, targets))
        return sweep(ranked, sources, targets, memo)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coll, "_sweep", counted)
        table = coll.ext_table(coll.CollectionSpec(bwb.grassmannian(d, n), labels))
    # one engine per pair: exactly the out-of-bound pairs reach the sweep
    pairs = [(a, b) for (a,) in labels for (b,) in labels]
    assert swept == [(a, b) for a, b in pairs if out_of_bound(d, n, a, b)]
    for (i, (a,)), (j, (b,)) in iter_product(enumerate(labels), repeat=2):
        expected = absolute_pair_ext(d, n, a, b)
        assert {s: x for (p, q, s), x in table.dims.items() if (p, q) == (i, j)} == expected
        assert coll.schur_pair_ext(d, n, a, b) == expected
        if not out_of_bound(d, n, a, b):
            assert set(expected) <= {0}, (a, b)  # the bound certifies Ext^(>0) = 0


def test_in_box_table_expands_no_lr_product():
    spec = coll.kapranov_collection(3, 7)
    before = lr_expand.cache_info()
    coll.ext_table(spec)
    after = lr_expand.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


def per_pair_closed_form_table(spec):
    """Grassmannian table pair by pair: one skew determinant per contained in-bound pair.

    Out-of-bound pairs take the one-pair chain `tower_hom_degrees`, which no
    table build calls.
    """
    d, n = spec.space.steps[0], spec.space.n
    grass = (coll.GrassFiber(d, (0,) * n),)
    weights = [as_weight(v, d) for (v,) in spec.labels]
    dims = {}
    for i, v in enumerate(weights):
        for j, w in enumerate(weights):
            if out_of_bound(d, n, v, w):
                chain = coll.tower_hom_degrees(grass, (v,), (w,))
                dims.update(((i, j, s), x) for (s, _deg), x in chain.items())
            elif all(a >= b for a, b in zip(v, w)):
                dims[(i, j, 0)] = _skew_dimension(v, w, n)
    return coll.ExtTable(len(weights), spec.space.dimension(), dims)


@pytest.mark.parametrize(
    "spec",
    [
        coll.kapranov_collection(4, 9),
        coll.kapranov_collection(5, 10),
        coll.twist_collection(coll.kapranov_collection(4, 8), 1),
        coll.twist_collection(coll.kapranov_collection(4, 8), -1),
        coll.CollectionSpec(bwb.grassmannian(4, 8), tuple(reversed(coll.kapranov_collection(4, 8).labels))),
        walk_routed_collection(),
    ],
    ids=["kapranov-4-9", "kapranov-5-10", "kapranov-4-8-det+1", "kapranov-4-8-det-1",
         "kapranov-4-8-reversed", "walk-routed"],
)
def test_closed_form_table_matches_per_pair_determinants(spec):
    table = coll.ext_table(spec)
    assert table == per_pair_closed_form_table(spec)
    assert coll.VerificationReport(spec, table).hom_matrix == tuple(
        tuple(table.get(i, j, 0) for j in range(table.size)) for i in range(table.size))


@st.composite
def contained_pairs(draw):
    """(n, v, w): w contained in v, length <= 5, entries in [-4, 4], n <= 8; rows of w often equal v's."""
    length = draw(st.integers(1, 5))
    weight = st.lists(st.integers(-4, 4), min_size=length, max_size=length).map(
        lambda xs: tuple(sorted(xs, reverse=True)))
    v, u = draw(weight), draw(weight)
    # the row-wise minimum of two weights is a weight contained in both
    return draw(st.integers(1, 8)), v, tuple(min(a, b) for a, b in zip(v, u))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(contained_pairs())
@example((3, (2, 2, 0), (2, 2, 0)))  # every row empty
@example((4, (3, 1, 1, 0), (3, 0, 0, -1)))  # an empty row between two components
@example((2, (2, 2, 2), (1, 0, 0)))  # one component with a column taller than n
def test_component_product_is_the_skew_dimension(case):
    n, v, w = case
    # width 8 admits every pair: v_l - w_1 >= -8 for entries in [-4, 4]
    homs = {x: dict(found) for x, found in coll._skew_homs(list(dict.fromkeys((v, w))), n, 8)}
    assert homs[v] == {v: 1, w: _skew_dimension(v, w, n)}


def test_closed_form_computes_each_translated_component_once(monkeypatch):
    # Grass(4, 9): 5,292 contained pairs, 948 distinct nonempty components up to translation
    calls = count_calls(monkeypatch, "_skew_dimension")
    coll.ext_table(coll.kapranov_collection(4, 9))
    assert len(calls) == len(set(calls)) == 948
    assert all(mu[-1] == 0 < lam[-1] for lam, mu, _n in calls)  # nonempty, shifted to end in w_r = 0


def test_beilinson_range_keeps_higher_ext_witness():
    report = coll.verify_tilting(coll.beilinson_collection(3, range(5)))
    assert not report.passed
    # Ext^3(O(4), O) = H^3(P^3, O(-4)) = k
    assert report.higher_ext_witness == (4, 0, 3, 1)


def test_one_weyl_walk_per_distinct_weight(monkeypatch):
    # in-box pairs take the closed form, so the walks come from out-of-bound
    # pairs: one relative walk per distinct key ("push", delta, rank, duals)
    spec = walk_routed_collection()
    deltas = {
        delta
        for (v,) in spec.labels
        for (w,) in spec.labels
        if out_of_bound(2, 5, v, w)
        for delta in product_expand([v, dual_weight(w)], 2)
    }
    reference = unmemoized_ext_table(spec)
    walked = []
    walk = bwb.dotted_weyl

    def counted(weight):
        walked.append(tuple(weight))
        return walk(weight)

    monkeypatch.setattr(bwb, "dotted_weyl", counted)
    assert coll.ext_table(spec) == reference
    assert len(walked) == len(set(walked)) == len(deltas)
    assert set(walked) == {delta + (0, 0, 0) for delta in deltas}
    walked.clear()
    coll.ext_table(coll.kapranov_collection(2, 5))
    assert walked == []


def test_no_memo_survives_ext_table(monkeypatch):
    spec = walk_routed_collection()  # in-box pairs never walk, so none could raise
    reference = unmemoized_ext_table(spec)
    walk = bwb.dotted_weyl
    calls = []

    def failing(weight):
        calls.append(weight)
        if len(calls) > 3:
            raise ArithmeticError("walk failed")
        return walk(weight)

    monkeypatch.setattr(bwb, "dotted_weyl", failing)
    with pytest.raises(ArithmeticError):
        coll.ext_table(spec)
    # every table build, and every call outside one, walks afresh
    monkeypatch.setattr(bwb, "dotted_weyl", lambda weight: calls.append(weight) or walk(weight))
    # (0, 0), (3, 0) is out of bound on Grass(2, 4), so its one-pair sweep walks
    for build, expected in ((lambda: coll.ext_table(spec), reference),
                            (lambda: coll.schur_pair_ext(2, 4, (0, 0), (3, 0)), {2: 4})):
        calls.clear()
        assert build() == expected
        walks = len(calls)
        assert build() == expected
        assert len(calls) == 2 * walks > 0


def reference_chain(ranked, src, tgt):
    """The stage chain of one pair, unmemoized: every item of every stage re-expanded.

    Returns {(Ext degree, root degree): multiplicity}.
    """
    out = {}
    for gamma, s, deg, mult in reference_items(ranked, src, tgt):
        if gamma is not None:
            raise ArithmeticError(f"weight {gamma} was never pushed down to the root")
        out[(s, deg)] = out.get((s, deg), 0) + mult
    return dict(sorted(out.items()))


def reference_items(ranked, src, tgt):
    """The (gamma, Ext degree, root degree, multiplicity) items left after every stage.

    Each weight delta on a stage is pushed down by the relative walk of
    (delta, 0^(rank - l)).  On the top stages of a tower, `ranked[k:]` with
    label suffixes, they are the items those stages hand to stage k - 1.
    """
    items = [(None, 0, 0, 1)]
    for k in range(len(ranked) - 1, -1, -1):
        st, rank = ranked[k]
        lam, mu = as_weight(src[k], st.l), as_weight(tgt[k], st.l)
        next_items = []
        for gamma, s, deg, mult in items:
            factors = [lam, dual_weight(mu)]
            if gamma is not None:
                factors.insert(0, as_weight(gamma, st.l))
            for delta, c in product_expand(factors, st.l).items():
                walked = bwb.dotted_weyl(delta + (0,) * (rank - st.l))
                if walked is None:
                    continue
                inversions, dom = walked
                if not st.taut:
                    duals = tuple(-d for d in st.split_degrees)
                    for w, cc in split_bundle_expand(dom, duals).items():
                        next_items.append((None, s + inversions, deg + w, mult * c * cc))
                else:
                    next_items.append((dom, s + inversions, deg, mult * c))
        items = next_items
    return items


def reference_flag_stages(n, steps):
    """Flag(steps; n) as root-first (stage, ambient rank) pairs, ranks worked out here."""
    ranked = [(coll.GrassFiber(steps[-1], (0,) * n), n)]
    for l, above in zip(reversed(steps[:-1]), reversed(steps[1:])):
        ranked.append((coll.GrassFiber(l), above))
    return tuple(ranked)


def reference_candidate_ext_table(plan):
    """Candidate Ext table with one unmemoized chain per Grass segment of every pair.

    Ranks, fiber objects, summands and the dimension are worked out here, not
    taken from the code under test.
    """
    root = plan.root
    layers = plan.layers
    top = len(layers) - 1
    segments = []  # (table fiber, None, [layer]) or (None, (stage, rank) pairs, [layers])
    objects = []  # per layer, bottom-first
    dim = root.dim
    for k, (fiber, _twist) in enumerate(layers):
        if isinstance(fiber, fib.TableFiber):
            segments.append((fiber, None, [k]))
            objects.append(list(range(len(fiber.labels))))
            continue
        if fiber.taut:
            _, ranked, ks = segments[-1]
            rank = ranked[-1][0].l
            segments[-1] = (None, ranked + ((fiber, rank),), ks + [k])
        else:
            rank = len(fiber.split_degrees)
            segments.append((None, ((fiber, rank),), [k]))
        objects.append(reversed_box(fiber.l, rank - fiber.l))
        dim += fiber.l * (rank - fiber.l)
    summands = list(iter_product(*reversed(objects), root.tilting_degrees))
    dims = {}
    for ia, A in enumerate(summands):
        for ib, B in enumerate(summands):
            counter = {(0, 0): 1}
            for table, ranked, ks in segments:
                if table is not None:
                    part = {(0, deg): m
                            for deg, m in table.pushforward(B[top - ks[0]], A[top - ks[0]]).items()}
                else:
                    part = reference_chain(ranked, tuple(A[top - k] for k in ks),
                                           tuple(B[top - k] for k in ks))
                convolved = {}
                for (sa, da), ma in counter.items():
                    for (sb, db), mb in part.items():
                        key = (sa + sb, da + db)
                        convolved[key] = convolved.get(key, 0) + ma * mb
                counter = convolved
            if not counter:
                continue
            shift = B[-1] - A[-1]
            for k, (fiber, twist) in enumerate(layers):
                objs = objects[k]
                shift += twist * (objs.index(B[top - k]) - objs.index(A[top - k]))
            for (s, deg), mult in counter.items():
                res = bwb.pn_line_cohomology(shift + deg, root.dim)
                if res is not None:
                    key = (ia, ib, s + res.degree)
                    dims[key] = dims.get(key, 0) + mult * res.dimension
    return coll.ExtTable(len(summands), dim, dims)


def swept_chain(ranked, src, tgt, memo):
    """The chain of one pair through the sweep, {} when it is zero."""
    return swept_chains(ranked, (src,), memo, (tgt,)).get((src, tgt), {})


def swept_chains(ranked, labels, memo, targets=None):
    """{(source, target): chain} over the pairs with a nonzero chain, in one sweep.

    The sources are `labels`, and so are the targets unless `targets` is
    given.  Each entry of the sweep is one computed chain with the label
    pairs it covers, and no pair is covered twice.
    """
    targets = labels if targets is None else targets
    swept = {}
    for pairs, chain in coll._sweep(ranked, labels, targets, memo):
        assert pairs and chain
        for p, q in pairs:
            assert (labels[p], targets[q]) not in swept
            swept[labels[p], targets[q]] = chain
    return swept


def transfer_keys(memo):
    return [key for key in memo if key[0] == "transfer"]


def count_calls(monkeypatch, name):
    """Count the calls the chain makes to `collections.<name>`."""
    calls = []
    fn = getattr(coll, name)
    monkeypatch.setattr(coll, name, lambda *args: calls.append(args) or fn(*args))
    return calls


@pytest.mark.parametrize("n, steps", [(3, (1, 2)), (4, (1, 2, 3)), (4, (1, 3)), (5, (2, 3))])
def test_memoized_chain_matches_reference_per_pair(monkeypatch, n, steps):
    spec = coll.flag_collection(bwb.FlagSpace(n, steps))
    ranked = reference_flag_stages(n, steps)
    assert coll._flag_stages(spec.space) == ranked
    labels = [tuple(reversed(lab)) for lab in spec.labels]
    expected = {(i, j): reference_chain(ranked, li, lj)
                for i, li in enumerate(labels) for j, lj in enumerate(labels)}
    expansions = count_calls(monkeypatch, "product_expand")
    memo = {}
    swept = swept_chains(ranked, labels, memo)
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            assert swept.pop((li, lj), {}) == expected[i, j], (li, lj)
    assert swept == {}  # one chain per pair, and only the nonzero ones
    # one expansion per distinct stage input, shared by every pair: a taut
    # stage expands its Hom content per transfer, the split root of equal
    # degrees gamma (x) lam per (gamma, lam), and every root term is in bound
    expanded = [key for key in memo
                if key[0] == "expand" or key[0] == "transfer" and ranked[key[1]][0].taut]
    assert len(expansions) == len({repr(args) for args in expansions}) == len(expanded) < len(labels) ** 2
    assert {key[1] for key in memo if key[0] == "expand"} == {0}
    assert not [key for key in memo if key[0] == "push" and key[3] is not None]  # no root walk
    dims = {}
    for (i, j), degs in expected.items():
        for (s, _deg), mult in degs.items():
            dims[(i, j, s)] = dims.get((i, j, s), 0) + mult
    assert coll.ext_table(spec) == coll.ExtTable(len(labels), spec.space.dimension(), dims)


def plan_twists():
    """The shipped plans, five mixed plans and two of equal split degrees, at every twist up to their cap."""
    plans = []
    for name in ("hirzebruch_plan.json", "flag_1_2_3_plan.json", "sp4_borel_split_plan.json"):
        payload = json.loads((DATA / name).read_text(encoding="utf-8"))
        plans.append((name[:-10], *fib.parse_plan(payload)))
    conic = fib.parse_fiber_table((DATA / "conic_fiber.json").read_text(encoding="utf-8"))
    plans.append(("conic", fib.BaseModel(1), [conic], 3))
    plans.append(("grass-conic", fib.BaseModel(1), [fib.GrassFiber(1, (0, 1)), conic], 3))
    # a table stage below, and between, split Grass stages of the one chain
    plans.append(("conic-grass", fib.BaseModel(1), [conic, fib.GrassFiber(1, (0, 1))], 2))
    plans.append(("grass-conic-grass", fib.BaseModel(1),
                  [fib.GrassFiber(1, (0, 1)), conic, fib.GrassFiber(1, (0, 2))], 1))
    # two split segments: stage 0 of each, with equal ranks and labels
    split_twice = [fib.GrassFiber(1, (0, 1)), fib.GrassFiber(1, (0, 2))]
    plans.append(("grass-grass", fib.BaseModel(1), split_twice, 2))
    # split stages of equal degrees d != 0: the closed form's root shift -d(|alpha| - |mu|)
    plans.append(("equal-111-taut", fib.BaseModel(1), [fib.GrassFiber(1, (1, 1, 1)), fib.GrassFiber(1)], 2))
    plans.append(("equal-2222-taut", fib.BaseModel(2), [fib.GrassFiber(2, (2, 2, 2, 2)), fib.GrassFiber(1)], 2))
    for name, root, stages, cap in plans:
        for twists in iter_product(range(cap + 1), repeat=len(stages)):
            yield pytest.param(root, stages, twists, id=f"{name}-{twists}")


@pytest.mark.parametrize("root, stages, twists", plan_twists())
def test_candidate_table_matches_reference(root, stages, twists):
    plan = fib.FibrationPlan(root, zip(stages, twists))
    assert fib.candidate_ext_table(plan) == reference_candidate_ext_table(plan)


@st.composite
def equal_degree_chains(draw):
    """(ranked, src, tgt): one split stage of equal degrees, sometimes with a taut stage on top.

    The split stage has rank r <= 6, l < r and degrees d in [-2, 2]; weights
    are extended, with entries in [-4, 4].
    """
    rank = draw(st.integers(2, 6))
    l = draw(st.integers(1, rank - 1))
    stages = [coll.GrassFiber(l, (draw(st.integers(-2, 2)),) * rank)]
    if l > 1 and draw(st.booleans()):
        stages.append(coll.GrassFiber(draw(st.integers(1, l - 1))))
    ranked = coll.rank_stages(stages)

    def label():
        return tuple(tuple(sorted(draw(st.lists(st.integers(-4, 4), min_size=stage.l, max_size=stage.l)),
                                  reverse=True)) for stage, _rank in ranked)

    return ranked, label(), label()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(equal_degree_chains())
@example((coll.rank_stages((coll.GrassFiber(2, (1,) * 4),)), ((1, 0),), ((0, 0),)))  # in bound
@example((coll.rank_stages((coll.GrassFiber(2, (-1,) * 4),)), ((0, 0),), ((3, 0),)))  # out of bound
@example((coll.rank_stages((coll.GrassFiber(3, (2,) * 5), coll.GrassFiber(1))),
          ((1, 1, 0), (2,)), ((0, 0, 0), (0,))))
def test_closed_form_transfer_matches_the_walk(case):
    # the swept chain takes the closed form on in-bound terms; the reference walks every term
    ranked, src, tgt = case
    assert swept_chain(ranked, src, tgt, {}) == reference_chain(ranked, src, tgt)


def test_candidate_table_expands_each_transfer_once(monkeypatch):
    root, stages, _cap = fib.parse_plan(
        json.loads((DATA / "flag_1_2_3_plan.json").read_text(encoding="utf-8")))
    plan = fib.FibrationPlan(root, ((stages[0], 0), (stages[1], 0)))
    reference = reference_candidate_ext_table(plan)
    transfers = count_calls(monkeypatch, "_transfer")
    expansions = count_calls(monkeypatch, "product_expand")
    assert fib.candidate_ext_table(plan) == reference
    # a transfer's arguments, its memo aside, are its memo key; the taut stage
    # expands per transfer, the split stage of equal degrees per (gamma, lam)
    distinct = {args[:-1] for args in transfers if args[2] is not None}
    taut = [args for args in distinct if args[1].taut]
    sources = {(k, gamma, lam) for k, st, _rank, gamma, lam, _mu in distinct if not st.taut}
    assert all(gamma is not None for _k, gamma, _lam in sources)
    assert len(expansions) == len({repr(args) for args in expansions}) == len(taut) + len(sources)
    assert len(expansions) < len(plan.summands()) ** 2


@pytest.mark.parametrize("d, n", [(2, 4), (2, 5), (3, 6)])
def test_one_split_stage_over_a_point_is_the_kapranov_table(d, n):
    # over a point the split degrees do not matter: every pair meets H^0 of a point
    expected = coll.ext_table(coll.kapranov_collection(d, n))
    for degrees in ((0,) * n, tuple(range(n)), (3,) + (0,) * (n - 1)):
        plan = fib.FibrationPlan(fib.BaseModel(0), ((fib.GrassFiber(d, degrees), 0),))
        assert fib.candidate_ext_table(plan) == expected, degrees


def test_twist_search_expands_each_transfer_once(monkeypatch):
    # each twist tried is one plan, whose one table build expands each transfer once
    fiber = fib.GrassFiber(2, (0, 1, 2, 3))
    expansions = count_calls(monkeypatch, "product_expand")
    fib.FibrationPlan(fib.BaseModel(1), ((fiber, 0),))
    assert len(expansions) == 36
    root = fib.FibrationPlan(fib.BaseModel(1))
    expansions.clear()
    plan = fib.twist_search(root, fiber, 8)
    assert plan.verified and plan.layers == ((fiber, 3),)
    assert len(expansions) == 4 * 36


def test_flag_table_splits_each_delta_once(monkeypatch):
    # a flag's split root has equal degrees: every root term takes the closed form
    spec = coll.flag_collection(bwb.FlagSpace(6, (1, 3, 5)))
    splits = count_calls(monkeypatch, "split_bundle_expand")
    report = coll.verify_tilting(spec, coll.ext_table(spec))
    assert report.passed
    assert splits == []
    # with distinct root degrees the root walks, and its transfers share their
    # deltas: one split expansion per distinct delta that survives its walk
    lower, upper = fib.GrassFiber(3, (0, 1, 2, 3, 4)), fib.GrassFiber(1)
    plan = fib.FibrationPlan(fib.BaseModel(0), ((lower, 0), (upper, 0)))
    assert plan.table == reference_candidate_ext_table(plan)
    deltas = set()
    for a, b in iter_product(reversed_box(1, 2), repeat=2):
        for gamma, *_ in reference_items(((upper, 3),), (a,), (b,)):
            for lam, mu in iter_product(reversed_box(3, 2), repeat=2):
                deltas.update(product_expand([gamma, lam, dual_weight(mu)], 3))
    walked = {delta for delta in deltas if bwb.dotted_weyl(delta + (0, 0)) is not None}
    assert len(splits) == len(set(splits)) == len(walked) > 0


def test_sweep_folds_each_suffix_pair_once(monkeypatch):
    # stage k folds each live (source suffix, target suffix) pair above it
    # once.  Live pairs whose items and stage-k weights agree form one group,
    # which makes one transfer per item for each pair of its stage-k weights.
    # The top stage folds once per distinct top-weight pair, 9 transfers
    # where a chain per object pair made 32,400.
    n, steps = 6, (1, 3, 5)
    spec = coll.flag_collection(bwb.FlagSpace(n, steps))
    ranked = reference_flag_stages(n, steps)
    labels = [tuple(reversed(lab)) for lab in spec.labels]
    transfers = count_calls(monkeypatch, "_transfer")
    fold = coll._fold
    folded = Counter()  # (stage, source suffix, target suffix) -> times handed on

    def counted(k, st, rank, *args):
        # a suffix is named by the position of the first label carrying it
        for pairs, items in fold(k, st, rank, *args):
            for p, q in pairs:
                folded[st, labels[p][k:], labels[q][k:]] += 1
            yield pairs, items

    monkeypatch.setattr(coll, "_fold", counted)
    assert coll.verify_tilting(spec, coll.ext_table(spec)).passed
    assert set(folded.values()) == {1}
    # a transfer names its stage by position k in the stage list
    assert all(args[1] == ranked[args[0]][0] for args in transfers)
    per_stage = Counter(ranked[args[0]][0] for args in transfers)
    assert per_stage[ranked[-1][0]] == 9
    for k in range(len(ranked) - 1):
        heads = {}  # suffix from stage k + 1 -> the stage-k weights extending it
        for lab in labels:
            heads.setdefault(lab[k + 1:], {})[lab[k]] = None
        groups, live = set(), set()
        for a, b in iter_product(heads, repeat=2):
            items = Counter()
            for gamma, s, deg, mult in reference_items(ranked[k + 1:], a, b):
                items[gamma, s, deg] += mult
            if items:
                live.add((a, b))
                groups.add((frozenset(items.items()), tuple(heads[a]), tuple(heads[b])))
        assert per_stage[ranked[k][0]] == sum(len(lams) * len(mus) * len(items)
                                               for items, lams, mus in groups), k
        # only the pairs with items are handed on: an empty one is pruned
        assert {(v, w) for st, v, w in folded if st == ranked[k + 1][0]} == live, k
        assert len(groups) < len(live), k  # 51 groups of 366 live pairs at the root
    assert sum(per_stage.values()) == len(transfers) == 4_341


def test_candidate_table_sweeps_each_label_pair_once(monkeypatch):
    # a summand repeats its fiber label once per root degree of P^2: the one
    # stage folds each distinct label pair once, 9 times rather than 81
    plan = fib.FibrationPlan(fib.BaseModel(2), ((fib.GrassFiber(2, (0, 1, 3)), 1),))
    fiber_labels = [A[:-1] for A in plan.summands()]
    assert len(fiber_labels) == 3 * len(set(fiber_labels)) == 9
    reference = reference_candidate_ext_table(plan)
    assert reference.higher_entries() and reference.get(0, 0, 0) == 1
    transfers = count_calls(monkeypatch, "_transfer")
    assert fib.candidate_ext_table(plan) == reference
    assert len(transfers) == len(set(fiber_labels)) ** 2 == 9


def recorded_sweeps(monkeypatch):
    """Record each (pairs, chain) `_sweep` hands over, and each time a chain is read whole.

    The root step reads a chain's items once per shift difference it maps it at.
    """
    entries, reads = [], []
    sweep = coll._sweep

    class Chain(dict):
        def items(self):
            reads.append(self)
            return super().items()

    def recorded(*args):
        for pairs, chain in sweep(*args):
            entries.append((pairs, chain))
            yield pairs, Chain(chain)

    monkeypatch.setattr(coll, "_sweep", recorded)
    return entries, reads


def test_sweep_hands_each_chain_over_once(monkeypatch):
    # Fl(1,3,5;6): 1,604 computed chains cover the 10,414 label pairs with a
    # nonzero Hom, each pair once; over a point every shift difference is 0,
    # so the root step maps each chain once
    spec = coll.flag_collection(bwb.FlagSpace(6, (1, 3, 5)))
    entries, reads = recorded_sweeps(monkeypatch)
    table = coll.ext_table(spec)
    covered = [pair for pairs, _chain in entries for pair in pairs]
    assert len(entries) == len(reads) == 1_604
    assert len(covered) == len(set(covered)) == 10_414
    assert set(covered) == {(i, j) for i, j, _s in table.dims}
    assert all(chain for _pairs, chain in entries)


def test_root_step_runs_once_per_chain_and_shift_difference(monkeypatch):
    # over P^1 a summand repeats its fiber label once per root degree, so a
    # label pair covers four index pairs, at three shift differences
    calls = []
    chain_table = fib._chain_table
    monkeypatch.setattr(fib, "_chain_table", lambda *args: calls.append(args) or chain_table(*args))
    entries, reads = recorded_sweeps(monkeypatch)
    plan = fib.FibrationPlan(fib.BaseModel(1), ((fib.GrassFiber(2, (0, 1, 3)), 1),))
    assert plan.table == reference_candidate_ext_table(plan)
    [(_ranked, labels, _root_dim, shifts)] = calls
    at = {}
    for i, lab in enumerate(labels):
        at.setdefault(lab, []).append(i)
    at = list(at.values())
    diffs = [{shifts[j] - shifts[i] for p, q in pairs for i in at[p] for j in at[q]}
             for pairs, _chain in entries]
    index_pairs = sum(len(at[p]) * len(at[q]) for pairs, _chain in entries for p, q in pairs)
    assert len(reads) == sum(map(len, diffs)) == 3 * len(entries) < index_pairs == 4 * len(entries)


def test_sweep_refuses_a_weight_never_pushed_to_the_root():
    # a tautological stage at the root has no stage below to take its weight
    ranked = ((coll.GrassFiber(1), 2),)
    with pytest.raises(ArithmeticError, match="never pushed down to the root"):
        list(coll._sweep(ranked, (((0,),),), (((0,),),), {}))


def test_chain_reports_higher_direct_images():
    # Grass(2, 4) over a point: weights below -(rank - l) push down in the
    # degree and to the dominant weight of their walk, as the absolute walk has it
    stages = (coll.GrassFiber(2, (0, 0, 0, 0)),)
    assert absolute_pair_ext(2, 4, (0, 0), (3, 0)) == {2: 4}
    assert absolute_pair_ext(2, 4, (0, 0), (3, 3)) == {}
    assert coll.tower_hom_degrees(stages, ((0, 0),), ((3, 0),)) == {(2, 0): 4}
    assert coll.tower_hom_degrees(stages, ((0, 0),), ((3, 3),)) == {}
    # H^1(P^1, O(-5)) = k^4 over the root of a split stage
    assert reference_chain(((coll.GrassFiber(1, (0, 0)), 2),), ((0,),), ((5,),)) == {(1, 0): 4}


def test_failing_transfer_is_not_cached(monkeypatch):
    # a raising walk or expansion leaves no memo entry of its own, and the
    # same memo then computes the chain afresh
    ranked = coll.rank_stages((coll.GrassFiber(1, (0, 0)),))  # (0,), (5,) is out of bound: it walks
    expand = coll.product_expand

    def failing(factors, rank):
        raise ArithmeticError("expansion failed")

    memo = {}
    monkeypatch.setattr(coll, "product_expand", failing)
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            swept_chain(ranked, ((0,),), ((5,),), memo)
    assert memo == {}
    monkeypatch.setattr(coll, "product_expand", expand)
    assert swept_chain(ranked, ((0,),), ((5,),), memo) == {(1, 0): 4}
    # gamma (x) lam, or s_{alpha/mu}, raising on the split root of equal degrees
    ranked = reference_flag_stages(4, (1, 2))
    src, tgt = ((2, 2), (1,)), ((2, 1), (0,))
    expected = reference_chain(ranked, src, tgt)
    for name, kind in (("product_expand", "expand"), ("_skew_dimension", "skew")):
        fn = getattr(coll, name)

        def failing_at_root(*args, fn=fn):
            if args[-1] in (2, 4):  # the root's l (expansions) or rank (skew dimensions)
                raise ArithmeticError("root failed")
            return fn(*args)

        memo = {}
        monkeypatch.setattr(coll, name, failing_at_root)
        with pytest.raises(ArithmeticError):
            swept_chain(ranked, src, tgt, memo)
        assert memo and not [key for key in memo if key[0] == kind or key[:2] == ("transfer", 0)]
        monkeypatch.setattr(coll, name, fn)
        assert swept_chain(ranked, src, tgt, memo) == expected
    # a transfer that raises halfway through its split-stage expansions
    ranked = coll.rank_stages((coll.GrassFiber(2, (0, 1, 2, 3)), coll.GrassFiber(1)))
    expected = reference_chain(ranked, src, tgt)
    expand = coll.split_bundle_expand
    calls = []

    def failing_once(delta, degrees):
        calls.append(delta)
        if len(calls) == 2:  # its stage-0 transfer expands twice
            raise ArithmeticError("expansion failed")
        return expand(delta, degrees)

    memo = {}
    monkeypatch.setattr(coll, "split_bundle_expand", failing_once)
    with pytest.raises(ArithmeticError):
        swept_chain(ranked, src, tgt, memo)
    assert all(key[1] != 0 for key in transfer_keys(memo))
    assert len([key for key in memo if key[0] == "push" and key[3] is not None]) == 1
    assert swept_chain(ranked, src, tgt, memo) == expected
    assert len(calls) == 3


def test_no_memo_survives_chain_tables(monkeypatch):
    flag = coll.flag_collection(bwb.FlagSpace(3, (1, 2)))
    root, stages, _cap = fib.parse_plan(
        json.loads((DATA / "flag_1_2_3_plan.json").read_text(encoding="utf-8")))
    plan = fib.FibrationPlan(root, ((stages[0], 0), (stages[1], 0)))
    table = coll.ext_table(flag)
    assert fib.candidate_ext_table(plan) == table
    expand = coll.product_expand
    calls = []

    def failing(factors, rank):
        calls.append(factors)
        if len(calls) > 5:
            raise ArithmeticError("expansion failed")
        return expand(factors, rank)

    builds = (lambda: coll.ext_table(flag), lambda: fib.candidate_ext_table(plan))
    monkeypatch.setattr(coll, "product_expand", failing)
    for build in builds:
        calls.clear()
        with pytest.raises(ArithmeticError):
            build()
    # every table build, and every chain outside one, expands afresh
    monkeypatch.setattr(coll, "product_expand", expand)
    expansions = count_calls(monkeypatch, "product_expand")
    ranked = coll._flag_stages(flag.space)
    stages = tuple(st for st, _rank in ranked)
    src, tgt = ((0, 0), (0,)), ((1, 1), (1,))
    per_pair = (lambda: coll.tower_hom_degrees(stages, src, tgt), reference_chain(ranked, src, tgt))
    for build, expected in ((builds[0], table), (builds[1], table), per_pair):
        expansions.clear()
        assert build() == expected
        once = len(expansions)
        assert build() == expected
        assert len(expansions) == 2 * once > 0


@pytest.mark.parametrize(
    "d, v, w",
    [
        (2, (1, 2), ()),  # not non-increasing
        (2, (), (1, 1, 1)),  # longer than d
        (3, (1, -1), (0,)),  # a negative entry before the zero padding
    ],
)
def test_schur_pair_ext_rejects_bad_weights(d, v, w):
    with pytest.raises(ValueError):
        coll.schur_pair_ext(d, 5, v, w)


def det_hom_bundle(space, src, tgt):
    """Hom(src, tgt) for labels whose stage weights are constant, as one line bundle.

    Stage k carries det(R_k)^c, and det R_k = det D_1 (x) ... (x) det D_k,
    so the block of D_i^dual is the sum over k >= i of (src_k - tgt_k).
    """
    diffs = [a[0] - b[0] for a, b in zip(src, tgt)]
    *blocks, last = space.block_lengths
    return bwb.HomogeneousBundle(
        space, tuple((sum(diffs[i:]),) * size for i, size in enumerate(blocks)) + ((0,) * last,))


def test_flag_collection_with_out_of_box_label_fails():
    # negative control: ((-1,), (-1, -1)) lies outside the stage boxes of Flag(1, 2; 3)
    space = bwb.FlagSpace(3, (1, 2))
    labels = coll.flag_collection(space).labels + (((-1,), (-1, -1)),)
    report = coll.verify_tilting(coll.CollectionSpec(space, labels))
    assert not report.passed
    assert report.higher_ext_witness == (6, 0, 3, 1)
    # Ext^3(E_6, E_0) = H^3(R_1^2 (x) det R_2^2), by the absolute walk
    res = bwb.flag_cohomology(det_hom_bundle(space, labels[6], labels[0]))
    assert (res.degree, res.dimension) == (3, 1)


def test_chain_matches_flag_cohomology_on_det_power_labels():
    # an independent check of the flag chain in every degree: with constant
    # stage weights, Hom is a line bundle the multi-block walk computes whole
    rng = random.Random(20151018)
    higher = 0
    for n, steps in [(3, (1, 2)), (4, (1, 3)), (5, (2, 3)), (4, (1, 2, 3))]:
        space = bwb.FlagSpace(n, steps)
        for _ in range(40):
            src, tgt = (tuple((rng.randint(-4, 4),) * l for l in steps) for _ in range(2))
            labels = (src, tgt) if src != tgt else (src,)
            table = coll.ext_table(coll.CollectionSpec(space, labels))
            for (i, a), (j, b) in iter_product(enumerate(labels), repeat=2):
                res = bwb.flag_cohomology(det_hom_bundle(space, a, b))
                expected = {} if res is None else {res.degree: res.dimension}
                assert {s: x for (p, q, s), x in table.dims.items() if (p, q) == (i, j)} == expected
                higher += bool(res is not None and res.degree > 0)
    assert higher > 0


def test_beilinson_p3_end_dimension():
    # sum over 0 <= i <= j <= 3 of C(3 + j - i, 3): 4 + 12 + 20 + 20
    report = coll.verify_tilting(coll.beilinson_collection(3))
    assert report.end_algebra_dim == 56


def test_end_quiver_dims():
    # quiver dimension data of a verified collection: its report's Hom matrix
    for spec, matrix in [
        (coll.beilinson_collection(1), ((1, 2), (0, 1))),
        (coll.beilinson_collection(2), ((1, 3, 6), (0, 1, 3), (0, 0, 1))),
        (coll.beilinson_collection(2, degrees=(0,)), ((1,),)),
    ]:
        report = coll.verify_tilting(spec)
        assert report.passed and report.hom_matrix == matrix
    assert not coll.verify_tilting(coll.beilinson_collection(1, degrees=(0, -1))).passed


def test_kapranov_sweep_small():
    for n in range(2, 6):
        for d in range(1, n):
            report = coll.verify_tilting(coll.kapranov_collection(d, n))
            assert report.passed
            assert report.k0_rank == comb(n, d)


def test_collection_spec_validation():
    space = bwb.grassmannian(2, 4)
    with pytest.raises(ValueError):
        coll.CollectionSpec(space, (((0, 0),), ((0, 0),)))
    with pytest.raises(ValueError):
        coll.CollectionSpec(space, (((0, 0),),), multiplicities=(0,))
    with pytest.raises(ValueError):
        coll.CollectionSpec(space, (((0, 0), (0,)),))


@pytest.mark.parametrize("space", [bwb.grassmannian(2, 4), bwb.FlagSpace(3, (1, 2)),
                                   bwb.FlagSpace(4, (1, 2, 3))],
                         ids=["grass-2-4", "flag-1-2-3", "flag-1-2-3-4"])
def test_empty_collection_has_empty_table(space):
    spec = coll.CollectionSpec(space, ())
    table = coll.ext_table(spec)
    assert table == coll.ExtTable(0, space.dimension()) and table.dims == {}
    assert table.max_degree == space.dimension()
    report = coll.verify_tilting(spec)
    assert report.passed and report.k0_rank == 0 and report.end_algebra_dim == 0
    assert report.hom_matrix == () and report.higher_ext_witness is None


def probing_verify_tilting(spec, table):
    """The reported values of the tilting predicate by probing every (i, j, s), pair by pair."""
    n_obj = table.size
    higher = next(((i, j, s, v) for (i, j, s), v in sorted(table.dims.items()) if s > 0 and v), None)
    exceptional_each = all(table.get(i, i, 0) == 1 for i in range(n_obj)) and not any(
        table.get(i, i, s) for i in range(n_obj) for s in range(1, table.max_degree + 1))
    tri = next(((i, j) for i in range(n_obj) for j in range(i) if table.get(i, j, 0)), None)
    mults = spec.multiplicities
    end_dim = sum(mults[i] * mults[j] * table.get(i, j, 0)
                  for i in range(n_obj) for j in range(n_obj))
    return dict(
        is_strong_exceptional=higher is None and exceptional_each and tri is None,
        is_exceptional_each=exceptional_each,
        triangularity_witness=tri,
        higher_ext_witness=higher,
        k0_rank=n_obj,
        end_algebra_dim=end_dim,
        hom_matrix=tuple(tuple(table.get(i, j, 0) for j in range(n_obj)) for i in range(n_obj)),
        order_note=spec.order_note,
        generation_note=coll.GENERATION_NOTE,
    )


DIAGONAL = {(0, 0, 0): 1, (1, 1, 0): 1, (2, 2, 0): 1}


@pytest.mark.parametrize("spec, dims", [
    pytest.param(coll.kapranov_collection(2, 4), None, id="kapranov-2-4"),
    pytest.param(coll.kapranov_collection(3, 6), None, id="kapranov-3-6"),
    pytest.param(coll.flag_collection(bwb.FlagSpace(4, (1, 3))), None, id="flag-1-3-4"),
    pytest.param(coll.beilinson_collection(3), None, id="beilinson-3"),
    pytest.param(coll.CollectionSpec(bwb.grassmannian(2, 4),
                                     coll.kapranov_collection(2, 4).labels[::-1]),
                 None, id="kapranov-reversed"),
    pytest.param(coll.beilinson_collection(2, range(4)), None, id="beilinson-control-2"),
    pytest.param(coll.beilinson_collection(3, range(5)), None, id="beilinson-control-3"),
    pytest.param(coll.CollectionSpec(bwb.grassmannian(2, 4),
                                     tuple((w,) for w in reversed_box(2, 3))),
                 None, id="grown-box"),
    pytest.param(coll.CollectionSpec(bwb.FlagSpace(3, (1, 2)),
                                     coll.flag_collection(bwb.FlagSpace(3, (1, 2))).labels
                                     + (((-1,), (-1, -1)),)),
                 None, id="flag-out-of-box"),
    pytest.param(coll.kapranov_collection(2, 4).with_multiplicities((1, 2, 3, 4, 5, 6)),
                 None, id="kapranov-multiplicities"),
    pytest.param(coll.beilinson_collection(2, range(4)).with_multiplicities((3, 1, 4, 1)),
                 None, id="beilinson-control-multiplicities"),
    # hand-built tables with explicit zero entries, on three objects in P^2
    pytest.param(coll.beilinson_collection(2),
                 {**DIAGONAL, (0, 1, 0): 3, (1, 0, 0): 0, (2, 0, 0): 0, (1, 1, 1): 0, (0, 2, 2): 0},
                 id="zeros-passing"),
    pytest.param(coll.beilinson_collection(2).with_multiplicities((2, 1, 3)),
                 {**DIAGONAL, (1, 1, 0): 0, (2, 0, 0): 0, (2, 1, 0): 5, (0, 1, 2): 0,
                  (2, 2, 1): 4, (0, 2, 1): 0},
                 id="zeros-failing"),
    pytest.param(coll.beilinson_collection(2), {**DIAGONAL, (0, 0, 0): 2}, id="diagonal-hom-two"),
    pytest.param(coll.beilinson_collection(2), {**DIAGONAL, (1, 1, 3): 1, (1, 1, -1): 1},
                 id="diagonal-outside-degrees"),
])
def test_verify_tilting_matches_probing_predicate(spec, dims):
    table = coll.ext_table(spec) if dims is None else coll.ExtTable(len(spec), 2, dims)
    report = coll.verify_tilting(spec, table)
    probed = probing_verify_tilting(spec, table)
    assert tuple(probed) == coll.VerificationReport.REPORTED
    assert {name: getattr(report, name) for name in probed} == probed
    assert report.passed == probed["is_strong_exceptional"]
    assert report == coll.VerificationReport(spec, table) and report.table is table
