import importlib.resources as resources
import json
import random
from contextlib import contextmanager, nullcontext
from itertools import product as iter_product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltcheck import bwb
from tiltcheck import collections as coll
from tiltcheck import fibration as fib
from tiltcheck.partitions import enumerate_box_partitions, normalize
from tiltcheck.schur import as_weight, dual_weight, lr_expand, product_expand, split_bundle_expand

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
    table = coll.ext_table(coll.kapranov_collection(1, 2))
    assert table.hom_matrix() == [[1, 2], [0, 1]]
    assert not list(table.higher_entries())


def test_beilinson_collection_matrices():
    table = coll.ext_table(coll.beilinson_collection(2))
    assert table.hom_matrix() == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]
    report = coll.verify_tilting(coll.beilinson_collection(2), table)
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
            chi = table.euler(i, j)
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


def test_flag_collection_counts():
    assert len(coll.flag_collection(bwb.FlagSpace(3, (1, 2))).labels) == 6
    assert len(coll.flag_collection(bwb.FlagSpace(5, (1,))).labels) == 5
    assert len(coll.flag_collection(bwb.FlagSpace(4, (1, 2, 3))).labels) == 24


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
            assert table.euler(i, j) == bwb.localization_euler(a, b, d, n), (a, b)


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
    chain = coll._chain
    chained = []

    def counted(ranked, src, tgt):
        chained.append(src + tgt)
        return chain(ranked, src, tgt)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coll, "_chain", counted)
        table = coll.ext_table(coll.CollectionSpec(bwb.grassmannian(d, n), labels))
    # one engine per pair: exactly the out-of-bound pairs take the chain
    pairs = [(a, b) for (a,) in labels for (b,) in labels]
    assert chained == [(a, b) for a, b in pairs if out_of_bound(d, n, a, b)]
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


def test_beilinson_range_keeps_higher_ext_witness():
    report = coll.verify_tilting(coll.beilinson_collection(3, range(5)))
    assert not report.passed
    # Ext^3(O(4), O) = H^3(P^3, O(-4)) = k
    assert report.higher_ext_witness == (4, 0, 3, 1)


def test_one_weyl_walk_per_distinct_weight(monkeypatch):
    # in-box pairs take the closed form, so the walks come from out-of-bound
    # pairs: one relative walk per distinct split key ("split", delta, duals)
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

    def counted(weight, rho):
        walked.append(tuple(weight))
        return walk(weight, rho)

    monkeypatch.setattr(bwb, "dotted_weyl", counted)
    assert coll.ext_table(spec) == reference
    assert len(walked) == len(set(walked)) == len(deltas)
    assert set(walked) == {delta + (0, 0, 0) for delta in deltas}
    walked.clear()
    coll.ext_table(coll.kapranov_collection(2, 5))
    assert walked == []


def test_no_memo_survives_ext_table(monkeypatch):
    spec = walk_routed_collection()  # in-box pairs never walk, so none could raise
    coll.ext_table(spec)
    assert coll._build_memo.get(None) is None
    walk = bwb.dotted_weyl
    calls = []

    def failing(weight, rho):
        calls.append(weight)
        if len(calls) > 3:
            raise ArithmeticError("walk failed")
        return walk(weight, rho)

    monkeypatch.setattr(bwb, "dotted_weyl", failing)
    with pytest.raises(ArithmeticError):
        coll.ext_table(spec)
    assert coll._build_memo.get(None) is None
    # outside a table build every call walks afresh
    calls.clear()
    monkeypatch.setattr(bwb, "dotted_weyl", lambda weight, rho: calls.append(weight) or walk(weight, rho))
    first = coll.schur_pair_ext(2, 4, (1,), (1,))
    walks = len(calls)
    assert coll.schur_pair_ext(2, 4, (1,), (1,)) == first
    assert len(calls) == 2 * walks > 0
    assert coll._build_memo.get(None) is None


def reference_chain(ranked, src, tgt):
    """The stage chain of one pair, unmemoized: every item of every stage re-expanded.

    Returns {(Ext degree, root degree): multiplicity}.  Each weight delta on a
    stage is pushed down by the relative walk of (delta, 0^(rank - l)).
    """
    items = [(None, 0, 0, 1)]
    for k in range(len(ranked) - 1, -1, -1):
        st, rank = ranked[k]
        lam, mu = as_weight(src[k], st.l), as_weight(tgt[k], st.l)
        rho = tuple(range(rank - 1, -1, -1))
        next_items = []
        for gamma, s, deg, mult in items:
            factors = [lam, dual_weight(mu)]
            if gamma is not None:
                factors.insert(0, as_weight(gamma, st.l))
            for delta, c in product_expand(factors, st.l).items():
                walked = bwb.dotted_weyl(delta + (0,) * (rank - st.l), rho)
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
    out = {}
    for gamma, s, deg, mult in items:
        if gamma is not None:
            raise ArithmeticError(f"weight {gamma} was never pushed down to the root")
        out[(s, deg)] = out.get((s, deg), 0) + mult
    return dict(sorted(out.items()))


def reference_flag_segment(n, steps):
    """Flag(steps; n) as root-first (stage, ambient rank) pairs, ranks worked out here."""
    ranked = [(coll.GrassFiber(steps[-1], (0,) * n), n)]
    for l, above in zip(reversed(steps[:-1]), reversed(steps[1:])):
        ranked.append((coll.GrassFiber(l, taut=True), above))
    return tuple(ranked)


def reference_candidate_ext_table(plan):
    """Candidate Ext table with one unmemoized chain per Grass segment of every pair.

    Ranks, fiber objects, summands and the dimension are worked out here, not
    taken from the code under test.
    """
    root = plan.root
    layers = plan.layers()
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


def transfer_keys():
    return [key for key in coll._build_memo.get() if key[0] == "transfer"]


def count_calls(monkeypatch, name):
    """Count the calls the chain makes to `collections.<name>`."""
    calls = []
    fn = getattr(coll, name)
    monkeypatch.setattr(coll, name, lambda *args: calls.append(args) or fn(*args))
    return calls


@pytest.mark.parametrize("n, steps", [(3, (1, 2)), (4, (1, 2, 3)), (4, (1, 3)), (5, (2, 3))])
def test_memoized_chain_matches_reference_per_pair(monkeypatch, n, steps):
    spec = coll.flag_collection(bwb.FlagSpace(n, steps))
    segment = reference_flag_segment(n, steps)
    assert coll._flag_stages(spec.space) == segment
    labels = [tuple(reversed(lab)) for lab in spec.labels]
    expected = {(i, j): reference_chain(segment, li, lj)
                for i, li in enumerate(labels) for j, lj in enumerate(labels)}
    expansions = count_calls(monkeypatch, "product_expand")
    with coll._build_scope():
        for i, li in enumerate(labels):
            for j, lj in enumerate(labels):
                assert coll._chain(segment, li, lj) == expected[i, j], (li, lj)
        # one expansion per distinct stage input, shared by every pair
        assert len(expansions) == len(transfer_keys()) < len(labels) ** 2
    dims = {}
    for (i, j), degs in expected.items():
        for (s, _deg), mult in degs.items():
            dims[(i, j, s)] = dims.get((i, j, s), 0) + mult
    assert coll.ext_table(spec) == coll.ExtTable(len(labels), spec.space.dimension(), dims)


def plan_twists():
    """The shipped plans and three mixed plans, at every twist up to their cap."""
    plans = []
    for name in ("hirzebruch_plan.json", "flag_1_2_3_plan.json", "sp4_borel_split_plan.json"):
        payload = json.loads((DATA / name).read_text(encoding="utf-8"))
        plans.append((name[:-10], *fib.parse_plan(payload)))
    conic = fib.parse_fiber_table((DATA / "conic_fiber.json").read_text(encoding="utf-8"))
    plans.append(("conic", fib.BaseModel(1), [conic], 3))
    plans.append(("grass-conic", fib.BaseModel(1), [fib.GrassFiber(1, (0, 1)), conic], 3))
    # two split segments: stage 0 of each, with equal ranks and labels
    split_twice = [fib.GrassFiber(1, (0, 1)), fib.GrassFiber(1, (0, 2))]
    plans.append(("grass-grass", fib.BaseModel(1), split_twice, 2))
    for name, root, stages, cap in plans:
        for twists in iter_product(range(cap + 1), repeat=len(stages)):
            yield pytest.param(root, stages, twists, id=f"{name}-{twists}")


@pytest.mark.parametrize("root, stages, twists", plan_twists())
def test_candidate_table_matches_reference(root, stages, twists):
    plan = root
    for fiber, twist in zip(stages, twists):
        plan = fib.FibrationPlan(plan, fiber, twist)
    assert fib.candidate_ext_table(plan) == reference_candidate_ext_table(plan)


def test_candidate_table_expands_each_transfer_once(monkeypatch):
    root, stages, _cap = fib.parse_plan(
        json.loads((DATA / "flag_1_2_3_plan.json").read_text(encoding="utf-8")))
    plan = fib.FibrationPlan(fib.FibrationPlan(root, stages[0], 0), stages[1], 0)
    reference = reference_candidate_ext_table(plan)
    scope = fib._build_scope
    built = []

    @contextmanager
    def recording_scope():
        with scope():
            yield
            built.append(transfer_keys())

    monkeypatch.setattr(fib, "_build_scope", recording_scope)
    expansions = count_calls(monkeypatch, "product_expand")
    assert fib.candidate_ext_table(plan) == reference
    assert len(expansions) == len(built[0]) < len(plan.summands()) ** 2


def test_twist_search_expands_each_transfer_once(monkeypatch):
    # transfers do not depend on the twist, so the twists tried share one memo
    fiber = fib.GrassFiber(2, (0, 1, 2, 3))
    expansions = count_calls(monkeypatch, "product_expand")
    fib.candidate_ext_table(fib.FibrationPlan(fib.BaseModel(1), fiber, 0))
    assert len(expansions) == 36
    expansions.clear()
    plan = fib.twist_search(fib.BaseModel(1), fiber, 8)
    assert plan.verified and plan.twist == 3
    assert len(expansions) == 36
    assert coll._build_memo.get(None) is None


def test_flag_table_splits_each_delta_once(monkeypatch):
    # split-stage transfers share their deltas: one expansion per distinct argument
    spec = coll.flag_collection(bwb.FlagSpace(6, (1, 3, 5)))
    splits = count_calls(monkeypatch, "split_bundle_expand")
    report = coll.verify_tilting(spec, coll.ext_table(spec))
    assert report.passed
    assert len(splits) == len(set(splits)) == 84


def test_chain_reports_higher_direct_images():
    # Grass(2, 4) over a point: weights below -(rank - l) push down in the
    # degree and to the dominant weight of their walk, as the absolute walk has it
    stages = (coll.GrassFiber(2, (0, 0, 0, 0)),)
    assert absolute_pair_ext(2, 4, (0, 0), (3, 0)) == {2: 4}
    assert absolute_pair_ext(2, 4, (0, 0), (3, 3)) == {}
    for build in (nullcontext, coll._build_scope):
        with build():
            assert coll.tower_hom_degrees(stages, ((0, 0),), ((3, 0),)) == {(2, 0): 4}
            assert coll.tower_hom_degrees(stages, ((0, 0),), ((3, 3),)) == {}
    # H^1(P^1, O(-5)) = k^4 over the root of a split stage
    assert reference_chain(((coll.GrassFiber(1, (0, 0)), 2),), ((0,),), ((5,),)) == {(1, 0): 4}


def test_failing_transfer_is_not_cached(monkeypatch):
    stages = (coll.GrassFiber(1, (0, 0)),)
    expand = coll.product_expand

    def failing(factors, rank):
        raise ArithmeticError("expansion failed")

    with coll._build_scope():
        monkeypatch.setattr(coll, "product_expand", failing)
        for _ in range(2):
            with pytest.raises(ArithmeticError):
                coll.tower_hom_degrees(stages, ((0,),), ((5,),))
        assert transfer_keys() == []
        monkeypatch.setattr(coll, "product_expand", expand)
        assert coll.tower_hom_degrees(stages, ((0,),), ((5,),)) == {(1, 0): 4}
    # a transfer that raises halfway through its split-stage expansions
    segment = reference_flag_segment(4, (1, 2))
    stages = tuple(st for st, _rank in segment)
    src, tgt = ((2, 2), (1,)), ((2, 1), (0,))  # its stage-0 transfer expands twice
    expected = reference_chain(segment, src, tgt)
    expand = coll.split_bundle_expand
    calls = []

    def failing_once(delta, degrees):
        calls.append(delta)
        if len(calls) == 2:
            raise ArithmeticError("expansion failed")
        return expand(delta, degrees)

    with coll._build_scope():
        monkeypatch.setattr(coll, "split_bundle_expand", failing_once)
        with pytest.raises(ArithmeticError):
            coll.tower_hom_degrees(stages, src, tgt)
        assert all(key[1] != stages[0] for key in transfer_keys())
        assert coll.tower_hom_degrees(stages, src, tgt) == expected


def test_no_memo_survives_chain_tables(monkeypatch):
    flag = coll.flag_collection(bwb.FlagSpace(3, (1, 2)))
    root, stages, _cap = fib.parse_plan(
        json.loads((DATA / "flag_1_2_3_plan.json").read_text(encoding="utf-8")))
    plan = fib.FibrationPlan(fib.FibrationPlan(root, stages[0], 0), stages[1], 0)
    table = coll.ext_table(flag)
    assert coll._build_memo.get(None) is None
    assert fib.candidate_ext_table(plan) == table
    assert coll._build_memo.get(None) is None
    expand = coll.product_expand
    calls = []

    def failing(factors, rank):
        calls.append(factors)
        if len(calls) > 5:
            raise ArithmeticError("expansion failed")
        return expand(factors, rank)

    monkeypatch.setattr(coll, "product_expand", failing)
    for build in (lambda: coll.ext_table(flag), lambda: fib.candidate_ext_table(plan)):
        calls.clear()
        with pytest.raises(ArithmeticError):
            build()
        assert coll._build_memo.get(None) is None
    # outside a table build every chain expands afresh
    monkeypatch.setattr(coll, "product_expand", expand)
    expansions = count_calls(monkeypatch, "product_expand")
    src, tgt = ((0, 0), (0,)), ((1, 1), (1,))
    stages = tuple(st for st, _rank in coll._flag_stages(flag.space))
    first = coll.tower_hom_degrees(stages, src, tgt)
    once = len(expansions)
    assert coll.tower_hom_degrees(stages, src, tgt) == first
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
