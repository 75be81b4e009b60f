import importlib.resources as resources
import json
from contextlib import contextmanager
from itertools import product as iter_product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltcheck import bwb
from tiltcheck import collections as coll
from tiltcheck import fibration as fib
from tiltcheck.partitions import normalize
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


def test_parallel_sweep_matches_sequential():
    # the Beilinson range keeps an out-of-bound pair, so its pool carries a walk
    for spec in (coll.kapranov_collection(2, 4), coll.kapranov_collection(3, 6),
                 coll.beilinson_collection(3, range(5))):
        assert coll.ext_table(spec, jobs=2) == coll.ext_table(spec)
    for flag in (bwb.FlagSpace(3, (1, 2)), bwb.FlagSpace(4, (1, 2, 3))):
        spec = coll.flag_collection(flag)
        assert coll.ext_table(spec, jobs=2) == coll.ext_table(spec)


def unmemoized_ext_table(spec):
    """Grassmannian Ext table with one Weyl walk per LR term of every pair."""
    d, n = spec.space.steps[0], spec.space.n
    dims = {}
    for i, (v,) in enumerate(spec.labels):
        for j, (w,) in enumerate(spec.labels):
            factors = [dual_weight(as_weight(v, d)), w]
            for gamma, mult in product_expand(factors, d).items():
                bundle = bwb.HomogeneousBundle(spec.space, (dual_weight(gamma), (0,) * (n - d)))
                res = bwb.flag_cohomology(bundle)
                if res is not None:
                    key = (i, j, res.degree)
                    dims[key] = dims.get(key, 0) + mult * res.dimension
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
    labels = tuple((as_weight(lam, 2),) for lam in coll._reversed_box(2, 4))
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
    walk = coll.schur_pair_ext
    walked = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coll, "schur_pair_ext", lambda *args: walked.append(args[2:]) or walk(*args))
        table = coll.ext_table(coll.CollectionSpec(bwb.grassmannian(d, n), labels))
    # one engine per pair: exactly the out-of-bound pairs walk
    pairs = [(a, b) for (a,) in labels for (b,) in labels]
    assert walked == [(a, b) for a, b in pairs if out_of_bound(d, n, a, b)]
    for (i, (a,)), (j, (b,)) in iter_product(enumerate(labels), repeat=2):
        expected = walk(d, n, a, b)
        assert {s: x for (p, q, s), x in table.dims.items() if (p, q) == (i, j)} == expected
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
    # in-box pairs take the closed form, so the walks come from out-of-bound pairs
    spec = walk_routed_collection()
    gammas = {
        gamma
        for (v,) in spec.labels
        for (w,) in spec.labels
        if out_of_bound(2, 5, v, w)
        for gamma in product_expand([dual_weight(v), w], 2)
    }
    reference = unmemoized_ext_table(spec)
    walked = []
    walk = bwb.flag_cohomology

    def counted(bundle):
        walked.append(bundle.blocks)
        return walk(bundle)

    monkeypatch.setattr(bwb, "flag_cohomology", counted)
    assert coll.ext_table(spec) == reference
    assert len(walked) == len(set(walked)) == len(gammas)
    walked.clear()
    coll.ext_table(coll.kapranov_collection(2, 5))
    assert walked == []


def test_no_memo_survives_ext_table(monkeypatch):
    spec = walk_routed_collection()  # in-box pairs never walk, so none could raise
    coll.ext_table(spec)
    assert coll._build_memo.get(None) is None
    walk = bwb.flag_cohomology
    calls = []

    def failing(bundle):
        calls.append(bundle)
        if len(calls) > 3:
            raise ArithmeticError("walk failed")
        return walk(bundle)

    monkeypatch.setattr(bwb, "flag_cohomology", failing)
    with pytest.raises(ArithmeticError):
        coll.ext_table(spec)
    assert coll._build_memo.get(None) is None
    # outside a table build every call walks afresh
    calls.clear()
    monkeypatch.setattr(bwb, "flag_cohomology", lambda bundle: calls.append(bundle) or walk(bundle))
    first = coll.schur_pair_ext(2, 4, (1,), (1,))
    walks = len(calls)
    assert coll.schur_pair_ext(2, 4, (1,), (1,)) == first
    assert len(calls) == 2 * walks > 0
    assert coll._build_memo.get(None) is None


def reference_chain(stages, src, tgt):
    """The stage chain of one pair, unmemoized: every item of every stage re-expanded."""
    ranks = coll.validate_stages(stages)
    items = [(None, 0, 1)]
    for k in range(len(stages) - 1, -1, -1):
        st, rank = stages[k], ranks[k]
        lam, mu = as_weight(src[k], st.l), as_weight(tgt[k], st.l)
        next_items = []
        for gamma, deg, mult in items:
            factors = [lam, dual_weight(mu)]
            if gamma is not None:
                factors.insert(0, as_weight(gamma, st.l))
            for delta, c in product_expand(factors, st.l).items():
                if delta[-1] < -(rank - st.l):
                    raise ValueError(f"stage {k}: weight {delta} outside the pushforward model")
                if delta[-1] < 0:
                    continue
                if st.kind == coll.SPLIT:
                    duals = tuple(-d for d in st.degrees)
                    for w, cc in split_bundle_expand(delta, duals).items():
                        next_items.append((None, deg + w, mult * c * cc))
                else:
                    next_items.append((normalize(delta), deg, mult * c))
        items = next_items
    out = {}
    for gamma, deg, mult in items:
        if gamma is not None:
            raise ArithmeticError(f"weight {gamma} was never pushed down to the root")
        out[deg] = out.get(deg, 0) + mult
    return dict(sorted(out.items()))


def reference_candidate_ext_table(plan):
    """Candidate Ext table with one unmemoized chain per Grass segment of every pair."""
    root = plan.root
    layers = plan.layers()
    ranked = fib.zip_layer_ranks(layers)
    top = len(layers) - 1
    segments = []  # (table fiber, None, layer) or (None, stages, [layers])
    for k, (fiber, rank) in enumerate(ranked):
        if isinstance(fiber, fib.TableFiber):
            segments.append((fiber, None, [k]))
        elif fiber.taut:
            _, stages, ks = segments[-1]
            segments[-1] = (None, stages + (coll.StageSpec(fiber.l, coll.TAUT),), ks + [k])
        else:
            segments.append((None, (coll.StageSpec(fiber.l, coll.SPLIT, fiber.split_degrees),), [k]))
    summands = plan.summands()
    dims = {}
    for ia, A in enumerate(summands):
        for ib, B in enumerate(summands):
            counter = {0: 1}
            for table, stages, ks in segments:
                if table is not None:
                    part = table.pushforward(B[top - ks[0]], A[top - ks[0]])
                else:
                    part = reference_chain(stages, tuple(A[top - k] for k in ks),
                                           tuple(B[top - k] for k in ks))
                convolved = {}
                for da, ma in counter.items():
                    for db, mb in part.items():
                        convolved[da + db] = convolved.get(da + db, 0) + ma * mb
                counter = convolved
            if not counter:
                continue
            shift = B[-1] - A[-1]
            for k, (fiber, twist) in enumerate(layers):
                objs = fib._layer_objects(fiber, ranked[k][1])
                shift += twist * (objs.index(B[top - k]) - objs.index(A[top - k]))
            for deg, mult in counter.items():
                res = bwb.pn_line_cohomology(shift + deg, root.dim)
                if res is not None:
                    dims[(ia, ib, res.degree)] = dims.get((ia, ib, res.degree), 0) + mult * res.dimension
    return coll.ExtTable(len(summands), plan.total_dimension(), dims)


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
    stages = coll._flag_stages(spec.space)
    ranks = coll.validate_stages(stages)
    labels = [tuple(reversed(lab)) for lab in spec.labels]
    expected = {(i, j): reference_chain(stages, li, lj)
                for i, li in enumerate(labels) for j, lj in enumerate(labels)}
    expansions = count_calls(monkeypatch, "product_expand")
    with coll._build_scope():
        for i, li in enumerate(labels):
            for j, lj in enumerate(labels):
                assert coll._chain(stages, ranks, li, lj) == expected[i, j], (li, lj)
        # one expansion per distinct stage input, shared by every pair
        assert len(expansions) == len(transfer_keys()) < len(labels) ** 2
    dims = {(i, j, 0): sum(degs.values()) for (i, j), degs in expected.items() if degs}
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


def test_flag_table_splits_each_delta_once(monkeypatch):
    # split-stage transfers share their deltas: one expansion per distinct argument
    spec = coll.flag_collection(bwb.FlagSpace(6, (1, 3, 5)))
    splits = count_calls(monkeypatch, "split_bundle_expand")
    report = coll.verify_tilting(spec, coll.ext_table(spec))
    assert report.passed
    assert len(splits) == len(set(splits)) == 84


def test_chain_keeps_pushforward_model_error():
    stages = (coll.StageSpec(1, coll.SPLIT, (0, 0)),)
    message = r"^stage 0: weight \(-5,\) outside the pushforward model$"
    with pytest.raises(ValueError, match=message):
        reference_chain(stages, ((0,),), ((5,),))
    with pytest.raises(ValueError, match=message):
        coll.tower_hom_degrees(stages, ((0,),), ((5,),))
    with pytest.raises(ValueError, match=message), coll._build_scope():
        coll.tower_hom_degrees(stages, ((0,),), ((5,),))


def test_failing_transfer_is_not_cached(monkeypatch):
    stages = (coll.StageSpec(1, coll.SPLIT, (0, 0)),)
    with coll._build_scope():
        for _ in range(2):
            with pytest.raises(ValueError, match="outside the pushforward model"):
                coll.tower_hom_degrees(stages, ((0,),), ((5,),))
        assert transfer_keys() == []
    # a transfer that raises halfway through its split-stage expansions
    stages = coll._flag_stages(bwb.FlagSpace(4, (1, 2)))
    src, tgt = ((2, 2), (1,)), ((2, 1), (0,))  # its stage-0 transfer expands twice
    expected = reference_chain(stages, src, tgt)
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
        assert all(key[1] != 0 for key in transfer_keys())
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
    first = coll.tower_hom_degrees(coll._flag_stages(flag.space), src, tgt)
    once = len(expansions)
    assert coll.tower_hom_degrees(coll._flag_stages(flag.space), src, tgt) == first
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


def test_beilinson_p3_end_dimension():
    # sum over 0 <= i <= j <= 3 of C(3 + j - i, 3): 4 + 12 + 20 + 20
    report = coll.verify_tilting(coll.beilinson_collection(3))
    assert report.end_algebra_dim == 56


def test_end_quiver_dims():
    assert coll.end_quiver_dims(coll.beilinson_collection(1)) == [[1, 2], [0, 1]]
    assert coll.end_quiver_dims(coll.beilinson_collection(2)) == [
        [1, 3, 6],
        [0, 1, 3],
        [0, 0, 1],
    ]
    single = coll.beilinson_collection(2, degrees=(0,))
    assert coll.end_quiver_dims(single) == [[1]]
    with pytest.raises(ValueError):
        coll.end_quiver_dims(coll.beilinson_collection(1, degrees=(0, -1)))


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
