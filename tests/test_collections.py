from math import comb

import pytest

from tiltcheck import bwb
from tiltcheck import collections as coll
from tiltcheck.partitions import normalize
from tiltcheck.schur import as_weight, dual_weight, product_expand


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
    for spec in (coll.kapranov_collection(2, 4), coll.kapranov_collection(3, 6)):
        assert coll.ext_table(spec, jobs=2) == coll.ext_table(spec)
    flag = coll.flag_collection(bwb.FlagSpace(3, (1, 2)))
    assert coll.ext_table(flag, jobs=2) == coll.ext_table(flag)


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


def test_beilinson_range_keeps_higher_ext_witness():
    report = coll.verify_tilting(coll.beilinson_collection(3, range(5)))
    assert not report.passed
    # Ext^3(O(4), O) = H^3(P^3, O(-4)) = k
    assert report.higher_ext_witness == (4, 0, 3, 1)


def test_one_weyl_walk_per_distinct_weight(monkeypatch):
    spec = coll.kapranov_collection(2, 5)
    gammas = {
        gamma
        for (v,) in spec.labels
        for (w,) in spec.labels
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


def test_no_memo_survives_ext_table(monkeypatch):
    spec = coll.kapranov_collection(2, 4)
    coll.ext_table(spec)
    assert coll._cohomology_memo.get(None) is None
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
    assert coll._cohomology_memo.get(None) is None
    # outside a table build every call walks afresh
    calls.clear()
    monkeypatch.setattr(bwb, "flag_cohomology", lambda bundle: calls.append(bundle) or walk(bundle))
    first = coll.schur_pair_ext(2, 4, (1,), (1,))
    walks = len(calls)
    assert coll.schur_pair_ext(2, 4, (1,), (1,)) == first
    assert len(calls) == 2 * walks > 0
    assert coll._cohomology_memo.get(None) is None


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
