from math import comb

import pytest

from tiltcheck import collections as coll
from tiltcheck import descent as dsc
from tiltcheck.partitions import conjugate, enumerate_box_partitions
from tiltcheck.schur import schur_dimension


def test_index_of_power_examples():
    q = dsc.CSAClass(2, 2)
    assert [dsc.index_of_power(q, i) for i in (0, 1, 2)] == [1, 2, 1]
    split = dsc.split_class(5)
    assert all(dsc.index_of_power(split, i) == 1 for i in range(8))
    assert dsc.index_of_power(dsc.CSAClass(4, 4), 2) == 2


def test_index_period_periodicity():
    a = dsc.CSAClass(6, 3)
    for i in range(-6, 12):
        assert dsc.index_of_power(a, i) == dsc.index_of_power(a, i + 3)
    assert dsc.index_of_power(a, 0) == 1


def test_explicit_index_table():
    a = dsc.CSAClass(4, 2, index_table=(1, 2))
    assert dsc.index_of_power(a, 1) == 2
    assert dsc.index_of_power(a, 2) == 1
    with pytest.raises(ValueError):
        dsc.CSAClass(4, 2, index_table=(2, 2))
    with pytest.raises(ValueError):
        dsc.CSAClass(4, 2, index_table=(1, 3))
    with pytest.raises(ValueError):
        dsc.CSAClass(4, 3)


def test_bs_summary_quaternion():
    s = dsc.bs_tilting_summary(dsc.CSAClass(2, 2))
    assert s.ranks == (1, 2)
    assert s.total_rank == 3
    assert s.end_dim == 9


def test_bs_summary_split_matches_beilinson():
    for n in range(2, 7):
        s = dsc.bs_tilting_summary(dsc.split_class(n))
        assert s.ranks == (1,) * n
        assert s.total_rank == n
        report = coll.verify_tilting(coll.beilinson_collection(n - 1))
        assert s.end_dim == report.end_algebra_dim


def test_bs_summary_degree3():
    s = dsc.bs_tilting_summary(dsc.CSAClass(3, 3))
    assert s.ranks == (1, 3, 3)
    assert s.total_rank == 7


def test_bs_range_length_parameter():
    s = dsc.bs_tilting_summary(dsc.CSAClass(2, 2), range_length=3)
    assert s.ranks == (1, 2, 1)
    assert s.summand_count == 3


def test_gbs_summary_4_2():
    s = dsc.generalized_bs_summary(dsc.CSAClass(4, 2), 2)
    assert s.summand_count == 6
    idx = s.summand_labels.index((1,))
    assert s.multiplicities[idx] == 4
    assert s.ranks[idx] == 8
    idx0 = s.summand_labels.index(())
    assert s.multiplicities[idx0] == 1
    assert s.ranks[idx0] == 1


def test_gbs_split_case_end_dim_is_wedge_end():
    # split algebra: multiplicities still follow the formula, but the wedge
    # Hom dimensions weighted by 1s must match the wedge report
    a = dsc.split_class(4)
    report = dsc.verify_wedge_collection(2, 4)
    assert report.is_tilting
    total = 0
    box = dsc.generalized_bs_summary(a, 2).summand_labels
    for lam in box:
        for mu in box:
            total += dsc.wedge_pair_ext(2, 4, lam, mu).get(0, 0)
    assert total == report.end_dim


@pytest.mark.parametrize("d, n", [(2, 4), (2, 5), (3, 5), (3, 6)])
def test_wedge_ext_table_matches_per_pair_reference(d, n):
    box, table = dsc._wedge_ext_table(d, n)
    assert box == list(reversed(enumerate_box_partitions(d, n - d).members))
    assert table.max_degree == d * (n - d)
    for i, lam in enumerate(box):
        for j, mu in enumerate(box):
            ref = dsc.wedge_pair_ext(d, n, lam, mu)
            for s in range(table.max_degree + 1):
                assert table.get(i, j, s) == ref.get(s, 0), (lam, mu, s)


@pytest.mark.parametrize("algebra, d", [(dsc.CSAClass(4, 2), 2), (dsc.CSAClass(6, 3), 3)])
def test_gbs_end_dim_matches_per_pair_loop(algebra, d):
    s = dsc.generalized_bs_summary(algebra, d)
    n = algebra.degree
    expected = 0
    for lam, a in zip(s.summand_labels, s.multiplicities):
        for mu, b in zip(s.summand_labels, s.multiplicities):
            expected += a * b * dsc.wedge_pair_ext(d, n, lam, mu).get(0, 0)
    assert s.end_dim == expected


def test_gbs_d1_split_frozen_numbers():
    # P(1,1) on the projective line: the sufficient (not minimal)
    # multiplicities give O (+) S^(2), total rank 3, End of dim 9
    s = dsc.generalized_bs_summary(dsc.split_class(2), 1)
    assert s.summand_labels == ((1,), ())
    assert s.multiplicities == (2, 1)
    assert s.ranks == (2, 1)
    assert s.total_rank == 3
    assert s.end_dim == 9


def test_multiplicity_positivity():
    s = dsc.generalized_bs_summary(dsc.CSAClass(4, 4), 2)
    for lam, mult in zip(s.summand_labels, s.multiplicities):
        if lam == ():
            assert mult == 1
        else:
            assert mult > 1


def test_wedge_rank_base_change_consistency():
    # the wedge product's rank equals the summed ranks of its Schur summands
    for d, lam in [(2, (1,)), (2, (2, 1)), (3, (2, 2, 1)), (3, (3, 1))]:
        conj = conjugate(lam)
        direct = 1
        for c in conj:
            direct *= comb(d, c)
        summands = dsc.wedge_schur_multiplicities(conj, d)
        assert direct == sum(m * schur_dimension(nu, d) for nu, m in summands.items())


def test_wedge_collection_verifies():
    for d, n in [(2, 4), (2, 5)]:
        report = dsc.verify_wedge_collection(d, n)
        assert report.is_tilting, report.higher_ext_witness
        assert report.k0_rank == len(
            dsc.generalized_bs_summary(dsc.split_class(n), d).summand_labels
        )


def test_wedge_schur_decomposition_example():
    # /\^1 (x) /\^1 of a rank-2 bundle = S^(2) + S^(1,1)
    out = dsc.wedge_schur_multiplicities((1, 1), 2)
    assert out == {(2,): 1, (1, 1): 1}
    assert sum(m * schur_dimension(nu, 2) for nu, m in out.items()) == 4


def test_tower_conic_over_conic():
    q = dsc.CSAClass(2, 2)
    t = dsc.twisted_tower_summary([("bs", q), ("bs", q)])
    assert t.summand_count == 4
    assert t.total_rank == 9
    assert t.end_dim == 81


def test_tower_sp4_shaped():
    t = dsc.twisted_tower_summary(
        [("bs", dsc.split_class(4)), ("bs", dsc.split_class(2))]
    )
    assert t.summand_count == 8
    assert t.total_rank == 8


def test_tower_single_stage_is_bs():
    q = dsc.CSAClass(2, 2)
    assert dsc.twisted_tower_summary([("bs", q)]) == dsc.bs_tilting_summary(q)


def test_tower_with_gbs_stage():
    t = dsc.twisted_tower_summary(
        [("bs", dsc.split_class(2)), ("gbs", dsc.CSAClass(4, 2), 2)]
    )
    assert t.summand_count == 2 * 6
    assert t.total_rank == 2 * 209
