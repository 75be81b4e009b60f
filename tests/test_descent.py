from math import comb, gcd

import pytest

from tiltcheck import collections as coll
from tiltcheck import descent as dsc
from tiltcheck.partitions import conjugate, enumerate_box_partitions
from tiltcheck.schur import lr_expand, schur_dimension


def wedge_ext_reference(d, n):
    r"""The box and the whole wedge Ext table M^T H M of Grass(d, n).

    Entry (i, j, s) is dim Ext^s(/\^(box[i]')(S), /\^(box[j]')(S)), summed
    over every nonzero entry of the Kapranov table H and M's columns.
    """
    box, kapranov_table, columns = dsc._wedge_columns(d, n)
    dims = {}
    for (k, l, s), v in kapranov_table.dims.items():
        for i, a in columns[k].items():
            for j, b in columns[l].items():
                dims[(i, j, s)] = dims.get((i, j, s), 0) + a * v * b
    return box, coll.ExtTable(len(box), kapranov_table.max_degree, dims)


def derived(report):
    """A `WedgeReport`'s values read from the Kapranov table: (k0_rank, end_dim, higher_ext_witness)."""
    return report.k0_rank, report.end_dim, report.higher_ext_witness


def wedge_schur_reference(conj_parts, d):
    """Wedge decomposition by one `lr_expand` per column factor."""
    out = {(): 1}
    for part in conj_parts:
        if part == 0:
            continue
        if part > d:
            return {}
        nxt = {}
        for nu, m in out.items():
            for xi, c in lr_expand(nu, (1,) * part, d).items():
                nxt[xi] = nxt.get(xi, 0) + m * c
        out = nxt
    return out


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


def test_default_index_table_is_written_out():
    # the default model is one spelling of its written-out table
    assert dsc.CSAClass(4, 2) == dsc.CSAClass(4, 2, (1, 2))
    assert hash(dsc.CSAClass(4, 2)) == hash(dsc.CSAClass(4, 2, (1, 2)))
    for d in range(1, 13):
        for p in (p for p in range(1, d + 1) if d % p == 0):
            a = dsc.CSAClass(d, p)
            expected = [p // gcd(p, i % p) for i in range(12)]
            assert a.index_table == tuple(expected[:p])
            assert [dsc.index_of_power(a, i) for i in range(12)] == expected, (d, p)
            # written out unchecked, the default passes every check of a given table
            assert dsc.CSAClass(d, p, a.index_table) == a


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


def test_index_tables_an_algebra_can_have_are_taken():
    # the default table p / gcd(p, i) is not re-checked: the rules hold for it by construction
    for p in range(1, 61):
        dsc._check_index_rules(p, tuple(p // gcd(p, i) for i in range(p)))
    # a given table need not be the default one
    assert dsc.CSAClass(4, 2, (1, 4)).index_table == (1, 4)
    assert dsc.CSAClass(12, 6, (1, 12, 3, 2, 3, 12)).index_table == (1, 12, 3, 2, 3, 12)


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
    report = dsc.WedgeReport(2, 4)
    assert report.is_tilting
    total = 0
    box = dsc.generalized_bs_summary(a, 2).summand_labels
    for lam in box:
        for mu in box:
            total += dsc.wedge_pair_ext(2, 4, lam, mu).get(0, 0)
    assert total == report.end_dim


@pytest.mark.parametrize("d, n", [(2, 4), (2, 5), (3, 5), (3, 6)])
def test_wedge_ext_table_matches_per_pair_reference(d, n):
    box, table = wedge_ext_reference(d, n)
    assert box == list(reversed(enumerate_box_partitions(d, n - d).members))
    assert table.max_degree == d * (n - d)
    for i, lam in enumerate(box):
        for j, mu in enumerate(box):
            ref = dsc.wedge_pair_ext(d, n, lam, mu)
            for s in range(table.max_degree + 1):
                assert table.get(i, j, s) == ref.get(s, 0), (lam, mu, s)
    # the production End and witness, read off H without this table
    report = dsc.WedgeReport(d, n)
    assert derived(report) == (len(box), table.end_dim((1,) * len(box)), None)
    assert report.is_tilting
    assert table.higher_witness() is None
    summary = dsc.generalized_bs_summary(dsc.split_class(n), d)
    assert summary.end_dim == table.end_dim(summary.multiplicities)


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
        report = dsc.WedgeReport(d, n)
        assert report.is_tilting, report.higher_ext_witness
        assert report.k0_rank == len(
            dsc.generalized_bs_summary(dsc.split_class(n), d).summand_labels
        )


def test_wedge_witness_is_the_least_higher_entry(monkeypatch):
    # a Kapranov table has no positive-degree entry, so feed one that does:
    # Kapranov-sized for Grass(2, 4), with its Hom entries kept.  Label 3,
    # (1, 1), is a summand of wedge sheaves 2 and 3, so the least wedge entry
    # (2, 2, 1) sums two H entries and is not H's least entry (2, 3, 1)
    kapranov_table = coll.ext_table(coll.kapranov_collection(2, 4))
    dims = {**kapranov_table.dims, (3, 3, 1): 2, (2, 3, 1): 1, (4, 1, 1): 3, (5, 0, 2): 2}
    monkeypatch.setattr(dsc, "ext_table", lambda spec: coll.ExtTable(6, 4, dims))
    box, table = wedge_ext_reference(2, 4)
    least = table.higher_witness()
    assert least is not None
    report = dsc.WedgeReport(2, 4)
    assert derived(report) == (6, table.end_dim((1,) * 6), (box[least[0]], box[least[1]], *least[2:]))
    assert not report.is_tilting
    assert report.higher_ext_witness == ((2,), (2,), 1, 3)
    monkeypatch.undo()  # the added entries are all of positive degree
    assert report.end_dim == dsc.WedgeReport(2, 4).end_dim


def test_wedge_schur_multiplicities_match_lr_reference():
    labels = 0
    for d in range(1, 6):
        for width in range(1, 6):
            for lam in enumerate_box_partitions(d, width).members:
                conj = conjugate(lam)
                assert dsc.wedge_schur_multiplicities(conj, d) == wedge_schur_reference(conj, d), (lam, d)
                labels += 1
    assert labels == 912
    assert dsc.wedge_schur_multiplicities((), 3) == wedge_schur_reference((), 3) == {(): 1}
    assert dsc.wedge_schur_multiplicities((2, 4, 1), 3) == wedge_schur_reference((2, 4, 1), 3) == {}


def test_gbs_10_2_5_end_dim():
    end_dim = dsc.generalized_bs_summary(dsc.CSAClass(10, 2), 5).end_dim
    assert end_dim == 1364727282447169088392318101


def test_wedge_schur_decomposition_example():
    # /\^1 (x) /\^1 of a rank-2 bundle = S^(2) + S^(1,1)
    out = dsc.wedge_schur_multiplicities((1, 1), 2)
    assert out == {(2,): 1, (1, 1): 1}
    assert sum(m * schur_dimension(nu, 2) for nu, m in out.items()) == 4


def test_tower_conic_over_conic():
    q = dsc.CSAClass(2, 2)
    t = dsc.twisted_tower_summary([dsc.bs_tilting_summary(q), dsc.bs_tilting_summary(q)])
    assert t.summand_count == 4
    assert t.total_rank == 9
    assert t.end_dim == 81


def test_tower_sp4_shaped():
    t = dsc.twisted_tower_summary(
        [dsc.bs_tilting_summary(dsc.split_class(4)), dsc.bs_tilting_summary(dsc.split_class(2))]
    )
    assert t.summand_count == 8
    assert t.total_rank == 8


def test_tower_single_stage_is_bs():
    q = dsc.CSAClass(2, 2)
    assert dsc.twisted_tower_summary([dsc.bs_tilting_summary(q)]) == dsc.bs_tilting_summary(q)


def test_tower_with_gbs_stage():
    t = dsc.twisted_tower_summary(
        [dsc.bs_tilting_summary(dsc.split_class(2)),
         dsc.generalized_bs_summary(dsc.CSAClass(4, 2), 2)]
    )
    assert t.summand_count == 2 * 6
    assert t.total_rank == 2 * 209
