import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tiltcheck
from tiltcheck import bwb
from tiltcheck import collections as coll
from tiltcheck import schur
from tiltcheck.partitions import enumerate_box_partitions, normalize
from tiltcheck.schur import (as_weight, dual_weight, normalizing_shift, product_expand,
                             schur_dimension)
from test_schur import tableau_degree_counts


def test_flag_space_validation():
    with pytest.raises(ValueError):
        bwb.FlagSpace(3, (0, 2))
    with pytest.raises(ValueError):
        bwb.FlagSpace(3, (1, 3))
    with pytest.raises(ValueError):
        bwb.FlagSpace(3, (2, 1))
    assert bwb.FlagSpace(4, (1, 2, 3)).dimension() == 6
    assert bwb.grassmannian(2, 5).dimension() == 6


def test_structure_sheaf():
    for space in [bwb.grassmannian(2, 4), bwb.FlagSpace(3, (1, 2))]:
        blocks = tuple((0,) * l for l in space.block_lengths)
        res = bwb.flag_cohomology(bwb.HomogeneousBundle(space, blocks))
        assert res.degree == 0 and res.dimension == 1


def test_spec_zero_example():
    res = bwb.flag_cohomology(bwb.of_sub_dual(bwb.grassmannian(2, 4), (0, -1)))
    assert res is None


def test_canonical_p3():
    res = bwb.flag_cohomology(bwb.of_sub_dual(bwb.grassmannian(1, 4), (-4,)))
    assert (res.degree, res.dimension) == (3, 1)


def test_block_validation():
    space = bwb.grassmannian(2, 4)
    with pytest.raises(ValueError):
        bwb.HomogeneousBundle(space, ((0,), (0, 0, 0)))
    with pytest.raises(ValueError):
        bwb.HomogeneousBundle(space, ((0, 1), (0, 0)))


def test_helper_constructors_agree_with_duality():
    space = bwb.grassmannian(2, 5)
    lam = (2, 1)
    # S^lam(R) = S^(-lam reversed)(R^dual)
    assert bwb.of_sub(space, lam).blocks == bwb.of_sub_dual(space, dual_weight(lam)).blocks
    q = bwb.of_quot(space, (1,))
    assert q.blocks == ((0, 0), (0, 0, -1))


def test_pn_line_cohomology_examples():
    assert bwb.pn_line_cohomology(2, 2).dimension == 6
    assert bwb.pn_line_cohomology(-1, 1) is None
    res = bwb.pn_line_cohomology(-4, 3)
    assert (res.degree, res.dimension) == (3, 1)
    assert bwb.pn_line_cohomology(5, 0).dimension == 1
    assert bwb.pn_line_cohomology(-3, 0).dimension == 1


def test_oracle_agreement_projective_spaces():
    for n in range(1, 6):
        space = bwb.grassmannian(1, n + 1)
        for m in range(-10, 11):
            walk = bwb.flag_cohomology(bwb.of_sub_dual(space, (m,)))
            classical = bwb.pn_line_cohomology(m, n)
            if classical is None:
                assert walk is None
            else:
                assert (walk.degree, walk.dimension) == (classical.degree, classical.dimension)


def test_pushforward_rule_conformance():
    # in-bound weights: gamma >= 0 lives in degree 0 with weight (gamma, 0...),
    # anything else in bound vanishes entirely
    for d, n in [(2, 4), (2, 5)]:
        space = bwb.grassmannian(d, n)
        entries = range(-(n - d), n - d + 1)
        for g1 in entries:
            for g2 in entries:
                if g1 < g2:
                    continue
                gamma = (g1, g2)
                res = bwb.flag_cohomology(bwb.of_sub_dual(space, gamma))
                if g2 >= 0:
                    assert res.degree == 0
                    assert res.dominant_weight == gamma + (0,) * (n - d)
                    assert res.dimension == schur_dimension(gamma, n)
                else:
                    assert res is None, (d, n, gamma)


def shifted_walk(weight, rho):
    """The dotted Weyl walk at an explicit rho: sort weight + rho, count the swaps."""
    v = [w + r for w, r in zip(weight, rho)]
    if len(set(v)) < len(v):
        return None
    inversions = sum(1 for i in range(len(v)) for j in range(i + 1, len(v)) if v[i] < v[j])
    return inversions, tuple(x - r for x, r in zip(sorted(v, reverse=True), rho))


def test_rho_shift_invariance():
    # the walk fixes rho = (3, 2, 1, 0); rho + 5 must give the same answer,
    # on weights that are not dominant as well as on those that are
    rng = random.Random(7)
    shifted = (8, 7, 6, 5)
    for sort in (True, False):
        for _ in range(50):
            w = [rng.randint(-4, 4) for _ in range(4)]
            w = tuple(sorted(w, reverse=True) if sort else w)
            assert bwb.dotted_weyl(w) == shifted_walk(w, shifted), w


def test_serre_duality_dimensions():
    rng = random.Random(20240815)
    for d, n in [(1, 3), (2, 4), (2, 5)]:
        space = bwb.grassmannian(d, n)
        dim = space.dimension()
        for _ in range(50):
            w1 = tuple(sorted((rng.randint(-3, 3) for _ in range(d)), reverse=True))
            w2 = tuple(sorted((rng.randint(-3, 3) for _ in range(n - d)), reverse=True))
            bundle = bwb.HomogeneousBundle(space, (w1, w2))
            dual_blocks = (
                tuple(x + d - n for x in dual_weight(w1)),
                tuple(x + d for x in dual_weight(w2)),
            )
            serre = bwb.HomogeneousBundle(space, dual_blocks)
            res = bwb.flag_cohomology(bundle)
            res_dual = bwb.flag_cohomology(serre)
            if res is None:
                assert res_dual is None
            else:
                assert res_dual is not None
                assert res_dual.degree == dim - res.degree
                assert res_dual.dimension == res.dimension


def test_full_flag_canonical_bundle():
    # on Flag(1,2;3) the canonical bundle has blocks ((-2), (0), (2)) in the
    # dual-quotient convention; its only cohomology is H^3 = k
    space = bwb.FlagSpace(3, (1, 2))
    res = bwb.flag_cohomology(bwb.HomogeneousBundle(space, ((-2,), (0,), (2,))))
    assert (res.degree, res.dimension) == (3, 1)
    assert res.dominant_weight == (0, 0, 0)


def test_localization_examples():
    assert bwb.localization_euler((), (), 2, 4) == 1
    assert bwb.localization_euler((1,), (), 2, 4) == 4
    assert bwb.localization_euler((), (1,), 2, 4) == 0
    assert bwb.localization_euler((), (), 1, 3) == 1
    assert bwb.localization_euler((), (), 3, 6) == 1


def test_localization_against_weyl_walk_full_box():
    from tiltcheck.collections import schur_pair_ext

    box = enumerate_box_partitions(2, 2).members
    for a in box:
        for b in box:
            chi = sum((-1) ** s * v for s, v in schur_pair_ext(2, 4, a, b).items())
            assert chi == bwb.localization_euler(a, b, 2, 4)


def test_localization_against_weyl_walk_sampled():
    from tiltcheck.collections import schur_pair_ext

    rng = random.Random(11)
    for d, n in [(2, 5), (3, 6)]:
        box = enumerate_box_partitions(d, n - d).members
        for _ in range(25):
            a, b = rng.choice(box), rng.choice(box)
            chi = sum((-1) ** s * v for s, v in schur_pair_ext(d, n, a, b).items())
            assert chi == bwb.localization_euler(a, b, d, n)


def test_localization_against_weyl_walk_grass_4_8():
    from tiltcheck.collections import schur_pair_ext

    rng = random.Random(48)
    box = enumerate_box_partitions(4, 4).members
    for _ in range(20):
        a, b = rng.choice(box), rng.choice(box)
        chi = sum((-1) ** s * v for s, v in schur_pair_ext(4, 8, a, b).items())
        assert chi == bwb.localization_euler(a, b, 4, 8), (a, b)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_localization_on_projective_space_matches_monomial_counting(n):
    # on P^(n-1), S^a(R)^dual (x) S^b(R) = O(a - b)
    for a in range(7):
        for b in range(7):
            res = bwb.pn_line_cohomology(a - b, n - 1)
            chi = 0 if res is None else (-1) ** res.degree * res.dimension
            assert bwb.localization_euler((a,), (b,), 1, n) == chi, (a, b)


def _laurent_terms(poly):
    lo, coeffs = poly
    return {lo + i: c for i, c in enumerate(coeffs) if c}


def test_schur_at_powers_matches_tableau_enumeration():
    rng = random.Random(20151018)
    cases = [((), (0,)), ((), (-3, 5)), ((2, 1, 1), (4, -2)), ((1, 1, 1, 0), (0, 1, 2)),
             ((2, 1), (3, 3)), ((3, 1), (0, 0, 2)), ((1,), (-1, -1, 4, 4))]
    while len(cases) < 240:
        w = tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 5))), reverse=True))
        cases.append((w, tuple(rng.sample(range(-8, 9), rng.randint(1, 5)))))
    longer = 0
    for w, exponents in cases:
        if len(w) > len(exponents):
            longer += 1
            with pytest.raises(ValueError) as refused:
                bwb._schur_at_powers(w, exponents)
            assert str(refused.value) == f"weight {w} longer than declared length {len(exponents)}"
        else:
            assert _laurent_terms(bwb._schur_at_powers(w, exponents)) == \
                tableau_degree_counts(w, exponents), (w, exponents)
    assert longer >= 10


def test_gap_pattern_identities():
    # s_w(t^(c+g)) = t^(c |w|) s_w(t^g), and s_w(t^-g) is s_w(t^g) reversed
    rng = random.Random(20151019)
    full_length = 0
    for _ in range(200):
        d = rng.randint(1, 4)
        if rng.random() < 0.4:
            w = tuple(sorted((rng.randint(-3, 3) for _ in range(d)), reverse=True))
        else:
            w = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, d))), reverse=True))
        full_length += min(w, default=0) < 0
        gaps = (0,) + tuple(sorted(rng.sample(range(1, 9), d - 1)))
        c = rng.randint(-6, 6)
        m = normalizing_shift(w)
        for exponents in (gaps, tuple(c + x for x in gaps), tuple(-x for x in gaps)):
            tableaux = tableau_degree_counts(normalize(tuple(x + m for x in w)), exponents)
            assert _laurent_terms(bwb._schur_at_powers(w, exponents)) == \
                {deg - m * sum(exponents): k for deg, k in tableaux.items()}, (w, exponents)
        lo, coeffs = bwb._schur_at_powers(w, gaps)
        assert bwb._schur_at_powers(w, tuple(c + x for x in gaps)) == (lo + c * sum(w), coeffs)
        assert bwb._schur_at_powers(w, tuple(-x for x in gaps)) == \
            (-(lo + len(coeffs) - 1), coeffs[::-1])
    assert full_length >= 30


def test_localization_memo_holds_one_value_per_gap_pattern():
    from tiltcheck.collections import schur_pair_ext

    box = enumerate_box_partitions(3, 3).members
    bwb._schur_at_powers.cache_clear()
    for a in box:
        for b in box:
            chi = sum((-1) ** s * v for s, v in schur_pair_ext(3, 6, a, b).items())
            assert chi == bwb.localization_euler(a, b, 3, 6), (a, b)
    # 20 weights, C(5, 2) gap patterns each, against 2 * C(6, 3) alternants per pair
    assert bwb._schur_at_powers.cache_info().misses <= 20 * 10
    lo, coeffs = bwb._schur_at_powers((2, 1), (0, 1, 3))
    assert type(coeffs) is tuple


def test_grassmannian_ext_never_reaches_the_branching_kernel(monkeypatch):
    # what the localization oracle shares with the engine it checks: on a
    # Grassmannian the engine takes the hook-content shortcut, never the
    # branching kernel that the oracle's characters come from
    from tiltcheck.acceptance import ORACLE_SPACES

    calls = []
    kernel = schur._ssyt_degree_counts

    def counted(shape, degrees):
        calls.append((shape, degrees))
        return kernel(shape, degrees)

    monkeypatch.setattr(schur, "_ssyt_degree_counts", counted)
    pairs = 0
    for d, n in ORACLE_SPACES:
        box = enumerate_box_partitions(d, n - d).members
        for a in box:
            for b in box:
                coll.schur_pair_ext(d, n, a, b)
                pairs += 1
    assert pairs == 536 and calls == []
    bwb._schur_at_powers.cache_clear()
    assert bwb.localization_euler((2, 1), (1,), 3, 6) == \
        sum((-1) ** s * v for s, v in coll.schur_pair_ext(3, 6, (2, 1), (1,)).items())
    assert calls


@pytest.mark.parametrize("a, b, d, n, chi", [
    ((3, 1), (2, 1), 8, 11, 11),
    ((2, 2, 1), (1, 1), 7, 10, 450),
])
def test_localization_at_large_rank_matches_the_chain(a, b, d, n, chi):
    assert sum((-1) ** s * v for s, v in coll.schur_pair_ext(d, n, a, b).items()) == chi
    assert bwb.localization_euler(a, b, d, n) == chi


def test_dense_division_refuses_a_remainder():
    assert bwb._div_one_minus((-2, [1, 0, -1]), 2) == (-2, [1])
    with pytest.raises(ArithmeticError):
        bwb._div_one_minus((0, [1, 1]), 1)
    with pytest.raises(ArithmeticError):
        bwb._div_one_minus((3, [1]), 2)


def test_euler_report_same_under_optimized_interpreter():
    src = str(Path(tiltcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    argv = ["euler", "--a", "2,1", "--b", "1,1", "--d", "3", "--n", "6"]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "tiltcheck", *argv],
                       capture_output=True, text=True, env=env, check=False)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
    chi = sum((-1) ** s * v for s, v in coll.schur_pair_ext(3, 6, (2, 1), (1, 1)).items())
    assert json.loads(plain.stdout)["result"]["euler_characteristic"] == str(chi)


def test_grass_pushforward():
    # the rule checked above, as the stage chain applies it to Grass(2, 4) over
    # a point: S^gamma(R^dual) for gamma = src - tgt pushes forward in the
    # degree and to the dominant weight of the dotted walk of (gamma, 0, 0)
    fiber = (coll.GrassFiber(2, (0, 0, 0, 0)),)
    assert coll.tower_hom_degrees(fiber, ((0, 0),), ((0, 0),)) == {(0, 0): 1}
    assert coll.tower_hom_degrees(fiber, ((1, 0),), ((0, 0),)) == {(0, 0): schur_dimension((1,), 4)}
    assert coll.tower_hom_degrees(fiber, ((0, 0),), ((1, 0),)) == {}
    res = bwb.flag_cohomology(bwb.of_sub_dual(bwb.grassmannian(2, 4), (0, -3)))
    assert coll.tower_hom_degrees(fiber, ((0, 0),), ((3, 0),)) == {(res.degree, 0): res.dimension}
    with pytest.raises(ValueError):
        coll.tower_hom_degrees(fiber, ((0, 1),), ((0, 0),))


def test_hom_then_cohomology_matches_spec_hom_example():
    # Hom(S^(1)(R), O) on Grass(2,4) = H^0(R^dual) has dimension 4
    space = bwb.grassmannian(2, 4)
    total = 0
    for gamma, mult in product_expand([dual_weight(as_weight((1,), 2)), ()], 2).items():
        res = bwb.flag_cohomology(
            bwb.HomogeneousBundle(space, (dual_weight(gamma), (0, 0)))
        )
        if res is not None and res.degree == 0:
            total += mult * res.dimension
    assert total == 4
