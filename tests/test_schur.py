from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltcheck.partitions import enumerate_box_partitions, normalize
from tiltcheck.schur import (
    _skew_dimension,
    as_weight,
    dual_weight,
    hom_expand,
    lr_expand,
    product_expand,
    schur_dimension,
    split_bundle_expand,
    twist_weight,
)


# ---------------------------------------------------------------------------
# independent oracles

def lr_coefficient_bruteforce(nu, a, b):
    """Count LR skew tableaux of shape nu/a with content b by explicit filling
    and a literal reverse-reading-word lattice check."""
    nu, a = normalize(nu), normalize(a)
    inner = tuple(a) + (0,) * (len(nu) - len(a))
    cells = [(r, c) for r in range(len(nu)) for c in range(inner[r], nu[r])]
    count = 0

    def rec(idx, assignment):
        nonlocal count
        if idx == len(cells):
            if Counter(assignment.values()) != Counter(
                {i + 1: b[i] for i in range(len(b)) if b[i]}
            ):
                return
            word = []
            for r in range(len(nu)):
                for c in range(nu[r] - 1, inner[r] - 1, -1):
                    word.append(assignment[(r, c)])
            seen = Counter()
            for x in word:
                seen[x] += 1
                if x > 1 and seen[x] > seen[x - 1]:
                    return
            count += 1
            return
        r, c = cells[idx]
        for v in range(1, len(b) + 1):
            left = assignment.get((r, c - 1))
            if left is not None and v < left:
                continue
            up = assignment.get((r - 1, c))
            if up is not None and v <= up:
                continue
            assignment[(r, c)] = v
            rec(idx + 1, assignment)
            del assignment[(r, c)]

    rec(0, {})
    return count


def lr_expand_bruteforce(a, b, rank):
    a, b = normalize(a), normalize(b)
    total = sum(a) + sum(b)
    out = {}
    width = (a[0] if a else 0) + (b[0] if b else 0)
    for nu in enumerate_box_partitions(rank, width):
        if sum(nu) != total:
            continue
        c = lr_coefficient_bruteforce(nu, a, b)
        if c:
            out[nu] = c
    return out


def count_ssyt(shape, n):
    """Semistandard tableaux of `shape` with entries in 1..n, by filling."""
    shape = normalize(shape)
    if len(shape) > n:
        return 0
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]

    def rec(idx, assignment):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        total = 0
        for v in range(1, n + 1):
            left = assignment.get((r, c - 1))
            if left is not None and v < left:
                continue
            up = assignment.get((r - 1, c))
            if up is not None and v <= up:
                continue
            assignment[(r, c)] = v
            total += rec(idx + 1, assignment)
            del assignment[(r, c)]
        return total

    return rec(0, {})


# ---------------------------------------------------------------------------
# lr_expand

def test_lr_spec_examples():
    assert lr_expand((1,), (1,), 2) == {(2,): 1, (1, 1): 1}
    assert lr_expand((2, 1), (), 5) == {(2, 1): 1}
    assert lr_expand((), (3, 2), 5) == {(3, 2): 1}
    assert lr_expand((2, 1), (1,), 3) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_lr_against_bruteforce(rank):
    box = enumerate_box_partitions(2, 2).members
    for a in box:
        for b in box:
            assert lr_expand(a, b, rank) == lr_expand_bruteforce(a, b, rank), (a, b, rank)


def test_lr_bigger_case_against_bruteforce():
    assert lr_expand((2, 1), (2, 1), 3) == lr_expand_bruteforce((2, 1), (2, 1), 3)


def test_lr_symmetry():
    box = enumerate_box_partitions(2, 3).members
    for a in box:
        for b in box:
            for rank in (2, 3, 4):
                assert lr_expand(a, b, rank) == lr_expand(b, a, rank)


# partitions with at most 4 rows and parts at most 3
small_partitions = st.lists(st.integers(1, 3), max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)
lr_settings = settings(derandomize=True, deadline=None, max_examples=100)


@lr_settings
@given(small_partitions, small_partitions, st.integers(1, 5))
def test_lr_property_against_bruteforce(a, b, rank):
    assert lr_expand(a, b, rank) == lr_expand_bruteforce(a, b, rank)


@lr_settings
@given(small_partitions, small_partitions, st.integers(1, 5))
def test_lr_property_symmetric(a, b, rank):
    assert lr_expand(a, b, rank) == lr_expand(b, a, rank)


@pytest.mark.parametrize("a, b", [((1, 2), (1,)), ((1,), (2, 0, 3)), ((1, -1), ()), ((), (0, -2))])
def test_lr_rejects_non_partitions(a, b):
    with pytest.raises(ValueError):
        lr_expand(a, b, 3)


def test_lr_drops_arguments_longer_than_rank():
    assert lr_expand((1, 1, 1), (1,), 2) == {}
    assert lr_expand((1,), (1, 1, 1), 2) == {}
    assert lr_expand((1, 0, 0, 0), (1,), 2) == {(2,): 1, (1, 1): 1}


@pytest.mark.parametrize(
    "weights, rank",
    [
        ([(1, 2)], 2),  # not non-increasing
        ([(0, 0), (2, 1, 1)], 2),  # longer than the rank
        ([(1, -1)], 3),  # a negative entry before the zero padding
        ([(2, 1), (1, 2)], 2),  # a bad factor after a good one
    ],
)
def test_product_expand_rejects_bad_factors(weights, rank):
    with pytest.raises(ValueError):
        product_expand(weights, rank)


def test_product_expand_matches_pairwise_lr():
    # factors with negative entries come back shifted by the summed twists
    assert product_expand([(1, -1), (1, 0)], 2) == {(2, -1): 1, (1, 0): 1}
    assert product_expand([(2, 1), (1,)], 3) == {
        nu + (0,) * (3 - len(nu)): c for nu, c in lr_expand((2, 1), (1,), 3).items()
    }
    assert product_expand([], 2) == {(0, 0): 1}


def test_lr_dimension_bookkeeping():
    box = enumerate_box_partitions(3, 3).members
    for n in range(1, 6):
        for a in box:
            for b in box:
                total = sum(c * schur_dimension(nu, n) for nu, c in lr_expand(a, b, n).items())
                assert total == schur_dimension(a, n) * schur_dimension(b, n)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_skew_dimension_matches_lr_sum(n):
    # s_{lam/mu}(1^n) = sum over nu of c^lam_{mu,nu} dim S^nu(k^n); nu lies in lam's box
    box = enumerate_box_partitions(3, 3).members
    for lam in box:
        for mu in box:
            total = sum(lr_expand(mu, nu, 3).get(lam, 0) * schur_dimension(nu, n) for nu in box)
            skew = _skew_dimension(as_weight(lam, 3), as_weight(mu, 3), n)
            assert skew == total, (lam, mu)
            if any(b > a for a, b in zip(as_weight(lam, 3), as_weight(mu, 3))):
                assert skew == 0


# ---------------------------------------------------------------------------
# hom_expand

def test_hom_spec_examples():
    assert hom_expand((), (2, 1), 3) == {(2, 1, 0): 1}
    assert hom_expand((1,), (1,), 2) == {(1, -1): 1, (0, 0): 1}
    assert hom_expand((1, 1), (), 2) == {(-1, -1): 1}


def test_hom_dimension_check():
    for d, cols in [(2, 2), (3, 2)]:
        box = enumerate_box_partitions(d, cols).members
        for a in box:
            for b in box:
                total = sum(
                    mult * schur_dimension(g, d) for g, mult in hom_expand(a, b, d).items()
                )
                assert total == schur_dimension(a, d) * schur_dimension(b, d)


def test_hom_character_identity():
    """Character check, independent of the LR path.

    Evaluate both sides of Hom(S^a, S^b) = sum of S^gamma at x_i = t^(c_i)
    via semistandard enumeration; exponents spaced out enough to make the
    specialization faithful on all weights that can occur.
    """
    exps = (0, 1, 37)
    rank = 3

    def character(weight):
        return Counter(split_bundle_expand(weight, exps))

    box = enumerate_box_partitions(rank, 2).members
    for a in box:
        for b in box:
            lhs = Counter()
            left = split_bundle_expand(a, tuple(-c for c in exps))
            right = split_bundle_expand(b, exps)
            for da, ca in left.items():
                for db, cb in right.items():
                    lhs[da + db] += ca * cb
            rhs = Counter()
            for gamma, mult in hom_expand(a, b, rank).items():
                for d, c in character(gamma).items():
                    rhs[d] += mult * c
            assert +lhs == +rhs, (a, b)


def test_hom_lower_bound():
    box = enumerate_box_partitions(2, 3).members
    for a in box:
        for b in box:
            for gamma in hom_expand(a, b, 2):
                assert gamma[-1] >= -(a[0] if a else 0)
                assert gamma[-1] >= -3


# ---------------------------------------------------------------------------
# schur_dimension

def test_dimension_spec_examples():
    assert schur_dimension((1, 1), 4) == 6
    assert schur_dimension((2,), 4) == 10
    assert schur_dimension((2, 1), 3) == 8


def test_dimension_against_ssyt_count():
    for lam in enumerate_box_partitions(3, 3).members:
        for n in (1, 2, 3, 4):
            assert schur_dimension(lam, n) == count_ssyt(lam, n), (lam, n)


def test_dimension_shift_invariance():
    assert schur_dimension((1, -1), 2) == schur_dimension((2, 0), 2) == 3
    assert schur_dimension((0, -2, -2), 3) == schur_dimension((2, 0, 0), 3)


def test_dimension_rejections():
    assert schur_dimension((1, 1), 1) == 0
    with pytest.raises(ValueError):
        schur_dimension((1, -1), 1)


# ---------------------------------------------------------------------------
# split_bundle_expand / twist_weight

def test_split_spec_examples():
    assert split_bundle_expand((1,), (0, 1)) == {0: 1, 1: 1}
    assert split_bundle_expand((2,), (0, 1)) == {0: 1, 1: 1, 2: 1}
    assert split_bundle_expand((1, 1), (0, 1)) == {1: 1}


def test_split_total_multiplicity_and_permutation_invariance():
    degrees = (0, 1, -2)
    for lam in enumerate_box_partitions(3, 2).members:
        counts = split_bundle_expand(lam, degrees)
        assert sum(counts.values()) == schur_dimension(lam, 3)
        assert counts == split_bundle_expand(lam, (-2, 1, 0))


def test_split_negative_weight_normalization():
    # S^(0,-1) of O(a) (+) O(b) is the dual bundle: degrees -a, -b
    assert split_bundle_expand((0, -1), (0, 1)) == {-1: 1, 0: 1}


def test_twist_weight():
    assert twist_weight((2, 1), 1) == ((2, 1), 3)
    assert twist_weight((3, 1, 1), 0) == ((3, 1, 1), 0)
    assert twist_weight((1, 1), -2) == ((1, 1), -4)
    with pytest.raises(ValueError):
        twist_weight((1, -1), 1)


def test_dual_weight():
    assert dual_weight((2, 0, -1)) == (1, 0, -2)
    assert dual_weight(dual_weight((3, 1))) == (3, 1)
