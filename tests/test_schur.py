import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltcheck.partitions import enumerate_box_partitions, normalize
from tiltcheck.schur import (
    _skew_dimension,
    _ssyt_degree_counts,
    as_weight,
    dual_weight,
    lr_expand,
    normalizing_shift,
    product_expand,
    schur_dimension,
    split_bundle_expand,
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


def tableau_degree_counts(shape, degrees):
    """{total degree: count} over the semistandard fillings of the partition
    `shape` by letters 0..k-1, letter v of degree degrees[v], visiting every
    tableau one cell at a time."""
    k = len(degrees)
    counts = {}
    rows = len(shape)

    def fill(row, col, filled, prev_in_row, deg):
        if row == rows:
            counts[deg] = counts.get(deg, 0) + 1
            return
        if col == shape[row]:
            fill(row + 1, 0, filled, 0, deg)
            return
        lo = prev_in_row
        if row > 0:
            lo = max(lo, filled[row - 1][col] + 1)
        for v in range(lo, k):
            if row + 1 < rows and col < shape[row + 1]:
                row_vals = filled[row][:col] + (v,) + filled[row][col + 1:]
                new_filled = filled[:row] + (row_vals,) + filled[row + 1:]
            else:
                new_filled = filled
            fill(row, col + 1, new_filled, v, deg + degrees[v])

    fill(0, 0, tuple((0,) * r for r in shape), 0, 0)
    return counts


def count_ssyt(shape, n):
    """Semistandard tableaux of `shape` with entries in 1..n, by filling."""
    return sum(tableau_degree_counts(normalize(shape), (0,) * n).values())


def hook_content_reference(w, n):
    """The hook-content product that normalizes w + m a second time and counts
    each column length by its own scan of the rows."""
    if n < 1:
        raise ValueError("n must be positive")
    w = tuple(int(x) for x in w)
    if len(w) > n:
        if min(w) < 0:
            raise ValueError(f"extended weight {w} needs more than {n} slots")
        return 0 if len(normalize(w)) > n else hook_content_reference(normalize(w), n)
    w = as_weight(w, n)
    m = normalizing_shift(w)
    lam = normalize(tuple(x + m for x in w))
    conj = [sum(1 for row in lam if row > j) for j in range(lam[0])] if lam else []
    num = 1
    den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= row - j + conj[j] - i - 1
    if num % den:
        raise ArithmeticError(f"hook-content quotient {num}/{den} for {w} is not an integer")
    return num // den


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
# Hom expansions

def hom_expand(a, b, rank):
    """S^(-a) (x) S^b, the Hom of S^a(F), S^b(F) for F of rank `rank`."""
    return product_expand([dual_weight(as_weight(a, rank)), b], rank)


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
    by the split expansion (the branching rule, checked against tableau
    enumeration below); exponents spaced out enough to make the
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


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.integers(-3, 4), max_size=6), st.booleans(), st.integers(1, 5))
def test_dimension_kernel_against_reference_and_tableaux(parts, ordered, n):
    # unordered draws check that both kernels refuse with the same message
    w = tuple(sorted(parts, reverse=True)) if ordered else tuple(parts)
    lean = _value_or_error(schur_dimension, w, n)
    assert lean == _value_or_error(hook_content_reference, w, n), (w, n)
    if isinstance(lean, int):
        m = normalizing_shift(w) if len(w) <= n else 0
        assert lean == count_ssyt(tuple(x + m for x in w), n), (w, n)


def test_dimension_is_not_quadratic_in_n():
    # quadratic work in n (Weyl's product over all pairs of rows, or stripping
    # the zero rows one at a time) takes seconds to minutes here
    assert schur_dimension((1,), 10**5) == 10**5


def test_dimension_cost_follows_the_rows_not_n():
    # a weight padded to n entries would take gigabytes here
    n = 10**9
    tracemalloc.start()
    try:
        assert schur_dimension((2, 1), n) == n * (n - 1) * (n + 1) // 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_skew_kernel_refuses_a_negative_count():
    # rows that are not non-increasing make the determinant negative; no
    # tableau count is, so the kernel raises instead of returning it
    with pytest.raises(ArithmeticError, match="-3 < 0"):
        _skew_dimension((0, 2), (0, 0), 3)
    assert _skew_dimension((2, 0), (0, 0), 3) == 6


# ---------------------------------------------------------------------------
# split_bundle_expand

def test_split_spec_examples():
    assert split_bundle_expand((1,), (0, 1)) == {0: 1, 1: 1}
    assert split_bundle_expand((2,), (0, 1)) == {0: 1, 1: 1, 2: 1}
    assert split_bundle_expand((1, 1), (0, 1)) == {1: 1}
    assert split_bundle_expand((), (0, 2, 5)) == {0: 1}
    assert split_bundle_expand((3,), (4,)) == {12: 1}
    # S^(2,1,1) of a rank-3 bundle F is det F (x) F
    assert split_bundle_expand((2, 1, 1), (0, 1, 3)) == {4: 1, 5: 1, 7: 1}


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
    # S^w(F (x) L^t) = S^w(F) (x) L^(|w| t): twisting a split bundle by O(t)
    # shifts every summand degree by |w| t
    degrees = (0, 1, 3)
    for w, t, shift in [((2, 1), 1, 3), ((3, 1, 1), 0, 0), ((1, 1), -2, -4), ((1, 0, -1), 1, 0)]:
        twisted = split_bundle_expand(w, tuple(d + t for d in degrees))
        assert twisted == {k + shift: c for k, c in split_bundle_expand(w, degrees).items()}


@st.composite
def split_cases(draw):
    """(weight, degrees, shape, shift): a shape of at most 5 rows and 5
    columns, padded to one entry per letter and lowered by the shift, so
    that the weight has negative entries whenever the shift is positive."""
    degrees = tuple(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6)))
    rows = draw(st.lists(st.integers(1, 5), max_size=min(5, len(degrees))))
    shape = tuple(sorted(rows, reverse=True))
    shift = draw(st.integers(0, 3))
    weight = tuple(x - shift for x in shape + (0,) * (len(degrees) - len(shape)))
    return weight, degrees, shape, shift


@settings(derandomize=True, deadline=None, max_examples=100)
@given(split_cases())
def test_split_property_against_tableau_enumeration(case):
    # S^(shape - shift) is S^shape (x) det^(-shift), and det has degree sum(degrees)
    weight, degrees, shape, shift = case
    expected = {deg - shift * sum(degrees): c
                for deg, c in tableau_degree_counts(shape, degrees).items()}
    counts = split_bundle_expand(weight, degrees)
    assert counts == expected
    assert list(counts) == sorted(counts)


@pytest.mark.parametrize("shape, degrees", [
    ((), (0, 2, 5)),  # empty shape
    ((), (4,)),
    ((3,), (4,)),  # one letter
    ((1, 1), (4,)),  # more rows than letters: no filling
    ((2, 1, 1), (0, 1, 3)),  # as many rows as letters
    ((3, 2, 2), (-1, 2, 2)),
    ((5, 4, 3, 2, 1), (3, -1, 0, 2, 2)),
])
def test_kernel_edge_cases_against_tableau_enumeration(shape, degrees):
    assert _ssyt_degree_counts(shape, degrees) == tableau_degree_counts(shape, degrees)
    if len(shape) <= len(degrees):
        assert split_bundle_expand(shape, degrees) == tableau_degree_counts(shape, degrees)


def test_kernel_on_equal_degrees_is_the_dimension():
    # split_bundle_expand answers equal degrees by schur_dimension, without
    # the kernel; the kernel must agree there too
    for lam in enumerate_box_partitions(3, 3).members:
        for n in (1, 2, 3, 4):
            dim = schur_dimension(lam, n)
            for d in (-2, 0, 3):
                assert _ssyt_degree_counts(lam, (d,) * n) == ({d * sum(lam): dim} if dim else {})


def test_dual_weight():
    assert dual_weight((2, 0, -1)) == (1, 0, -2)
    assert dual_weight(dual_weight((3, 1))) == (3, 1)
