"""Symbolic Schur-functor arithmetic over arbitrary-precision integers.

Weights with negative entries are handled through the determinant shift
S^w(F) = S^(w+m)(F) (x) det(F)^(-m) with m the minimal normalizing shift, so
every routine ultimately reduces to honest partition combinatorics.  No
floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .partitions import normalize


def as_weight(w, length: int) -> tuple[int, ...]:
    """Pad a non-increasing integer sequence with zeros up to `length`."""
    w = tuple(int(x) for x in w)
    if len(w) > length:
        raise ValueError(f"weight {w} longer than declared length {length}")
    if len(w) < length:
        if w and w[-1] < 0:
            raise ValueError(f"cannot zero-pad weight {w} with a negative tail")
        w = w + (0,) * (length - len(w))
    for i in range(length - 1):
        if w[i] < w[i + 1]:
            raise ValueError(f"not non-increasing: {w}")
    return w


def dual_weight(w) -> tuple[int, ...]:
    """Reversed negation (-w_l, ..., -w_1), the weight of the dual functor."""
    return tuple(-x for x in reversed(tuple(w)))


def normalizing_shift(w) -> int:
    """Minimal m >= 0 with w + m a partition."""
    w = tuple(w)
    return max(0, -min(w)) if w else 0


def _partition(w) -> tuple[int, ...]:
    """Strip the zero tail of a weight already known to be a partition."""
    return w[:w.index(0)] if 0 in w else w


def _strips_last(a, b):
    """Canonical LR argument order: the partition with fewer cells last."""
    return (a, b) if (sum(b), b) <= (sum(a), a) else (b, a)


@lru_cache(maxsize=None)
def lr_expand(a, b, rank: int) -> dict:
    """Littlewood-Richardson expansion of S^a (x) S^b on a rank-`rank` space.

    Returns {partition: multiplicity}; terms with more than `rank` rows are
    dropped, as forced by the rank.  As c^nu_{a,b} = c^nu_{b,a}, the argument
    with fewer cells (the last in `_strips_last` order, which callers use for
    one cache entry per unordered pair) is enumerated as ballot sequences of
    horizontal strips, placed row by row: strip i (the cells holding letter
    i) joins the shape grown so far subject to the lattice-word condition
    cum_i(r) <= cum_{i-1}(r-1) on cumulative row counts.
    """
    if rank < 1:
        raise ValueError("rank must be positive")
    a, b = _strips_last(normalize(a), normalize(b))
    if len(a) > rank or len(b) > rank:
        return {}
    # state: (shape padded to rank, cumulative row counts of the previous letter)
    states = {(a + (0,) * (rank - len(a)), None): 1}
    for strip_size in b:
        new_states: dict = {}
        for (base, cum_prev), mult in states.items():
            # strips over the rows above `row`: (their rows, cumulative counts
            # of this letter, cells left); complete once no cells are left,
            # dead if cells are left after the last row
            partial = [((), (), strip_size)]
            for row in range(rank):
                # bounds: no two cells in one column; the lattice-word condition
                cap = base[row - 1] - base[row] if row else strip_size
                lattice = strip_size if cum_prev is None else cum_prev[row - 1] if row else 0
                here = base[row]
                grown = []
                for head, cum, left in partial:
                    done = strip_size - left
                    upper = lattice - done
                    if cap < upper:
                        upper = cap
                    if left <= upper:
                        shape = head + (here + left,) + base[row + 1:]
                        key = (shape, cum + (strip_size,) * (rank - row))
                        new_states[key] = new_states.get(key, 0) + mult
                        upper = left - 1
                    if row + 1 < rank:
                        for s in range(upper + 1):
                            grown.append((head + (here + s,), cum + (done + s,), left - s))
                partial = grown
        states = new_states
    result: dict[tuple[int, ...], int] = {}
    for (shape, _), mult in states.items():
        key = _partition(shape)
        result[key] = result.get(key, 0) + mult
    return result


def product_expand(weights, rank: int) -> dict:
    """Expansion of a tensor product of extended Schur functors.

    Each factor is a non-increasing integer weight of length <= rank; the
    output maps full-length weights (possibly with negative entries) to
    multiplicities.  Factors are validated on entry only: each is shifted to
    a partition, so the running product is a sum of trusted LR terms.
    """
    factors = [as_weight(w, rank) for w in weights]
    shift_total = 0
    current: dict[tuple[int, ...], int] = {(): 1}
    for w in factors:
        m = normalizing_shift(w)
        shift_total += m
        part = _partition(tuple(x + m for x in w))
        updated: dict[tuple[int, ...], int] = {}
        for acc, mult in current.items():
            for nu, c in lr_expand(*_strips_last(acc, part), rank).items():
                updated[nu] = updated.get(nu, 0) + mult * c
        current = updated
    return {tuple(x - shift_total for x in nu) + (-shift_total,) * (rank - len(nu)): c
            for nu, c in current.items()}


def schur_dimension(w, n: int) -> int:
    """Dimension of the irreducible GL_n representation with highest weight w.

    Hook-content product on the shift-normalized partition; equals the number
    of semistandard tableaux with entries in {1..n}.  A partition with more
    than n rows gives 0 (the functor vanishes); an extended weight declared
    longer than n is rejected, since negative tails have no such convention.
    """
    if n < 1:
        raise ValueError("n must be positive")
    w = tuple(int(x) for x in w)
    if len(w) > n:
        if min(w) < 0:
            raise ValueError(f"extended weight {w} needs more than {n} slots")
        return 0 if len(normalize(w)) > n else schur_dimension(normalize(w), n)
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


def _skew_dimension(lam, mu, n: int) -> int:
    """s_{lam/mu}(1^n) for partitions padded to one common length.

    Skew Jacobi-Trudi (Macdonald, Symmetric Functions, ch. I (5.4)):
    det[h_{lam_i - mu_j - i + j}(1^n)] with h_k(1^n) = C(n + k - 1, k) and
    h_k = 0 for k < 0.  It is 0 unless mu is contained in lam.  Only the
    differences lam_i - mu_j enter, so extended weights give the value of
    their common shift to partitions.  The determinant is exact
    fraction-free (Bareiss) elimination.
    """
    size = len(lam)
    m = [[comb(n + k - 1, k) if k >= 0 else 0
          for k in (lam[i] - mu[j] - i + j for j in range(size))] for i in range(size)]
    sign, prev = 1, 1
    for k in range(size - 1):
        if not m[k][k]:
            pivot = next((r for r in range(k + 1, size) if m[r][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


def _ssyt_degree_counts(shape, degrees) -> dict[int, int]:
    """Total twisting degrees of semistandard fillings of `shape`."""
    k = len(degrees)
    counts: dict[int, int] = {}
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

    start = tuple(tuple(0 for _ in range(r)) for r in shape)
    fill(0, 0, start, 0, 0)
    return counts


def split_bundle_expand(w, degrees) -> dict[int, int]:
    """Degrees of the line-bundle summands of S^w applied to (+) O(d_k).

    One summand per semistandard tableau of shape w in the alphabet indexing
    `degrees`; negative weights are first normalized by a determinant twist,
    which shifts every degree by -m * sum(degrees).
    """
    degrees = tuple(int(d) for d in degrees)
    if not degrees:
        raise ValueError("need at least one degree")
    w = as_weight(w, len(degrees))
    m = normalizing_shift(w)
    lam = normalize(tuple(x + m for x in w))
    if len(lam) > len(degrees):
        return {}
    offset = -m * sum(degrees)
    if len(set(degrees)) == 1:
        # all summands share one degree; multiplicity is the plain dimension
        total = schur_dimension(lam, len(degrees))
        return {degrees[0] * sum(lam) + offset: total} if total else {}
    counts = _ssyt_degree_counts(lam, degrees)
    return {d + offset: c for d, c in sorted(counts.items())}
