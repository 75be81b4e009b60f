"""Symbolic Schur-functor arithmetic over arbitrary-precision integers.

Weights with negative entries are handled through the determinant shift
S^w(F) = S^(w+m)(F) (x) det(F)^(-m) with m the minimal normalizing shift, so
every routine ultimately reduces to honest partition combinatorics.  No
floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

from .partitions import json_int, json_ints, normalize


def _checked_weight(w, length: int) -> tuple[int, ...]:
    """`w` as a tuple, unpadded, if `as_weight` can pad it to `length`."""
    w = json_ints(w, "weight entry")
    if len(w) > length:
        raise ValueError(f"weight {w} longer than declared length {length}")
    if len(w) < length and w and w[-1] < 0:
        raise ValueError(f"cannot zero-pad weight {w} with a negative tail")
    for i in range(len(w) - 1):
        if w[i] < w[i + 1]:
            raise ValueError(f"not non-increasing: {w}")
    return w


def as_weight(w, length: int) -> tuple[int, ...]:
    """Pad a non-increasing integer sequence with zeros up to `length`."""
    w = _checked_weight(w, json_int(length, "length"))
    return w + (0,) * (length - len(w))


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


def lr_expand(a, b, rank: int) -> dict:
    """Littlewood-Richardson expansion of S^a (x) S^b on a rank-`rank` space.

    Returns {partition: multiplicity}, without the terms of more than `rank`
    rows.  The weights are checked and ordered before the cache, `_lr_kernel`'s,
    is read, so it answers only for a canonical pair.
    """
    if json_int(rank, "rank") < 1:
        raise ValueError("rank must be positive")
    a, b = normalize(a), normalize(b)
    # one entry per unordered pair: the partition with fewer cells last
    return _lr_kernel(a, b, rank) if (sum(b), b) <= (sum(a), a) else _lr_kernel(b, a, rank)


@lru_cache(maxsize=None)
def _lr_kernel(a, b, rank: int) -> dict:
    """`lr_expand` of checked partitions, b the one with fewer cells.

    As c^nu_{a,b} = c^nu_{b,a}, b is enumerated as ballot sequences of
    horizontal strips, placed row by row: strip i (the cells holding letter i)
    joins the shape grown so far subject to the lattice-word condition
    cum_i(r) <= cum_{i-1}(r-1) on cumulative row counts.
    """
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


lr_expand.cache_info, lr_expand.cache_clear = _lr_kernel.cache_info, _lr_kernel.cache_clear


def product_expand(weights, rank: int) -> dict:
    """Expansion of a tensor product of extended Schur functors.

    Each factor is a non-increasing integer weight of length <= rank; the
    output maps full-length weights (possibly with negative entries) to
    multiplicities.  Factors are validated on entry only: each is shifted to
    a partition, so the running product is a sum of trusted LR terms.
    """
    rank = json_int(rank, "rank")
    factors = [as_weight(w, rank) for w in weights]
    shift_total = 0
    current: dict[tuple[int, ...], int] = {(): 1}
    for w in factors:
        m = normalizing_shift(w)
        shift_total += m
        part = _partition(tuple(x + m for x in w))
        updated: dict[tuple[int, ...], int] = {}
        for acc, mult in current.items():
            for nu, c in lr_expand(acc, part, rank).items():
                updated[nu] = updated.get(nu, 0) + mult * c
        current = updated
    return {tuple(x - shift_total for x in nu) + (-shift_total,) * (rank - len(nu)): c
            for nu, c in current.items()}


def schur_dimension(w, n: int) -> int:
    """Dimension of the irreducible GL_n representation with highest weight w.

    `_skew_dimension` of the shift-normalized partition's rows over the
    empty shape: the number of semistandard tableaux with entries in {1..n},
    at a cost that follows the rows, not n.  A partition with more than n
    rows gives 0 (the functor vanishes); an extended weight declared longer
    than n is rejected, since negative tails have no such convention.
    """
    if json_int(n, "n") < 1:
        raise ValueError("n must be positive")
    w = json_ints(w, "weight entry")
    if len(w) > n:
        if min(w) < 0:
            raise ValueError(f"extended weight {w} needs more than {n} slots")
        w = normalize(w)
        if len(w) > n:
            return 0
    w = _checked_weight(w, n)
    m = normalizing_shift(w)
    rows = tuple(x + m for x in w if x + m)
    return _skew_dimension(rows, (0,) * len(rows), n)


def _skew_dimension(lam, mu, n: int) -> int:
    """s_{lam/mu}(1^n) for partitions padded to one common length.

    Skew Jacobi-Trudi (Macdonald, Symmetric Functions, ch. I (5.4)):
    det[h_{lam_i - mu_j - i + j}(1^n)] with h_k(1^n) = C(n + k - 1, k) and
    h_k = 0 for k < 0.  It is 0 unless mu is contained in lam.  Only the
    differences lam_i - mu_j enter, so extended weights give the value of
    their common shift to partitions.  The one kernel of every Schur count
    (`schur_dimension` is mu = 0), by exact fraction-free (Bareiss)
    elimination; it counts tableaux, so a negative value raises
    ArithmeticError.
    """
    size = len(lam)
    if not size:
        return 1
    # entry (i, j) is h_(rows[i] - cols[j]), from one h_k(1^n) list
    rows = [x - i for i, x in enumerate(lam)]
    cols = [y - j for j, y in enumerate(mu)]
    h = [comb(n + k - 1, k) for k in range(max(rows) - min(cols) + 1)]
    m = [[h[r - c] if r >= c else 0 for c in cols] for r in rows]
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
    value = sign * m[-1][-1]
    if value < 0:
        raise ArithmeticError(f"s_(lam/mu)(1^{n}) = {value} < 0 for lam {lam}, mu {mu}")
    return value


def _ssyt_degree_counts(shape, degrees) -> dict[int, int]:
    """Total twisting degrees of semistandard fillings of the partition `shape`.

    Branching rule (Macdonald, Symmetric Functions, ch. I (5.11)): letter k
    fills a horizontal strip nu/mu worth |nu/mu| * degrees[k], and each mu
    inside `shape` carries {degree: count} over the letters so far.  Row i
    of nu has max(mu_i, shape_(i+left)) <= nu_i <= min(shape_i, mu_(i-1));
    the floor drops every nu with a column of shape/nu longer than the
    `left` letters still to come.
    """
    padded = shape + (0,) * len(degrees)
    states = {(0,) * len(shape): {0: 1}}
    for k, d in enumerate(degrees):
        left = len(degrees) - 1 - k
        grown: dict = {}
        for mu, counts in states.items():
            ranges = [range(max(low, floor), min(top, cap) + 1)
                      for low, floor, top, cap in zip(mu, padded[left:], shape, shape[:1] + mu)]
            for nu in product(*ranges):
                shift = (sum(nu) - sum(mu)) * d
                target = grown.setdefault(nu, {})
                for deg, c in counts.items():
                    target[deg + shift] = target.get(deg + shift, 0) + c
        states = grown
    return states.get(shape, {})


def split_bundle_expand(w, degrees) -> dict[int, int]:
    """Degrees of the line-bundle summands of S^w applied to (+) O(d_k).

    One summand per semistandard tableau of shape w in the alphabet indexing
    `degrees`, counted by the branching rule, in increasing degree; if all
    degrees are equal, the one count is `schur_dimension`.  Negative weights
    are first normalized by a determinant twist, which shifts every degree by
    -m * sum(degrees).
    """
    degrees = json_ints(degrees, "degree")
    if not degrees:
        raise ValueError("need at least one degree")
    w = as_weight(w, len(degrees))
    m = normalizing_shift(w)
    lam = normalize(tuple(x + m for x in w))
    offset = -m * sum(degrees)
    if len(set(degrees)) == 1:
        # all summands share one degree; multiplicity is the plain dimension
        total = schur_dimension(lam, len(degrees))
        return {degrees[0] * sum(lam) + offset: total} if total else {}
    counts = _ssyt_degree_counts(lam, degrees)
    return {d + offset: c for d, c in sorted(counts.items())}
