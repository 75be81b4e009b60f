"""Cohomology of homogeneous bundles on GL(n) partial flag varieties.

Conventions
-----------
A point of Flag(l_1 < ... < l_m; n) is a chain of subspaces; D_1 = R_1,
D_2 = R_2/R_1, ..., D_{m+1} = V/R_m are the successive quotients of the
tautological filtration.  A homogeneous bundle is stored as one weight block
per successive quotient, block i being the weight of the factor
S^{block_i}(D_i^dual).  With this convention the dotted Weyl walk below
returns cohomology valued in Schur functors of V^dual: concatenate the
blocks, add rho = (n-1, ..., 0), kill repeats, otherwise sort and count
inversions.  Helper constructors encode the usual bundles so the convention
is testable rather than folklore.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate, combinations
from math import comb
from operator import add, sub
from typing import Optional

from .partitions import FrozenValue, json_int, json_ints, normalize
from .schur import as_weight, dual_weight, schur_dimension, split_bundle_expand


class FlagSpace(FrozenValue):
    """Flag(steps; n); a single step encodes the Grassmannian of that rank."""

    __slots__ = _fields = ("n", "steps")

    def __init__(self, n: int, steps: tuple[int, ...]):
        if json_int(n, "n") < 1:
            raise ValueError("n must be positive")
        steps = json_ints(steps, "step")
        if not steps:
            raise ValueError("need at least one step")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("steps must be strictly increasing")
        if steps[0] < 1 or steps[-1] >= n:
            raise ValueError(f"steps {steps} out of range for n={n}")
        self._set(n, steps)

    @property
    def block_lengths(self) -> tuple[int, ...]:
        cuts = (0,) + self.steps + (self.n,)
        return tuple(b - a for a, b in zip(cuts, cuts[1:]))

    def dimension(self) -> int:
        cuts = self.steps + (self.n,)
        return sum(l * (nxt - l) for l, nxt in zip(self.steps, cuts[1:]))

    @property
    def is_grassmannian(self) -> bool:
        return len(self.steps) == 1


def grassmannian(d: int, n: int) -> FlagSpace:
    return FlagSpace(n, (d,))


def projective_space(m: int) -> FlagSpace:
    return FlagSpace(json_int(m, "m") + 1, (1,))


class HomogeneousBundle(FrozenValue):
    __slots__ = _fields = ("space", "blocks")

    def __init__(self, space: FlagSpace, blocks: tuple[tuple[int, ...], ...]):
        self._set(space, blocks)
        self.__post_init__()

    def __post_init__(self):
        # a method of its own: perfbench counts its calls as constructions
        blocks = tuple(json_ints(b, "block entry") for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        lengths = tuple(len(b) for b in blocks)
        if lengths != self.space.block_lengths:
            raise ValueError(
                f"block lengths {lengths} do not match {self.space.block_lengths}"
            )
        for b in blocks:
            for i in range(len(b) - 1):
                if b[i] < b[i + 1]:
                    raise ValueError(f"block {b} not non-increasing")

    @property
    def weight(self) -> tuple[int, ...]:
        return tuple(x for b in self.blocks for x in b)


def of_sub(space: FlagSpace, lam) -> HomogeneousBundle:
    """S^lam(R) on a Grassmannian, R the tautological subbundle."""
    if not space.is_grassmannian:
        raise ValueError("of_sub is a single-step helper")
    d = space.steps[0]
    w = as_weight(tuple(lam), d)
    return HomogeneousBundle(space, (dual_weight(w), (0,) * (space.n - d)))


def of_sub_dual(space: FlagSpace, lam) -> HomogeneousBundle:
    """S^lam(R^dual) on a Grassmannian."""
    if not space.is_grassmannian:
        raise ValueError("of_sub_dual is a single-step helper")
    d = space.steps[0]
    return HomogeneousBundle(space, (as_weight(tuple(lam), d), (0,) * (space.n - d)))


def of_quot(space: FlagSpace, lam) -> HomogeneousBundle:
    """S^lam(Q) on a Grassmannian, Q the tautological quotient."""
    if not space.is_grassmannian:
        raise ValueError("of_quot is a single-step helper")
    d = space.steps[0]
    w = as_weight(tuple(lam), space.n - d)
    return HomogeneousBundle(space, ((0,) * d, dual_weight(w)))


class CohomologyResult(FrozenValue):
    """The single nonvanishing cohomology group; absent groups are None."""

    __slots__ = _fields = ("degree", "dominant_weight", "dimension")

    def __init__(self, degree: int, dominant_weight: Optional[tuple[int, ...]], dimension: int):
        self._set(degree, dominant_weight, dimension)


def dotted_weyl(weight) -> Optional[tuple[int, tuple[int, ...]]]:
    """Dotted Weyl walk: None on a repeat, else (inversions, dominant weight).

    rho is (n-1, ..., 0) for a weight of length n; any constant shift of rho
    gives the same answer.
    """
    rho = range(len(weight) - 1, -1, -1)
    v = tuple(w + r for w, r in zip(weight, rho))
    if len(set(v)) < len(v):
        return None
    inversions = sum(1 for i, j in combinations(range(len(v)), 2) if v[i] < v[j])
    dominant = tuple(x - r for x, r in zip(sorted(v, reverse=True), rho))
    return inversions, dominant


def flag_cohomology(bundle: HomogeneousBundle) -> Optional[CohomologyResult]:
    """H^*(flag space, bundle); at most one degree survives."""
    n = bundle.space.n
    walked = dotted_weyl(bundle.weight)
    if walked is None:
        return None
    degree, dominant = walked
    return CohomologyResult(degree, dominant, schur_dimension(dominant, n))


def pn_line_cohomology(m: int, n: int) -> Optional[CohomologyResult]:
    """H^*(P^n, O(m)) by monomial counting, independent of the Weyl walk.

    n = 0 (a point) is allowed; every degree then has a one-dimensional H^0.
    """
    if json_int(n, "n") < 0:
        raise ValueError("n must be non-negative")
    m = json_int(m, "m")
    if n == 0:
        return CohomologyResult(0, None, 1)
    if m >= 0:
        return CohomologyResult(0, None, comb(n + m, n))
    if m <= -n - 1:
        return CohomologyResult(n, None, comb(-m - 1, n))
    return None


def _times_one_minus(p, k: int):
    """p(t) * (1 - t^k) for a dense Laurent polynomial p = (low, coeffs), k > 0."""
    lo, c = p
    out = c + [0] * k
    out[k:] = map(sub, out[k:], c)
    return lo, out


def _div_one_minus(p, k: int):
    """Exact division of a dense Laurent polynomial by (1 - t^k), k > 0.

    The quotient satisfies q_i = p_i + q_(i-k): a running sum along each
    residue class mod k.  Its top k coefficients must come out zero.
    """
    lo, c = p
    q = list(c)
    for r in range(k):
        q[r::k] = accumulate(c[r::k])
    top = max(0, len(q) - k)
    if any(q[top:]):
        raise ArithmeticError("localization numerator not divisible by (1 - t^k)")
    return lo, q[:top]


def _plus(p, q):
    """Sum of two dense Laurent polynomials."""
    if q[0] < p[0]:
        p, q = q, p
    (lo, c), (lo_q, cq) = p, q
    i = lo_q - lo
    out = c + [0] * max(0, i + len(cq) - len(c))
    out[i:i + len(cq)] = map(add, out[i:i + len(cq)], cq)
    return lo, out


@lru_cache(maxsize=None)
def _schur_at_powers(w: tuple, exponents: tuple):
    """s_w(t^e_1, ..., t^e_d) as a dense Laurent polynomial.

    Read off `split_bundle_expand`: s_w is the sum over the semistandard
    tableaux of shape w of t^(sum of the exponents of their entries), which
    the branching rule (Macdonald, Symmetric Functions, ch. I (5.11)) counts
    by degree.  Returns (low exponent, coefficient tuple): the value is
    memoized, so it is immutable.  A weight longer than the exponents is
    refused there, by `as_weight`.
    """
    terms = split_bundle_expand(w, exponents)
    lo = min(terms)
    return lo, tuple(terms.get(deg, 0) for deg in range(lo, max(terms) + 1))


@lru_cache(maxsize=None)
def _fixed_points(d: int, n: int) -> tuple:
    """(I, sign, shift, tangent multiset) for each fixed d-subset I of 0..n-1.

    The tangent factors at I are (1 - t^(c_i - c_j)), i in I and j not in I;
    a factor with negative exponent is rewritten as (1 - t^(-k)) =
    -t^(-k) (1 - t^k), its sign and shift folded into the numerator.  The
    multiset is the sorted (k, count) tuple of the factors (1 - t^k).
    """
    points = []
    for inside in combinations(range(n), d):
        factors: dict[int, int] = {}
        shift = 0
        sign = 1
        for ci in inside:
            for cj in range(n):
                if cj in inside:
                    continue
                e = ci - cj
                if e < 0:
                    sign = -sign
                    shift -= e
                    e = -e
                factors[e] = factors.get(e, 0) + 1
        points.append((inside, sign, shift, tuple(sorted(factors.items()))))
    return tuple(points)


def localization_euler(a, b, d: int, n: int) -> int:
    """chi(S^a(R)^dual (x) S^b(R)) on Grass(d, n) by fixed-point summation.

    The torus is specialized to one parameter, x_i = t^(c_i) with distinct
    exponents; each fixed d-subset contributes its character, the Schur
    polynomials s_a(x^-1) s_b(x) over its d variables, over the tangent
    factors (1 - t^(c_i - c_j)); both are read off one memoized tableau count
    per weight and gap pattern I - min(I).  The numerators of fixed points
    with one multiset of tangent factors are summed first; each group is then
    brought to the common denominator once, and the total divided by it
    exactly.  What is left is a Laurent polynomial (the virtual character),
    whose value at t = 1 is the Euler characteristic.  All arithmetic is
    exact integer Laurent-polynomial work.  The exponents are 0, ..., n-1:
    being distinct, they make every tangent factor nonzero, and since scaling
    all of them by k only substitutes t -> t^k, no other choice could change
    whether the exact division succeeds.  A failure raises ArithmeticError.
    """
    if not 1 <= json_int(d, "d") < json_int(n, "n"):
        raise ValueError("need 1 <= d < n")
    a, b = normalize(a), normalize(b)
    size_a, size_b = sum(a), sum(b)
    # term_I = N_I(t) / prod over its tangent multiset of (1 - t^k)
    groups: dict[tuple[tuple[int, int], ...], tuple[int, list[int]]] = {}
    for inside, sign, shift, key in _fixed_points(d, n):
        # s_w is homogeneous of degree |w|, so s_w(t^(base+g)) = t^(base |w|)
        # s_w(t^g), and s_w(t^-g) is s_w(t^g) with its coefficients reversed:
        # both characters come from the memoized values at the gaps g
        base = inside[0]
        gaps = tuple(c - base for c in inside)
        lo_a, ca = _schur_at_powers(a, gaps)
        lo_b, cb = _schur_at_powers(b, gaps)
        lo_a, ca = -(lo_a + len(ca) - 1) - base * size_a, ca[::-1]
        lo_b += base * size_b
        num = [0] * (len(ca) + len(cb) - 1)
        for i, x in enumerate(ca):
            if x:
                num[i:i + len(cb)] = map(add, num[i:i + len(cb)], [sign * x * y for y in cb])
        num = (lo_a + lo_b + shift, num)
        groups[key] = _plus(groups[key], num) if key in groups else num
    denom_count: dict[int, int] = {}
    for key in groups:
        for k, c in key:
            denom_count[k] = max(denom_count.get(k, 0), c)
    cleared = []
    for key, num in groups.items():
        factors = dict(key)
        for k, c in denom_count.items():
            for _ in range(c - factors.get(k, 0)):
                num = _times_one_minus(num, k)
        cleared.append(num)
    total = reduce(_plus, cleared)
    for k, c in denom_count.items():
        for _ in range(c):
            total = _div_one_minus(total, k)
    return sum(total[1])
