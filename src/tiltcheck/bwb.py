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

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

from .partitions import normalize
from .schur import as_weight, dual_weight, schur_dimension


@dataclass(frozen=True)
class FlagSpace:
    """Flag(steps; n); a single step encodes the Grassmannian of that rank."""

    n: int
    steps: tuple[int, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        if self.n < 1:
            raise ValueError("n must be positive")
        if not steps:
            raise ValueError("need at least one step")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("steps must be strictly increasing")
        if steps[0] < 1 or steps[-1] >= self.n:
            raise ValueError(f"steps {steps} out of range for n={self.n}")

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
    return FlagSpace(m + 1, (1,))


@dataclass(frozen=True)
class HomogeneousBundle:
    space: FlagSpace
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(x) for x in b) for b in self.blocks)
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


@dataclass(frozen=True)
class CohomologyResult:
    """The single nonvanishing cohomology group; absent groups are None."""

    degree: int
    dominant_weight: Optional[tuple[int, ...]]
    dimension: int


def dotted_weyl(weight, rho) -> Optional[tuple[int, tuple[int, ...]]]:
    """Dotted Weyl walk: None on a repeat, else (inversions, dominant weight).

    Any constant shift of rho gives the same answer; the default is
    (n-1, ..., 0).
    """
    v = tuple(w + r for w, r in zip(weight, rho))
    if len(set(v)) < len(v):
        return None
    inversions = sum(1 for i, j in combinations(range(len(v)), 2) if v[i] < v[j])
    dominant = tuple(x - r for x, r in zip(sorted(v, reverse=True), rho))
    return inversions, dominant


def flag_cohomology(bundle: HomogeneousBundle) -> Optional[CohomologyResult]:
    """H^*(flag space, bundle); at most one degree survives."""
    n = bundle.space.n
    rho = tuple(range(n - 1, -1, -1))
    walked = dotted_weyl(bundle.weight, rho)
    if walked is None:
        return None
    degree, dominant = walked
    return CohomologyResult(degree, dominant, schur_dimension(dominant, n))


def pn_line_cohomology(m: int, n: int) -> Optional[CohomologyResult]:
    """H^*(P^n, O(m)) by monomial counting, independent of the Weyl walk.

    n = 0 (a point) is allowed; every degree then has a one-dimensional H^0.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    m = int(m)
    if n == 0:
        return CohomologyResult(0, None, 1)
    if m >= 0:
        return CohomologyResult(0, None, comb(n + m, n))
    if m <= -n - 1:
        return CohomologyResult(n, None, comb(-m - 1, n))
    return None


def _laurent_mul(p: dict, q: dict) -> dict:
    out: dict[int, int] = {}
    for da, ca in p.items():
        for db, cb in q.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _laurent_div_cyclotomic(p: dict, k: int) -> dict:
    """Exact division of a Laurent polynomial by (1 - t^k), k > 0."""
    if not p:
        return {}
    lo, hi = min(p), max(p)
    coeffs = [p.get(i, 0) for i in range(lo, hi + 1)]
    quotient = [0] * len(coeffs)
    for i, g in enumerate(coeffs):
        below = quotient[i - k] if i >= k else 0
        quotient[i] = g + below
    if any(quotient[i] for i in range(max(0, len(coeffs) - k), len(coeffs))):
        raise ArithmeticError("localization numerator not divisible by (1 - t^k)")
    return {lo + i: c for i, c in enumerate(quotient) if c}


def localization_euler(a, b, d: int, n: int) -> int:
    """chi(S^a(R)^dual (x) S^b(R)) on Grass(d, n) by fixed-point summation.

    The torus is specialized to one parameter, x_i = t^(c_i) with distinct
    exponents; each fixed d-subset contributes its character monomials over
    the tangent factors (1 - t^(c_i - c_j)).  Summing over the common
    denominator leaves a Laurent polynomial (the virtual character), whose
    value at t = 1 is the Euler characteristic.  All arithmetic is exact
    integer Laurent-polynomial work.  The exponents are 0, ..., n-1: being
    distinct, they make every tangent factor nonzero, and since scaling all
    of them by k only substitutes t -> t^k, no other choice could change
    whether the exact division succeeds.  A failure raises ArithmeticError.
    """
    if not 1 <= d < n:
        raise ValueError("need 1 <= d < n")
    a, b = normalize(a), normalize(b)
    from .schur import split_bundle_expand

    return _localization_at(a, b, d, n, tuple(range(n)), split_bundle_expand)


def _localization_at(a, b, d, n, exps, split_bundle_expand) -> int:
    # term_I = N_I(t) / prod (1 - t^(c_i - c_j)); negative-exponent factors are
    # rewritten as (1 - t^(-k)) = -t^(-k) (1 - t^k) and folded into N_I.
    terms = []
    denom_count: dict[int, int] = {}
    for subset in combinations(range(n), d):
        inside = [exps[i] for i in subset]
        outside = [exps[j] for j in range(n) if j not in subset]
        num = _laurent_mul(
            dict(split_bundle_expand(a, [-c for c in inside])),
            dict(split_bundle_expand(b, inside)),
        )
        factors: dict[int, int] = {}
        shift = 0
        sign = 1
        for ci in inside:
            for cj in outside:
                e = ci - cj
                if e == 0:
                    raise ArithmeticError("vanishing tangent factor")
                if e < 0:
                    sign = -sign
                    shift += -e
                    e = -e
                factors[e] = factors.get(e, 0) + 1
        num = {deg + shift: sign * c for deg, c in num.items()}
        terms.append((num, factors))
        for k, c in factors.items():
            denom_count[k] = max(denom_count.get(k, 0), c)
    total: dict[int, int] = {}
    for num, factors in terms:
        for k, c in denom_count.items():
            missing = c - factors.get(k, 0)
            for _ in range(missing):
                num = _laurent_mul(num, {0: 1, k: -1})
        for deg, coeff in num.items():
            total[deg] = total.get(deg, 0) + coeff
        total = {k: v for k, v in total.items() if v}
    for k, c in denom_count.items():
        for _ in range(c):
            total = _laurent_div_cyclotomic(total, k)
    return sum(total.values())


def grass_pushforward(gamma, l: int, ambient_rank: int) -> Optional[tuple[int, ...]]:
    """Direct images of S^gamma(R^dual) along a rank-l Grassmann bundle.

    For gamma >= 0 the only direct image sits in degree 0 and is S^gamma of
    the dual ambient bundle (returned as the weight); for other in-bound
    weights all direct images vanish (None).  Out-of-bound weights are
    rejected rather than guessing an extension of the rule.
    """
    gamma = tuple(int(x) for x in gamma)
    if len(gamma) != l:
        raise ValueError(f"gamma must have length {l}")
    for i in range(l - 1):
        if gamma[i] < gamma[i + 1]:
            raise ValueError(f"gamma {gamma} not non-increasing")
    if not 1 <= l < ambient_rank:
        raise ValueError("need 1 <= l < ambient_rank")
    if gamma[-1] < -(ambient_rank - l):
        raise ValueError(
            f"gamma {gamma} below the bound -(rank - l) = {-(ambient_rank - l)}"
        )
    if all(x >= 0 for x in gamma):
        return normalize(gamma)
    return None
