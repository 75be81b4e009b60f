"""A toric oracle for every Ext degree of the candidate tables of split l = 1 towers.

A plan whose stages are all split with l = 1, over P^m or a point, is a
fibred product over P^m of projective bundles P(+ O(d_j)) of lines: a smooth
projective toric variety, on which every candidate summand is a line bundle.
Its cohomology is counted in the Cox ring (Cox, J. Algebraic Geom. 4 (1995);
Cox-Little-Schenck, Toric Varieties, ch. 9):

- the variables are x_0..x_m of degree (1; 0) and, per stage s, y_j of
  degree (d_j; e_s), where e_s is the class of O(1) = R_s^dual on stage s;
- the unstable locus is removed blockwise, so U is the product over the
  blocks b of (A^|b| minus 0), and by Kunneth H^i(X, O(p; q)) counts the
  Laurent monomials of degree (p; q) whose exponents are >= 0 on some blocks
  and <= -1 on the rest, the set N, with i = sum over N of (|b| - 1);
- summand i is O(shift_i) (x) (x)_s R_s^(a_s), the class (shift_i; -a_s), and
  Ext^s(E_i, E_j) = H^s(X, class_j - class_i).

Nothing here comes from `schur`, `bwb` or the stage chain: the engines are
imported only to build plans and to be compared with.
"""

import importlib.resources as resources
import json
from itertools import product as iter_product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltcheck import collections as coll
from tiltcheck import fibration as fib


def vectors(total, length):
    """Every vector of `length` non-negative integers summing to `total`."""
    if length == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in vectors(total - first, length - 1):
            yield (first, *rest)


def stage_block(degrees, q):
    """{(cohomology degree, root degree): count} of the exponent vectors of one stage block.

    The exponents b of y_1..y_r sum to q and are all >= 0 (cohomology degree
    0) or all <= -1 (degree r - 1); they carry root degree sum d_j b_j.
    """
    r, out = len(degrees), {}
    patterns = ([(0, b) for b in vectors(q, r)] if q >= 0 else []) + (
        [(r - 1, tuple(-1 - c for c in b)) for b in vectors(-q - r, r)] if q <= -r else [])
    for i, b in patterns:
        key = (i, sum(d * x for d, x in zip(degrees, b)))
        out[key] = out.get(key, 0) + 1
    return out


def line_cohomology(m, stage_degrees, p, qs):
    """{i: dim H^i} of O(p; q_1, .., q_k) on the tower over P^m, nonzero only."""
    found = {(0, 0): 1}  # (cohomology degree, root degree) of the stage blocks
    for degrees, q in zip(stage_degrees, qs):
        grown = {}
        for (i, h), c in found.items():
            for (i2, h2), c2 in stage_block(degrees, q).items():
                grown[(i + i2, h + h2)] = grown.get((i + i2, h + h2), 0) + c * c2
        found = grown
    out = {}
    for (i, h), c in found.items():
        rest = p - h  # the x block's degree
        if rest >= 0:
            out[i] = out.get(i, 0) + c * comb(rest + m, m)
        elif rest <= -(m + 1):
            out[i + m] = out.get(i + m, 0) + c * comb(-rest - 1, m)
    return {i: v for i, v in out.items() if v}


def toric_summands(m, stages):
    """The candidate summands as (shift, (a_s) root-first), in the candidate table's order.

    `stages` is root-first (degrees, twist).  A stage of rank r lists R^(r-1),
    .., R^0, the object at position k carrying k times the stage's twist; a
    summand lists the top stage first and the root degree last.
    """
    positions = [range(len(degrees)) for degrees, _twist in reversed(stages)]
    out = []
    for *top_first, e in iter_product(*positions, range(m + 1)):
        pos = top_first[::-1]
        shift = e + sum(twist * k for (_d, twist), k in zip(stages, pos))
        out.append((shift, tuple(len(degrees) - 1 - k for (degrees, _t), k in zip(stages, pos))))
    return out


def toric_table(m, stages):
    """{(i, j, s): dim Ext^s(E_i, E_j)}, nonzero only, from the Cox ring alone."""
    summands = toric_summands(m, stages)
    degrees = [d for d, _twist in stages]
    dims = {}
    for (i, (p_i, a_i)), (j, (p_j, a_j)) in iter_product(enumerate(summands), repeat=2):
        qs = [x - y for x, y in zip(a_i, a_j)]  # class_j - class_i, with R = O(-1)
        for s, v in line_cohomology(m, degrees, p_j - p_i, qs).items():
            dims[(i, j, s)] = v
    return dims


def candidate(m, stages):
    plan = fib.FibrationPlan(fib.BaseModel(m),
                             tuple((coll.GrassFiber(1, d), twist) for d, twist in stages))
    return {key: v for key, v in fib.candidate_ext_table(plan).dims.items() if v}


def clean(dims):
    return not any(s > 0 for _i, _j, s in dims)


def test_oracle_on_known_spaces():
    # P^2: O(-3) has H^2 = 1, O(-4) H^2 = 3; F_1 = P(O + O(1)) over P^1 is the blown-up plane
    assert line_cohomology(2, [], -3, []) == {2: 1}
    assert line_cohomology(2, [], -4, []) == {2: 3}
    assert line_cohomology(2, [], 2, []) == {0: 6}
    # the canonical class of F_a = P(O + O(a)) over P^1 is (-2 - a; -2): h^2 = 1, and chi(O) = 1
    for a in range(4):
        assert line_cohomology(1, [(0, a)], -2 - a, [-2]) == {2: 1}
        assert line_cohomology(1, [(0, a)], 0, [0]) == {0: 1}
    # a point root: every O(p) is trivial, and a stage over it is P^(r-1)
    assert line_cohomology(0, [(0, 0, 0)], 5, [-3]) == {2: 1}
    # the summands' stage powers, in the engine's order
    stages = [((0, 2), 1), ((0, 0, 1), 2)]
    plan = fib.FibrationPlan(fib.BaseModel(1), tuple((coll.GrassFiber(1, d), t) for d, t in stages))
    assert [tuple(w[0] for w in A[-2::-1]) for A in plan.summands()] == \
        [a for _shift, a in toric_summands(1, stages)]


ONE_STAGE_DEGREES = [
    (0, 0), (0, 1), (0, 2), (1, 0), (0, -3),
    (0, 0, 0), (0, 0, 1), (0, 1, 2), (2, 0, 1), (0, 2, 2),
    (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 2, 3), (1, 0, 0, 0), (0, 3, 1, 1),
]


@pytest.mark.parametrize("m", range(4), ids=lambda m: f"P{m}")
def test_one_split_stage_matches_the_oracle(m):
    tables = 0
    for degrees in ONE_STAGE_DEGREES:
        verified = []
        for twist in range(4):
            toric = toric_table(m, [(degrees, twist)])
            assert candidate(m, [(degrees, twist)]) == toric, (m, degrees, twist)
            verified.append(clean(toric))
            tables += 1
        # the search returns the least twist whose toric table has no positive-degree entry
        plan = fib.twist_search(fib.FibrationPlan(fib.BaseModel(m)), coll.GrassFiber(1, degrees), 3)
        least = verified.index(True) if True in verified else 3
        assert (plan.verified, plan.layers[-1][1]) == (True in verified, least), (m, degrees)
    assert tables == 60


TWO_STAGE_DEGREES = [((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 0, 1), (1, 0)), ((0, 2), (0, 0, 1))]


@pytest.mark.parametrize("m", [1, 2], ids=lambda m: f"P{m}")
def test_two_split_stages_match_the_oracle(m):
    tables = 0
    for lower, upper in TWO_STAGE_DEGREES:
        for t1, t2 in iter_product(range(3), repeat=2):
            stages = [(lower, t1), (upper, t2)]
            assert candidate(m, stages) == toric_table(m, stages), (m, stages)
            tables += 1
        # the tower is searched stage by stage, each at its least clean twist
        plan = fib.tower_compose([coll.GrassFiber(1, lower), coll.GrassFiber(1, upper)],
                                 fib.BaseModel(m), 2)
        first = [clean(toric_table(m, [(lower, t)])) for t in range(3)]
        if True not in first:
            assert not plan.verified and [t for _f, t in plan.layers] == [2]
            continue
        t1 = first.index(True)
        second = [clean(toric_table(m, [(lower, t1), (upper, t)])) for t in range(3)]
        t2 = second.index(True) if True in second else 2
        assert plan.verified == (True in second)
        assert [t for _f, t in plan.layers] == [t1, t2], (m, lower, upper)
    assert tables == 36


@pytest.mark.parametrize("name", ["hirzebruch_plan.json", "sp4_borel_split_plan.json"])
def test_shipped_l1_plans_match_the_oracle_at_every_twist(name):
    path = resources.files("tiltcheck") / "data" / name
    root, stages, cap = fib.parse_plan(json.loads(path.read_text(encoding="utf-8")))
    [fiber] = stages
    assert fiber.l == 1 and not fiber.taut and root.degrees == tuple(range(root.dim + 1))
    verified = []
    for twist in range(cap + 1):
        toric = toric_table(root.dim, [(fiber.split_degrees, twist)])
        assert candidate(root.dim, [(fiber.split_degrees, twist)]) == toric, twist
        verified.append(clean(toric))
    plan = fib.tower_compose(stages, root, cap)
    assert plan.verified and plan.layers[-1][1] == verified.index(True)


# the split l = 1 plans a seeded benchmark plan file can be: P^dim with a split
# stage of `rank` degrees, each in 0..3, searched up to twist 8 (perfbench/run.py's
# PLAN_SHAPES and PLAN_MAX_DEGREE, leaving out its tautological shape)
SEEDED_SHAPES = ((1, 2), (2, 3))
SEEDED_MAX_DEGREE = 3
SEEDED_CAP = 8


def test_seeded_l1_plans_match_the_oracle_at_every_twist():
    tables = entries = 0
    for m, rank in SEEDED_SHAPES:
        for degrees in iter_product(range(SEEDED_MAX_DEGREE + 1), repeat=rank):
            verified = []
            for twist in range(SEEDED_CAP + 1):
                toric = toric_table(m, [(degrees, twist)])
                assert candidate(m, [(degrees, twist)]) == toric, (m, degrees, twist)
                verified.append(clean(toric))
                entries += sum(1 for _i, _j, s in toric if s > 0)
                tables += 1
            plan = fib.twist_search(fib.FibrationPlan(fib.BaseModel(m)),
                                    coll.GrassFiber(1, degrees), SEEDED_CAP)
            least = verified.index(True) if True in verified else SEEDED_CAP
            assert (plan.verified, plan.layers[-1][1]) == (True in verified, least), (m, degrees)
    assert tables == 80 * (SEEDED_CAP + 1)
    assert entries == 1955  # positive-degree entries, each one matched


@settings(derandomize=True, max_examples=40, deadline=None)
@given(m=st.integers(0, 2),
       stages=st.lists(st.tuples(st.lists(st.integers(-2, 3), min_size=1, max_size=3),
                                 st.integers(0, 3)), min_size=1, max_size=2))
def test_random_split_towers_match_the_oracle(m, stages):
    stages = [(tuple(degrees), twist) for degrees, twist in stages]
    assert candidate(m, stages) == toric_table(m, stages)
