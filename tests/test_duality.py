"""Serre duality on chain Ext tables, in every degree.

On a smooth projective X of dimension N, Ext^s(E, F) is dual to
Ext^(N - s)(F, E (x) omega).  Every summand twisted by omega is again a label
the stage chain takes, so one `_chain_table` over n labels and their
omega-twists holds both sides: its entry (i, j, s), i < n, must equal its
entry (j, i + n, N - s).  The canonical bundle of a tower over P^m is
O(-m - 1) on the root times, per Grass stage of rank r and l,
det(R)^r (x) det(E)^(-l), E the stage bundle: a split stage's det E is the
root's O(sum of its degrees), a taut stage's the det of the stage below
(Fl(l_1 < ... < l_k; n) gets det(R_i)^(l_(i+1) - l_(i-1))).

The check compares the engine with itself on other inputs, so an error that
is symmetric under the duality stays invisible.  A fiber table carries no
canonical bundle, so plans with one are left out.
"""

import importlib.resources as resources
import json
from itertools import combinations, product as iter_product

import pytest

from tiltcheck import bwb
from tiltcheck import collections as coll
from tiltcheck import fibration as fib

DATA = resources.files("tiltcheck") / "data"


def omega_twisted(ranked, labels, root_dim, shifts):
    """The root-first labels and root shifts of the summands tensored by omega."""
    add = [rank for _st, rank in ranked]  # det(R_k)^r on every stage
    root = -root_dim - 1
    for k, (st, _rank) in enumerate(ranked):
        if st.taut:
            add[k - 1] -= st.l
        else:
            root -= st.l * sum(st.split_degrees)
    twisted = [tuple(tuple(x + add[k] for x in w) for k, w in enumerate(lab)) for lab in labels]
    return twisted, [t + root for t in shifts]


def serre_dual_sides(ranked, labels, root_dim, shifts):
    """Both sides of Serre duality from one table: ({(i, j, s): dim}, {(i, j, s): dual dim}).

    The first holds the nonzero Ext^s(E_i, E_j), the second the nonzero
    Ext^(N - s)(E_j, E_i (x) omega), over i among the labels and j among
    the labels and their twists.
    """
    n = len(labels)
    twisted, twisted_shifts = omega_twisted(ranked, labels, root_dim, shifts)
    table = coll._chain_table(ranked, list(labels) + twisted, root_dim, list(shifts) + twisted_shifts)
    top = table.max_degree
    direct = {(i, j, s): v for (i, j, s), v in table.dims.items() if i < n and v}
    dual = {(i - n, j, top - s): v for (j, i, s), v in table.dims.items() if i >= n and v}
    return direct, dual


def spec_inputs(spec):
    """A flag collection's table inputs: root-first labels over a point."""
    labels = [lab[::-1] for lab in spec.labels]
    return coll._flag_stages(spec.space), labels, 0, [0] * len(labels)


def plan_inputs(root, layers):
    """The (ranked, labels, root dim, shifts) a plan's candidate table is built from."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fib, "_chain_table", lambda *args: seen.append(args) or coll._chain_table(*args))
        fib.FibrationPlan(root, layers)
    [inputs] = seen
    return inputs


FLAGS = [(n, steps) for n in range(3, 6) for k in range(2, n) for steps in combinations(range(1, n), k)]
GRASSMANNIANS = [(1, 4), (2, 4), (2, 5), (3, 5), (2, 6), (3, 6), (3, 7), (4, 8)]


def shipped_plans():
    for name in ("hirzebruch_plan.json", "flag_1_2_3_plan.json", "sp4_borel_split_plan.json"):
        root, stages, cap = fib.parse_plan(json.loads((DATA / name).read_text(encoding="utf-8")))
        for twists in iter_product(range(cap + 1), repeat=len(stages)):
            yield pytest.param(root, tuple(zip(stages, twists)), id=f"{name[:-10]}-{twists}")


def built_plans():
    """Split and taut plans with l >= 2, at verified and obstructed twists."""
    cases = [
        ("grass-2-4-split", fib.BaseModel(1), [fib.GrassFiber(2, (0, 1, 2, 3))], range(0, 5, 2)),
        ("grass-2-4-equal", fib.BaseModel(1), [fib.GrassFiber(2, (1, 1, 1, 1))], range(2)),
        ("grass-3-5-split", fib.BaseModel(1), [fib.GrassFiber(3, (0, 0, 1, 1, 2))], range(2)),
        ("grass-2-3-taut", fib.BaseModel(1), [fib.GrassFiber(2, (0, 1, 3)), fib.GrassFiber(1)], (0, 1)),
        ("grass-2-3-p2", fib.BaseModel(2), [fib.GrassFiber(2, (0, 1, 3))], range(3)),
        ("grass-3-4-taut-2", fib.BaseModel(0), [fib.GrassFiber(3, (0, 1, 2, 3)), fib.GrassFiber(2)], (0,)),
    ]
    for name, root, stages, twists in cases:
        for layer_twists in iter_product(twists, repeat=len(stages)):
            yield pytest.param(root, tuple(zip(stages, layer_twists)), id=f"{name}-{layer_twists}")


@pytest.mark.parametrize("n, steps", FLAGS + [(6, (1, 3, 5))], ids=str)
def test_flag_tables_are_serre_dual(n, steps):
    direct, dual = serre_dual_sides(*spec_inputs(coll.flag_collection(bwb.FlagSpace(n, steps))))
    assert direct == dual


@pytest.mark.parametrize("d, n", GRASSMANNIANS, ids=str)
def test_grassmannian_tables_are_serre_dual(d, n):
    # every omega-twisted pair is out of the closed form's bound, so the
    # closed form (i, j among the labels) meets the relative walk here
    direct, dual = serre_dual_sides(*spec_inputs(coll.kapranov_collection(d, n)))
    assert direct == dual


@pytest.mark.parametrize("root, layers", [*shipped_plans(), *built_plans()])
def test_plan_tables_are_serre_dual(root, layers):
    direct, dual = serre_dual_sides(*plan_inputs(root, layers))
    assert direct == dual
