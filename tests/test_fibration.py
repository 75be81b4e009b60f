import importlib.resources as resources

import pytest

from tiltcheck import bwb
from tiltcheck import collections as coll
from tiltcheck import fibration as fib

DATA = resources.files("tiltcheck") / "data"


def pushforward(fiber, j, i):
    """{(Ext degree, root degree): mult} of the direct image of Hom(E_i, E_j) along one split stage."""
    objs = fiber.objects(len(fiber.split_degrees))
    return coll.tower_hom_degrees((fiber,), (objs[i],), (objs[j],))


def test_base_model_validation():
    fib.BaseModel(2)
    fib.BaseModel(1, (3, 4))
    with pytest.raises(ValueError):
        fib.BaseModel(1, (0, 3))  # H^1(O(-3)) on P^1 obstructs
    with pytest.raises(ValueError):
        fib.BaseModel(1, (0, 0))


def test_grassfiber_objects_order():
    assert fib.GrassFiber is coll.GrassFiber  # one stage type for plans and flags
    fiber = fib.GrassFiber(1, (0, 1))
    assert fiber.objects(2) == ((1,), (0,))
    fiber3 = fib.GrassFiber(2, (0, 0, 0))
    assert fiber3.objects(3)[0] == (1, 1)
    assert fiber3.objects(3)[-1] == (0, 0)


def test_relative_pushforward_examples():
    fiber = fib.GrassFiber(1, (0, 1))
    assert pushforward(fiber, 1, 0) == {(0, -1): 1, (0, 0): 1}
    assert pushforward(fiber, 0, 0) == {(0, 0): 1}
    assert pushforward(fiber, 1, 1) == {(0, 0): 1}
    assert pushforward(fiber, 0, 1) == {}


def test_hirzebruch_twist_search():
    base = fib.BaseModel(1)
    fiber = fib.GrassFiber(1, (0, 1))
    stuck = fib.candidate_ext_table(fib.FibrationPlan(base, fiber, 0))
    witnesses = list(stuck.higher_entries())
    assert witnesses
    (i, j, s), v = witnesses[0]
    assert s == 1 and v == 1
    stuck_plan = fib.verify_plan(fib.FibrationPlan(base, fiber, 0))
    assert not stuck_plan.verified and stuck_plan.obstruction == (i, j, s, v)
    assert stuck_plan.table == stuck
    plan = fib.twist_search(base, fiber, 4)
    assert plan.verified and plan.twist == 1
    assert len(plan.summands()) == 4
    # diagonal entries carry the base End only
    table = plan.table
    for k in range(4):
        assert table.get(k, k, 0) == 1


def test_twist_monotonicity():
    base = fib.BaseModel(1)
    for degrees in [(0, 1), (0, 0), (0, 2)]:
        fiber = fib.GrassFiber(1, degrees)
        plan = fib.twist_search(base, fiber, 6)
        assert plan.verified
        for extra in (1, 2):
            higher = fib.candidate_ext_table(
                fib.FibrationPlan(base, fiber, plan.twist + extra)
            )
            assert not list(higher.higher_entries())


def test_pushforward_shape_conformance():
    # the order shape of in-box fiber objects: nothing backward in any Ext
    # degree, trivial diagonal, for a few split fibers
    for l, degrees in [(1, (0, 1, 2)), (2, (0, 1, -1)), (2, (0, 0, 0, 0))]:
        fiber = fib.GrassFiber(l, degrees)
        objs = fiber.objects(len(degrees))
        for i in range(len(objs)):
            assert pushforward(fiber, i, i) == {(0, 0): 1}
            for j in range(i):
                assert pushforward(fiber, j, i) == {}, (l, degrees, i, j)


def test_trivial_bundle_needs_no_twist():
    plan = fib.twist_search(fib.BaseModel(1), fib.GrassFiber(1, (0, 0)), 4)
    assert plan.verified and plan.twist == 0


def test_point_fiber_reproduces_base():
    plan = fib.twist_search(fib.BaseModel(2), fib.GrassFiber(1, (0,)), 4)
    assert plan.verified and plan.twist == 0
    assert fib.candidate_ext_table(plan).hom_matrix() == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]


def test_unverified_cap_plan_reports_obstruction():
    # dual degrees reach -4, so the worst base degree is m - 5: needs m >= 4
    fiber = fib.GrassFiber(1, (0, 4))
    plan = fib.twist_search(fib.BaseModel(1), fiber, 1)
    assert not plan.verified
    assert plan.obstruction is not None
    assert fib.twist_search(fib.BaseModel(1), fiber, 6).twist == 4


def test_flag_tower_matches_absolute_engine():
    tower = fib.tower_compose(
        [fib.GrassFiber(2, (0, 0, 0)), fib.GrassFiber(1, taut=True)],
        fib.point_base(),
        2,
    )
    assert tower.verified
    flag_table = coll.ext_table(coll.flag_collection(bwb.FlagSpace(3, (1, 2))))
    assert tower.table == flag_table
    assert len(tower.summands()) == 6
    assert [t for _f, t in tower.layers()] == [0, 0]


def test_grass24_tower_matches_absolute_engine():
    tower = fib.tower_compose([fib.GrassFiber(2, (0, 0, 0, 0))], fib.point_base(), 2)
    assert tower.verified
    table = coll.ext_table(coll.kapranov_collection(2, 4))
    assert tower.table == table


def test_grass25_tower_matches_absolute_engine():
    tower = fib.tower_compose([fib.GrassFiber(2, (0,) * 5)], fib.point_base(), 2)
    assert tower.verified
    assert tower.table == coll.ext_table(coll.kapranov_collection(2, 5))


def test_two_stage_tower_over_projective_root():
    # trivial P^1-bundle stacked on the Hirzebruch plan: the second search
    # runs against a tower base, so the recursion through plan layers is live
    plan = fib.tower_compose(
        [fib.GrassFiber(1, (0, 1)), fib.GrassFiber(1, (0, 0))],
        fib.BaseModel(1),
        4,
    )
    assert plan.verified
    assert [t for _f, t in plan.layers()] == [1, 0]
    assert len(plan.summands()) == 8
    for k in range(8):
        assert plan.table.get(k, k, 0) == 1
    # hand values: along the first stage the twisted degrees are {1, 0},
    # along the trivial stage the pushforward is {0: 2}
    assert plan.table.get(0, 2, 0) == 3
    assert plan.table.get(0, 4, 0) == 2
    assert plan.table.get(2, 0, 0) == 0
    assert plan.table.get(4, 0, 0) == 0


def test_sp4_shaped_tower():
    plan = fib.tower_compose([fib.GrassFiber(1, (0, 1))], fib.BaseModel(3), 6)
    assert plan.verified
    assert len(plan.summands()) == 8


def test_empty_tower_returns_root():
    plan = fib.tower_compose([], fib.BaseModel(2), 4)
    assert plan.verified
    assert len(plan.summands()) == 3
    assert plan.table.hom_matrix() == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]


def test_taut_stage_requires_grass_below():
    with pytest.raises(ValueError):
        fib.tower_compose([fib.GrassFiber(1, taut=True)], fib.BaseModel(1), 2)
    conic = fib.parse_fiber_table((DATA / "conic_fiber.json").read_text(encoding="utf-8"))
    with pytest.raises(ValueError, match="requires a Grass stage directly below"):
        fib.tower_compose([conic, fib.GrassFiber(1, taut=True)], fib.BaseModel(1), 2)
    with pytest.raises(ValueError, match="need 1 <= l <= rank"):
        fib.tower_compose([fib.GrassFiber(2, (0, 0)), fib.GrassFiber(3, taut=True)],
                          fib.BaseModel(1), 2)


# ---------------------------------------------------------------------------
# table fibers

def test_table_fiber_validation():
    good = {(0, 0, 0, 0): 1, (1, 1, 0, 0): 1, (1, 0, 0, 0): 2}
    fib.TableFiber(("a", "b"), good)
    with pytest.raises(ValueError):
        fib.TableFiber(("a", "b"), {**good, (1, 0, 1, 0): 1})  # s > 0
    with pytest.raises(ValueError):
        fib.TableFiber(("a", "b"), {**good, (0, 1, 0, 0): 1})  # backward
    with pytest.raises(ValueError):
        fib.TableFiber(("a", "b"), {(0, 0, 0, 0): 1, (1, 0, 0, 0): 2})  # diag missing
    with pytest.raises(ValueError):
        fib.TableFiber(("a", "b"), {**good, (1, 1, 0, 1): 1})  # diag degree
    with pytest.raises(ValueError):
        fib.TableFiber(("a", "a"), good)


def test_table_fiber_matches_grass_fiber():
    grass = fib.GrassFiber(1, (0, 1))
    records = {(0, 0, 0, 0): 1, (1, 1, 0, 0): 1}
    for (s, deg), mult in pushforward(grass, 1, 0).items():
        records[(1, 0, s, deg)] = mult
    table_fiber = fib.TableFiber(("R", "O"), records)
    base = fib.BaseModel(1)
    for m in (0, 1, 2):
        via_table = fib.candidate_ext_table(fib.FibrationPlan(base, table_fiber, m))
        via_grass = fib.candidate_ext_table(fib.FibrationPlan(base, grass, m))
        assert via_table == via_grass


def test_shipped_conic_table_round_trip_and_search():
    raw = (DATA / "conic_fiber.json").read_text(encoding="utf-8")
    fiber = fib.parse_fiber_table(raw)
    assert fib.serialize_fiber_table(fiber) == raw
    assert fiber.pushforward(1, 0) == {0: 2}
    plan = fib.twist_search(fib.BaseModel(1), fiber, 4)
    assert plan.verified and plan.twist == 0
    assert len(plan.summands()) == 4


def test_shipped_quadric_surface_table():
    raw = (DATA / "quadric_surface_fiber.json").read_text(encoding="utf-8")
    fiber = fib.parse_fiber_table(raw)
    assert fib.serialize_fiber_table(fiber) == raw
    assert len(fiber.labels) == 4
    assert fiber.pushforward(2, 0) == {0: 2}
    assert fiber.pushforward(1, 0) == {}
    plan = fib.twist_search(fib.BaseModel(2), fiber, 4)
    assert plan.verified
    assert len(plan.summands()) == 12


def test_plan_files_parse_and_run():
    import json

    for name, summands in [
        ("hirzebruch_plan.json", 4),
        ("flag_1_2_3_plan.json", 6),
        ("sp4_borel_split_plan.json", 8),
    ]:
        payload = json.loads((DATA / name).read_text(encoding="utf-8"))
        root, stages, cap = fib.parse_plan(payload)
        plan = fib.tower_compose(stages, root, cap)
        assert plan.verified, name
        assert len(plan.summands()) == summands
