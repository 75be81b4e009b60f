import importlib.resources as resources
import json
import os
import tempfile
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltcheck import bwb, cli
from tiltcheck import collections as coll
from tiltcheck import descent as dsc
from tiltcheck import fibration as fib
from tiltcheck.partitions import FrozenValue

DATA = resources.files("tiltcheck") / "data"


def pushforward(fiber, j, i):
    """{(Ext degree, root degree): mult} of the direct image of Hom(E_i, E_j) along one split stage."""
    objs = fiber.objects(len(fiber.split_degrees))
    return coll.tower_hom_degrees((fiber,), (objs[i],), (objs[j],))


def serialize_fiber_table(fiber):
    """The shipped fiber-table file format: sorted keys, two-space indent."""
    records = [
        {"base_degree": deg, "i": i, "j": j, "multiplicity": mult, "s": s}
        for (j, i, s, deg), mult in sorted(fiber.records.items())
    ]
    payload = {"objects": list(fiber.labels), "pushforwards": records}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def twists(plan):
    """The twist exponents of a plan's layers, bottom-first."""
    return [twist for _fiber, twist in plan.layers]


def test_base_model_validation():
    fib.BaseModel(2)
    fib.BaseModel(1, (3, 4))
    # degrees that are not tilting are a verdict of the root plan, not a refusal:
    # H^1(O(-3)) on P^1 obstructs, and a tower returns the root plan unsearched
    root = fib.BaseModel(1, (0, 3))
    assert fib.FibrationPlan(root).obstruction == (1, 0, 1, 2)
    assert fib.tower_compose([fib.GrassFiber(1, (0, 1))], root, 4) == fib.FibrationPlan(root)
    with pytest.raises(ValueError, match="distinct"):
        fib.BaseModel(1, (0, 0))
    with pytest.raises(ValueError, match="non-negative"):
        fib.BaseModel(-1)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 4), st.sets(st.integers(-6, 6), min_size=1, max_size=5))
def test_root_plan_verifies_exactly_a_window_of_degrees(dim, degrees):
    # O(a), O(b) on P^dim have higher Ext only in H^dim(O(-|a - b|)), nonzero once |a - b| > dim
    plan = fib.FibrationPlan(fib.BaseModel(dim, tuple(degrees)))
    assert plan.verified == (dim == 0 or max(degrees) - min(degrees) <= dim)


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
    stuck = fib.candidate_ext_table(fib.FibrationPlan(base, ((fiber, 0),)))
    witnesses = list(stuck.higher_entries())
    assert witnesses
    (i, j, s), v = witnesses[0]
    assert s == 1 and v == 1
    stuck_plan = fib.FibrationPlan(base, ((fiber, 0),))
    assert not stuck_plan.verified and stuck_plan.obstruction == (i, j, s, v)
    assert stuck_plan.table == stuck
    plan = fib.twist_search(fib.FibrationPlan(base), fiber, 4)
    assert plan.verified and plan.layers == ((fiber, 1),)
    assert len(plan.summands()) == 4
    # diagonal entries carry the base End only
    table = plan.table
    for k in range(4):
        assert table.get(k, k, 0) == 1


def test_split_grass37_search_values():
    # a split stage with seven distinct degrees: every transfer expands
    # through the branching-rule kernel
    plan = fib.tower_compose([fib.GrassFiber(3, tuple(range(7)))], fib.BaseModel(1), 8)
    assert plan.verified and twists(plan) == [6]
    assert len(plan.summands()) == 70
    table = plan.table
    assert table.end_dim((1,) * table.size) == 693_379_764
    assert sum(1 for v in table.dims.values() if v) == 1_925


def test_twist_monotonicity():
    base = fib.BaseModel(1)
    for degrees in [(0, 1), (0, 0), (0, 2)]:
        fiber = fib.GrassFiber(1, degrees)
        plan = fib.twist_search(fib.FibrationPlan(base), fiber, 6)
        assert plan.verified
        [twist] = twists(plan)
        for extra in (1, 2):
            higher = fib.candidate_ext_table(
                fib.FibrationPlan(base, ((fiber, twist + extra),))
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
    plan = fib.twist_search(fib.FibrationPlan(fib.BaseModel(1)), fib.GrassFiber(1, (0, 0)), 4)
    assert plan.verified and twists(plan) == [0]


def test_point_fiber_reproduces_base():
    plan = fib.twist_search(fib.FibrationPlan(fib.BaseModel(2)), fib.GrassFiber(1, (0,)), 4)
    assert plan.verified and twists(plan) == [0]
    assert fib.candidate_ext_table(plan) == coll.ext_table(coll.beilinson_collection(2))


def test_unverified_cap_plan_reports_obstruction():
    # dual degrees reach -4, so the worst base degree is m - 5: needs m >= 4
    fiber = fib.GrassFiber(1, (0, 4))
    root_plan = fib.FibrationPlan(fib.BaseModel(1))
    plan = fib.twist_search(root_plan, fiber, 1)
    assert not plan.verified
    assert plan.obstruction is not None
    assert twists(fib.twist_search(root_plan, fiber, 6)) == [4]


def test_tower_stops_at_first_unverified_stage(monkeypatch, tmp_path, capsys):
    # the fiber above needs twist 4, so at cap 1 the search ends below the taut stage
    fiber, taut = fib.GrassFiber(1, (0, 4)), fib.GrassFiber(1)
    searched = []

    def recording_search(below, stage, cap):
        searched.append(stage)
        return twist_search(below, stage, cap)

    twist_search = fib.twist_search
    monkeypatch.setattr(fib, "twist_search", recording_search)
    plan = fib.tower_compose([fiber, taut], fib.BaseModel(1), 1)
    assert searched == [fiber]
    assert plan.layers == ((fiber, 1),)
    assert not plan.verified
    assert plan.obstruction is not None and plan.obstruction == plan.table.higher_witness()
    monkeypatch.undo()
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"root": {"kind": "pn", "dim": 1}, "cap": 1, "stages": [
        {"kind": "grass", "l": 1, "degrees": [0, 4]}, {"kind": "grass-taut", "l": 1}]}))
    assert cli.run(["fibration", "search", "--plan", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail" and report["result"]["twists"] == ["1"]
    assert report["result"]["obstruction"] == [str(x) for x in plan.obstruction]


def test_flag_tower_matches_absolute_engine():
    tower = fib.tower_compose(
        [fib.GrassFiber(2, (0, 0, 0)), fib.GrassFiber(1)],
        fib.BaseModel(0),
        2,
    )
    assert tower.verified
    flag_table = coll.ext_table(coll.flag_collection(bwb.FlagSpace(3, (1, 2))))
    assert tower.table == flag_table
    assert len(tower.summands()) == 6
    assert twists(tower) == [0, 0]


def test_grass24_tower_matches_absolute_engine():
    tower = fib.tower_compose([fib.GrassFiber(2, (0, 0, 0, 0))], fib.BaseModel(0), 2)
    assert tower.verified
    table = coll.ext_table(coll.kapranov_collection(2, 4))
    assert tower.table == table


def test_grass25_tower_matches_absolute_engine():
    tower = fib.tower_compose([fib.GrassFiber(2, (0,) * 5)], fib.BaseModel(0), 2)
    assert tower.verified
    assert tower.table == coll.ext_table(coll.kapranov_collection(2, 5))


def test_two_stage_tower_over_projective_root():
    # trivial P^1-bundle stacked on the Hirzebruch plan: the second search
    # extends the verified one-layer plan below it
    plan = fib.tower_compose(
        [fib.GrassFiber(1, (0, 1)), fib.GrassFiber(1, (0, 0))],
        fib.BaseModel(1),
        4,
    )
    assert plan.verified
    assert twists(plan) == [1, 0]
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
    assert plan.table == coll.ext_table(coll.beilinson_collection(2))


@pytest.mark.parametrize("cap", [0, -1])
def test_cap_must_be_positive_for_every_plan(monkeypatch, cap):
    # refused before any table is built, whether or not the plan has stages
    root = fib.FibrationPlan(fib.BaseModel(1))
    monkeypatch.setattr(fib, "candidate_ext_table", lambda plan: pytest.fail("a table was built"))
    fiber = fib.GrassFiber(1, (0, 1))
    with pytest.raises(ValueError, match="cap must be positive"):
        fib.twist_search(root, fiber, cap)
    for stages in ([], [fiber]):
        with pytest.raises(ValueError, match="cap must be positive"):
            fib.tower_compose(stages, fib.BaseModel(1), cap)


def test_tower_result_keeps_no_intermediate_plan():
    # the layers carry fibers and twists only: the one table is the result's own
    plan = fib.tower_compose([fib.GrassFiber(1, (0, 1)), fib.GrassFiber(1, (0, 0))],
                             fib.BaseModel(1), 4)
    tables = []

    def walk(value):
        if isinstance(value, coll.ExtTable):
            tables.append(value)
        elif isinstance(value, FrozenValue):
            for name in value.__slots__:
                walk(getattr(value, name))
        elif isinstance(value, (tuple, list)):
            for item in value:
                walk(item)

    walk(plan)
    assert len(tables) == 1 and tables[0] is plan.table
    assert repr(plan).count("FibrationPlan(") == 1
    assert isinstance(plan.root, fib.BaseModel) and len(plan.layers) == 2


SHIPPED_PLANS = [("hirzebruch_plan.json", 2), ("flag_1_2_3_plan.json", 3),
                 ("sp4_borel_split_plan.json", 4)]


@pytest.mark.parametrize("name, dimension", SHIPPED_PLANS, ids=[row[0] for row in SHIPPED_PLANS])
def test_plan_table_is_built_from_its_root_and_layers(name, dimension):
    root, stages, cap = fib.parse_plan(json.loads((DATA / name).read_text(encoding="utf-8")))
    for tw in iter_product(range(cap + 1), repeat=len(stages)):
        plan = fib.FibrationPlan(root, zip(stages, tw))
        assert plan.table == fib.candidate_ext_table(plan)
        assert plan.table.max_degree == dimension
        # a checked plan is hashable, by its root and layers
        same = fib.FibrationPlan(root, list(zip(stages, tw)))
        assert hash(plan) == hash(same) and len({plan, same}) == 1


def test_plan_cannot_carry_another_table():
    # criterion 7's m = 0 plan is obstructed by its own table, whatever table is offered
    root, layers = fib.BaseModel(1), ((fib.GrassFiber(1, (0, 1)), 0),)
    verified = fib.FibrationPlan(root, ((fib.GrassFiber(1, (0, 1)), 1),))
    assert verified.verified
    with pytest.raises(TypeError):
        fib.FibrationPlan(root, layers, verified.table)
    with pytest.raises(TypeError):
        fib.FibrationPlan(root, layers, table=verified.table)
    stuck = fib.FibrationPlan(root, layers)
    assert not stuck.verified and stuck.obstruction == (1, 2, 1, 1)
    assert not hasattr(fib, "verify_plan")


def test_taut_stage_requires_grass_below():
    with pytest.raises(ValueError):
        fib.tower_compose([fib.GrassFiber(1)], fib.BaseModel(1), 2)
    conic = fib.parse_fiber_table((DATA / "conic_fiber.json").read_text(encoding="utf-8"))
    with pytest.raises(ValueError, match="requires a Grass stage directly below"):
        fib.tower_compose([conic, fib.GrassFiber(1)], fib.BaseModel(1), 2)
    with pytest.raises(ValueError, match="need 1 <= l <= rank"):
        fib.tower_compose([fib.GrassFiber(2, (0, 0)), fib.GrassFiber(3)],
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


@st.composite
def table_fibers(draw):
    """A valid TableFiber: unit diagonal, forward s = 0 records, any base degrees."""
    labels = tuple(draw(st.lists(st.text(max_size=4), unique=True, max_size=5)))
    records = {(i, i, 0, 0): 1 for i in range(len(labels))}
    for j in range(len(labels)):
        for i in range(j):
            for deg in draw(st.sets(st.integers(-6, 6), max_size=3)):
                records[(j, i, 0, deg)] = draw(st.integers(1, 10**20))
    return fib.TableFiber(labels, records)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(table_fibers())
def test_fiber_table_round_trip(fiber):
    assert fib.parse_fiber_table(serialize_fiber_table(fiber)) == fiber


@st.composite
def plan_roots(draw):
    """A point, or P^m with its default or a drawn tilting range of degrees."""
    if draw(st.booleans()):
        return fib.BaseModel(0)
    dim = draw(st.integers(1, 4))
    start = draw(st.integers(-5, 5))
    # degrees within one window of length dim + 1 are tilting on P^dim
    degrees = draw(st.sets(st.integers(start, start + dim), max_size=dim + 1))
    return fib.BaseModel(dim, tuple(sorted(degrees, reverse=draw(st.booleans()))))


plan_stages = st.one_of(
    st.builds(fib.GrassFiber, st.integers(1, 4),
              st.lists(st.integers(-4, 4), max_size=5).map(tuple)),
    st.builds(fib.GrassFiber, st.integers(1, 4)),
    table_fibers(),
)


def plan_payload(root, stages, cap, plan_dir):
    """The plan file format for parsed objects; table stages are written to `plan_dir`."""
    if root == fib.BaseModel(0):
        root_spec = {"kind": "point"}
    else:
        root_spec = {"kind": "pn", "dim": root.dim, "degrees": list(root.degrees)}
    specs = []
    for k, stage in enumerate(stages):
        if isinstance(stage, fib.TableFiber):
            name = f"fiber_{k}.json"
            with open(os.path.join(plan_dir, name), "w", encoding="utf-8") as fh:
                fh.write(serialize_fiber_table(stage))
            specs.append({"kind": "table", "path": name})
        elif stage.taut:
            specs.append({"kind": "grass-taut", "l": stage.l})
        else:
            specs.append({"kind": "grass", "l": stage.l, "degrees": list(stage.split_degrees)})
    return {"root": root_spec, "stages": specs, "cap": cap}


@settings(derandomize=True, deadline=None, max_examples=100)
@given(plan_roots(), st.lists(plan_stages, max_size=4), st.integers(0, 12))
def test_plan_round_trip(root, stages, cap):
    with tempfile.TemporaryDirectory() as plan_dir:
        text = json.dumps(plan_payload(root, stages, cap, plan_dir))
        parsed = fib.parse_plan(json.loads(text), plan_dir)
        assert parsed == (root, stages, cap)
        with tempfile.TemporaryDirectory() as again_dir:
            assert json.dumps(plan_payload(*parsed, again_dir)) == text


TWO_OBJECTS = {(0, 0, 0, 0): 1, (1, 1, 0, 0): 1}


@pytest.mark.parametrize("build", [
    pytest.param(lambda: fib.GrassFiber(1, (0, 1.7)), id="split-degree"),
    pytest.param(lambda: fib.GrassFiber(1.0, (0, 1)), id="l"),
    pytest.param(lambda: fib.GrassFiber(True), id="bool-l"),
    pytest.param(lambda: fib.TableFiber(("a",), {(0, 0, 0, 0): 1.5}), id="multiplicity"),
    pytest.param(lambda: fib.TableFiber(("a", "b"), {**TWO_OBJECTS, (1, 0, 0, 2.5): 2}),
                 id="base-degree"),
    pytest.param(lambda: fib.TableFiber(("a", "b"), {**TWO_OBJECTS, (1, 0.0, 0, 1): 2}),
                 id="index"),
    pytest.param(lambda: coll.CollectionSpec(bwb.grassmannian(2, 4), (((1.7, 0),), ((0, 0),))),
                 id="collection-weight"),
    pytest.param(lambda: coll.beilinson_collection(1).with_multiplicities((1.5, 1)),
                 id="collection-multiplicity"),
    pytest.param(lambda: coll.beilinson_collection(2, (0, 1.9, 2)), id="beilinson-degree"),
    pytest.param(lambda: dsc.CSAClass(4, 2, (1, 2.5)), id="algebra-index"),
    pytest.param(lambda: dsc.CSAClass(4.0, 2), id="algebra-degree"),
    pytest.param(lambda: dsc.CSAClass(4, 2.0), id="algebra-period"),
    pytest.param(lambda: dsc.bs_tilting_summary(dsc.CSAClass(2, 2), 2.5), id="bs-range-length"),
    pytest.param(lambda: fib.BaseModel(1, (0, 1.5)), id="base-model-degree"),
    pytest.param(lambda: fib.BaseModel(1.0), id="base-model-dim"),
    pytest.param(lambda: fib.BaseModel(True), id="base-model-bool-dim"),
    pytest.param(lambda: fib.twist_search(fib.FibrationPlan(fib.BaseModel(1)),
                                          fib.GrassFiber(1, (0, 1)), True), id="bool-cap"),
    pytest.param(lambda: fib.tower_compose([], fib.BaseModel(1), 2.0), id="float-cap"),
    pytest.param(lambda: fib.FibrationPlan(fib.BaseModel(1), ((fib.GrassFiber(1, (0, 1)), 1.5),)),
                 id="plan-twist"),
    pytest.param(lambda: fib.FibrationPlan(fib.BaseModel(1), ((fib.GrassFiber(1, (0, 1)), True),)),
                 id="plan-bool-twist"),
])
def test_constructors_refuse_non_integers(build):
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def record_scan(fiber, j, i):
    """{base degree: multiplicity} of the (j, i) records, by a scan of them all."""
    out = {}
    for (jj, ii, _s, deg), mult in fiber.records.items():
        if (jj, ii) == (j, i):
            out[deg] = out.get(deg, 0) + mult
    return dict(sorted(out.items()))


def test_pushforward_matches_record_scan():
    # records out of degree order, and a pair with two base degrees
    synthetic = fib.TableFiber(("a", "b", "c"), {
        (2, 0, 0, 3): 1, (2, 0, 0, -1): 4, (1, 0, 0, 0): 2, (2, 1, 0, -2): 1,
        (0, 0, 0, 0): 1, (1, 1, 0, 0): 1, (2, 2, 0, 0): 1})
    fibers = [fib.parse_fiber_table((DATA / name).read_text(encoding="utf-8"))
              for name in ("conic_fiber.json", "quadric_surface_fiber.json")] + [synthetic]
    for fiber in fibers:
        n = len(fiber.labels)
        for j in range(n):
            for i in range(n):
                assert list(fiber.pushforward(j, i).items()) == list(record_scan(fiber, j, i).items())
    assert synthetic.pushforward(2, 0) == {-1: 4, 3: 1}
    assert synthetic.pushforward(0, 2) == {}


def test_table_fiber_matches_grass_fiber():
    grass = fib.GrassFiber(1, (0, 1))
    records = {(0, 0, 0, 0): 1, (1, 1, 0, 0): 1}
    for (s, deg), mult in pushforward(grass, 1, 0).items():
        records[(1, 0, s, deg)] = mult
    table_fiber = fib.TableFiber(("R", "O"), records)
    base = fib.BaseModel(1)
    for m in (0, 1, 2):
        via_table = fib.candidate_ext_table(fib.FibrationPlan(base, ((table_fiber, m),)))
        via_grass = fib.candidate_ext_table(fib.FibrationPlan(base, ((grass, m),)))
        assert (via_table.size, via_table.dims) == (via_grass.size, via_grass.dims)
        # a fiber table carries no fiber dimension: its stage adds none to the total
        assert (via_table.max_degree, via_grass.max_degree) == (1, 2)


def test_shipped_conic_table_round_trip_and_search():
    raw = (DATA / "conic_fiber.json").read_text(encoding="utf-8")
    fiber = fib.parse_fiber_table(raw)
    assert serialize_fiber_table(fiber) == raw
    assert fiber.pushforward(1, 0) == {0: 2}
    plan = fib.twist_search(fib.FibrationPlan(fib.BaseModel(1)), fiber, 4)
    assert plan.verified and twists(plan) == [0]
    assert len(plan.summands()) == 4


def test_shipped_quadric_surface_table():
    raw = (DATA / "quadric_surface_fiber.json").read_text(encoding="utf-8")
    fiber = fib.parse_fiber_table(raw)
    assert serialize_fiber_table(fiber) == raw
    assert len(fiber.labels) == 4
    assert fiber.pushforward(2, 0) == {0: 2}
    assert fiber.pushforward(1, 0) == {}
    plan = fib.twist_search(fib.FibrationPlan(fib.BaseModel(2)), fiber, 4)
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
