import copy
import inspect
import pickle

import pytest

from tiltcheck.bwb import CohomologyResult, FlagSpace, HomogeneousBundle
from tiltcheck.collections import (CollectionSpec, ExtTable, GrassFiber, VerificationReport,
                                   beilinson_collection)
from tiltcheck.descent import CSAClass, DescentSummary, WedgeReport
from tiltcheck.fibration import BaseModel, FibrationPlan, TableFiber
from tiltcheck.partitions import FrozenValue, OrderedPartitionSet

TABLE_RECORDS = {(0, 0, 0, 0): 1, (1, 1, 0, 0): 1, (1, 0, 0, 2): 3}
SPEC = CollectionSpec(FlagSpace(2, (1,)), (((1,),), ((0,),)), (), "note")

# (class, positional arguments, parameter defaults, hashable, repr); each repr
# names the fields in order, as the frozen dataclasses these types replace did
VALUES = [
    (OrderedPartitionSet, (1, 1), {}, True, "OrderedPartitionSet(box_rows=1, box_cols=1)"),
    (FlagSpace, (4, [1, 3]), {}, True, "FlagSpace(n=4, steps=(1, 3))"),
    (HomogeneousBundle, (FlagSpace(3, (1,)), [[2], [0, -1]]), {}, True,
     "HomogeneousBundle(space=FlagSpace(n=3, steps=(1,)), blocks=((2,), (0, -1)))"),
    (CohomologyResult, (1, (0, -1), 3), {}, True,
     "CohomologyResult(degree=1, dominant_weight=(0, -1), dimension=3)"),
    (GrassFiber, (2, [0, 1, 2]), {"split_degrees": None}, True,
     "GrassFiber(l=2, split_degrees=(0, 1, 2))"),
    (CollectionSpec, (FlagSpace(2, (1,)), [[[1]], [[0]]]), {"multiplicities": (), "order_note": ""},
     True, "CollectionSpec(space=FlagSpace(n=2, steps=(1,)), labels=(((1,),), ((0,),)), "
           "multiplicities=(1, 1), order_note='')"),
    (ExtTable, (2, 1, {(0, 0, 0): 1, (0, 1, 1): 2}), {"dims": None}, False,
     "ExtTable(size=2, max_degree=1, dims={(0, 0, 0): 1, (0, 1, 1): 2})"),
    (VerificationReport, (SPEC,), {}, True,
     "VerificationReport(spec=CollectionSpec(space=FlagSpace(n=2, steps=(1,)), "
     "labels=(((1,),), ((0,),)), multiplicities=(1, 1), order_note='note'))"),
    (CSAClass, (4, 2, [1, 2]), {"index_table": None}, True,
     "CSAClass(degree=4, period=2, index_table=(1, 2))"),
    (DescentSummary, ((0, 1), (1, 1), (1, 2), 5), {"notes": ()}, True,
     "DescentSummary(summand_labels=(0, 1), multiplicities=(1, 1), ranks=(1, 2), end_dim=5, "
     "notes=())"),
    (WedgeReport, (2, 4), {}, True, "WedgeReport(d=2, n=4)"),
    (BaseModel, (1,), {"degrees": ()}, True, "BaseModel(dim=1, degrees=(0, 1))"),
    (TableFiber, (("a", "b"), TABLE_RECORDS), {"records": None}, False,
     "TableFiber(labels=('a', 'b'), records={(0, 0, 0, 0): 1, (1, 1, 0, 0): 1, (1, 0, 0, 2): 3})"),
    (FibrationPlan, (BaseModel(1), [(GrassFiber(1, (0, 1)), 2)]),
     {"layers": ()}, True,
     "FibrationPlan(root=BaseModel(dim=1, degrees=(0, 1)), "
     "layers=((GrassFiber(l=1, split_degrees=(0, 1)), 2),))"),
]


@pytest.mark.parametrize("cls, args, defaults, hashable, text", VALUES,
                         ids=[row[0].__name__ for row in VALUES])
def test_value_semantics(cls, args, defaults, hashable, text):
    assert issubclass(cls, FrozenValue)
    params = inspect.signature(cls).parameters
    # the constructor takes the fields, in order, as positional or keyword arguments
    assert tuple(params) == cls._fields
    assert {name: p.default for name, p in params.items() if p.default is not p.empty} == defaults
    value = cls(*args)
    same = cls(**dict(zip(cls._fields, args)))
    assert value == same and not value != same
    assert value != object() and value != FrozenValue()
    assert repr(value) == repr(same) == text
    assert value._asdict() == {name: getattr(value, name) for name in cls._fields}
    if hashable:
        assert hash(value) == hash(same)
    else:
        with pytest.raises(TypeError):
            hash(value)
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    assert copy.copy(value) == pickle.loads(pickle.dumps(value)) == value
    assert repr(copy.deepcopy(value)) == text


GRASS_2_4 = FlagSpace(4, (2,))
LINE = GrassFiber(1, (0, 1))

# (id, one spelling, another, hashable): each pair builds one value.  A value
# type with a defaulted or normalized field gets a row.
SPELLINGS = [
    ("CollectionSpec-labels", lambda: CollectionSpec(GRASS_2_4, (((1,),), ((),))),
     lambda: CollectionSpec(GRASS_2_4, (((1, 0),), ((0, 0),))), True),
    ("CollectionSpec-multiplicities", lambda: CollectionSpec(GRASS_2_4, (((1,),), ((),))),
     lambda: CollectionSpec(GRASS_2_4, (((1,),), ((),)), (1, 1)), True),
    ("CSAClass", lambda: CSAClass(6, 6), lambda: CSAClass(6, 6, (1, 6, 3, 2, 3, 6)), True),
    ("BaseModel", lambda: BaseModel(2), lambda: BaseModel(2, range(3)), True),
    ("GrassFiber", lambda: GrassFiber(2, [0, 1, 2]), lambda: GrassFiber(2, (0, 1, 2)), True),
    ("FlagSpace", lambda: FlagSpace(4, [1, 3]), lambda: FlagSpace(4, (1, 3)), True),
    ("FibrationPlan", lambda: FibrationPlan(BaseModel(1), [[LINE, 1]]),
     lambda: FibrationPlan(BaseModel(1), ((LINE, 1),)), True),
    ("ExtTable", lambda: ExtTable(1, 0, {(0, 0, 0): 1}),
     lambda: ExtTable(1, 0, {(0, 0, 0): 1, (0, 0, 1): 0}), False),
]


@pytest.mark.parametrize("one, other, hashable", [row[1:] for row in SPELLINGS],
                         ids=[row[0] for row in SPELLINGS])
def test_two_spellings_are_one_value(one, other, hashable):
    a, b = one(), other()
    assert a == b and not a != b
    assert repr(a) == repr(b)
    if hashable:
        assert hash(a) == hash(b)


def test_default_dicts_are_fresh():
    assert ExtTable(1, 0).dims == {}
    assert ExtTable(1, 0).dims is not ExtTable(1, 0).dims
    assert TableFiber(()).records == {}
    assert TableFiber(()).records is not TableFiber(()).records


def test_ext_table_equality_ignores_zero_entries():
    table = ExtTable(2, 1, {(0, 0, 0): 1, (1, 1, 0): 1})
    assert table == ExtTable(2, 1, {(0, 0, 0): 1, (1, 1, 0): 1, (0, 1, 1): 0})
    assert table != ExtTable(2, 1, {(0, 0, 0): 1, (1, 1, 0): 1, (0, 1, 1): 2})
    assert table != ExtTable(3, 1, {(0, 0, 0): 1, (1, 1, 0): 1})
    assert table != ExtTable(2, 2, {(0, 0, 0): 1, (1, 1, 0): 1})


def test_ext_table_owns_its_entries():
    dims = {(0, 0, 0): 1}
    table = ExtTable(1, 0, dims)
    dims[(0, 0, 1)] = 5
    assert table.dims == {(0, 0, 0): 1} and table.higher_witness() is None


def test_table_fiber_pushforwards_are_not_a_field():
    fiber = TableFiber(("a", "b"), TABLE_RECORDS)
    other = TableFiber(("a", "b"), dict(TABLE_RECORDS))
    object.__setattr__(other, "_pushforwards", {})
    assert fiber == other
    assert repr(fiber) == repr(other)
    assert "_pushforwards" not in repr(fiber) and "_pushforwards" not in fiber._asdict()
    assert fiber.pushforward(1, 0) == {2: 3} and other.pushforward(1, 0) == {}


def test_verdicts_are_read_from_their_evidence():
    assert FibrationPlan._fields == ("root", "layers")
    assert WedgeReport._fields == ("d", "n")
    assert GrassFiber._fields == ("l", "split_degrees")
    assert VerificationReport._fields == ("spec",)
    assert BaseModel._fields == ("dim", "degrees")
    assert DescentSummary._fields == ("summand_labels", "multiplicities", "ranks", "end_dim", "notes")
    for cls, name in ((FibrationPlan, "verified"), (FibrationPlan, "obstruction"),
                      (WedgeReport, "is_tilting"), (GrassFiber, "taut"),
                      (VerificationReport, "passed"), (DescentSummary, "total_rank"),
                      (DescentSummary, "summand_count")):
        assert isinstance(getattr(cls, name), property) and getattr(cls, name).fset is None
    assert not hasattr(FibrationPlan, "total_dimension")
    # a plan's verdict is read from its own table, built from its root and layers:
    # the root alone is its tilting bundle, and the Hirzebruch plan at m = 0 is obstructed
    root = FibrationPlan(BaseModel(1))
    assert root.verified and root.obstruction is None and root.table.size == 2
    obstructed = FibrationPlan(BaseModel(1), ((GrassFiber(1, (0, 1)), 0),))
    assert not obstructed.verified and obstructed.obstruction == (1, 2, 1, 1)
    assert obstructed.obstruction == obstructed.table.higher_witness()
    # a wedge report's values are read from the Kapranov table of its (d, n)
    wedge = WedgeReport(2, 4)
    assert wedge.is_tilting and (wedge.k0_rank, wedge.higher_ext_witness) == (6, None)
    assert GrassFiber(1).taut and GrassFiber(1) == GrassFiber(1, None)
    assert not GrassFiber(1, (0, 1)).taut
    for name in ("k0_rank", "end_dim", "higher_ext_witness"):
        with pytest.raises(AttributeError):
            setattr(wedge, name, None)
    # a report's values are read from the table of its collection, and none of them can be assigned
    report = VerificationReport(SPEC)
    assert (report.passed, report.triangularity_witness, report.k0_rank, report.end_algebra_dim,
            report.hom_matrix, report.order_note) == (True, None, 2, 4, ((1, 2), (0, 1)), "note")
    for name in VerificationReport.REPORTED + ("table",):
        with pytest.raises(AttributeError):
            setattr(report, name, None)
        with pytest.raises(AttributeError):
            delattr(report, name)
    assert VerificationReport(SPEC) == report and hash(VerificationReport(SPEC)) == hash(report)
    # O, O(3) on P^1: the report's own table has Ext^1(O(3), O) = H^1(O(-3)) = 2
    assert VerificationReport(beilinson_collection(1, (0, 3))).higher_ext_witness == (1, 0, 1, 2)
    assert DescentSummary((0, 1), (1, 1), (1, 2), 5).total_rank == 3
