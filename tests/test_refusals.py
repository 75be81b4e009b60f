"""Every input refusal runs: the engine call raises ValueError with its message,
and a refusal the CLI can reach exits 2 with that message and no traceback."""

import importlib.resources as resources
import json
import tracemalloc

import pytest

import tiltcheck
from tiltcheck import bwb, cli
from tiltcheck import collections as coll
from tiltcheck import descent as dsc
from tiltcheck import fibration as fib
from tiltcheck.partitions import OrderedPartitionSet, enumerate_box_partitions, normalize
from tiltcheck.schur import as_weight, lr_expand, product_expand, schur_dimension, split_bundle_expand

PN_ROOT = {"kind": "pn", "dim": 1}
HIRZEBRUCH = str(resources.files("tiltcheck") / "data" / "hirzebruch_plan.json")
CONIC = json.loads((resources.files("tiltcheck") / "data" / "conic_fiber.json")
                   .read_text(encoding="utf-8"))


def conic_with(**changes):
    """The shipped conic fiber table with its first record, the (0, 0) diagonal, changed."""
    records = [dict(CONIC["pushforwards"][0], **changes), *CONIC["pushforwards"][1:]]
    return {**CONIC, "pushforwards": records}


def dispatch(argv):
    """The command's own code, without `cli.run`'s catch."""
    args = cli.build_parser().parse_args(argv)
    return cli._DISPATCH[args.command](args)


def plan_with_table(table):
    """Files for a one-table-stage plan over P^1, and the search command on it."""
    plan = {"root": PN_ROOT, "stages": [{"kind": "table", "path": "table.json"}]}
    return {"plan.json": plan, "table.json": table}, ["fibration", "search", "--plan", "plan.json"]


NO_FILES = {}
DUPLICATE = {**CONIC, "pushforwards": CONIC["pushforwards"][:1] * 2}
ODD_LABELS = {**CONIC, "objects": [1, {"a": 1}]}
NON_SINGLE_STEP = bwb.FlagSpace(3, (1, 2))
SPLIT_SUB = ["bott", "--space", "flag:1,2;3"]

# (id, message, engine call, (files, argv) for the CLI, or None where no command reaches it)
REFUSALS = [
    ("flag-n", "n must be positive", lambda: bwb.FlagSpace(0, (1,)),
     (NO_FILES, ["verify", "flag", "--steps", "1", "--n", "0"])),
    ("flag-no-step", "need at least one step", lambda: bwb.FlagSpace(3, ()),
     (NO_FILES, ["verify", "flag", "--steps", "", "--n", "3"])),
    ("of-sub", "of_sub is a single-step helper", lambda: bwb.of_sub(NON_SINGLE_STEP, (1,)),
     (NO_FILES, [*SPLIT_SUB, "--sub", "1"])),
    ("of-sub-dual", "of_sub_dual is a single-step helper",
     lambda: bwb.of_sub_dual(NON_SINGLE_STEP, (1,)), (NO_FILES, [*SPLIT_SUB, "--sub-dual", "1"])),
    ("of-quot", "of_quot is a single-step helper", lambda: bwb.of_quot(NON_SINGLE_STEP, (1,)),
     (NO_FILES, [*SPLIT_SUB, "--quot", "1"])),
    ("pn-n", "n must be non-negative", lambda: bwb.pn_line_cohomology(0, -1), None),
    ("twist-count", "one twist per stage required",
     lambda: dispatch(["fibration", "plan", "--plan", HIRZEBRUCH, "--twists", "0,0"]),
     (NO_FILES, ["fibration", "plan", "--plan", HIRZEBRUCH, "--twists", "0,0"])),
    ("stage-l", "l must be positive", lambda: coll.GrassFiber(0, (0, 1)),
     ({"plan.json": {"root": PN_ROOT, "stages": [{"kind": "grass", "l": 0, "degrees": [0, 1]}]}},
      ["fibration", "search", "--plan", "plan.json"])),
    ("weights-per-stage", "one weight per stage required",
     lambda: coll.tower_hom_degrees((coll.GrassFiber(1, (0, 0)),), ((0,), (0,)), ((0,),)), None),
    ("multiplicity-count", "one multiplicity per object required",
     lambda: coll.CollectionSpec(bwb.grassmannian(1, 2), (((0,),),), (1, 1)), None),
    # a label given short is the object of its padded form
    ("padded-duplicate-grass", "objects must be pairwise distinct",
     lambda: coll.CollectionSpec(bwb.grassmannian(2, 4), (((1,),), ((1, 0),))), None),
    ("padded-duplicate-flag", "objects must be pairwise distinct",
     lambda: coll.CollectionSpec(NON_SINGLE_STEP, (((0,), (0,)), ((0,), (0, 0)))), None),
    ("kapranov-d", "need 1 <= d < n", lambda: coll.kapranov_collection(4, 4),
     (NO_FILES, ["verify", "kapranov", "--d", "4", "--n", "4"])),
    ("beilinson-n", "n must be positive", lambda: coll.beilinson_collection(0),
     (NO_FILES, ["verify", "beilinson", "--n", "0"])),
    ("twist-flag", "determinant twist helper is single-stage only",
     lambda: coll.twist_collection(coll.flag_collection(NON_SINGLE_STEP), 1), None),
    ("algebra-degree", "degree must be positive", lambda: dsc.CSAClass(0, 1),
     (NO_FILES, ["descent", "bs", "--degree", "0", "--period", "1"])),
    ("index-count", "index table must have one entry per residue mod period",
     lambda: dsc.CSAClass(4, 2, (1,)),
     (NO_FILES, ["descent", "bs", "--degree", "4", "--period", "2", "--indices", "1"])),
    # a given index table must be one a central simple algebra has
    ("index-period", "ind(A^1) = 1 must be a multiple of the period 6 of A^1",
     lambda: dsc.CSAClass(6, 6, (1,) * 6),
     (NO_FILES, ["descent", "bs", "--degree", "6", "--period", "6", "--indices", "1,1,1,1,1,1"])),
    ("index-subgroup", "ind(A^3) = 8 must equal ind(A^1) = 2, as gcd(3, 4) = 1",
     lambda: dsc.CSAClass(8, 4, (1, 2, 4, 8)),
     (NO_FILES, ["descent", "bs", "--degree", "8", "--period", "4", "--indices", "1,2,4,8"])),
    ("index-power-divides", "ind(A^2) = 9 must divide ind(A^1) = 6",
     lambda: dsc.CSAClass(18, 6, (1, 6, 9, 2, 9, 6)),
     (NO_FILES, ["descent", "gbs", "--degree", "18", "--period", "6", "--indices", "1,6,9,2,9,6",
                 "--d", "2"])),
    ("index-primes", "ind(A^1) = 6 has a prime factor that the period 2 of A^1 lacks",
     lambda: dsc.CSAClass(6, 2, (1, 6)),
     ({"tower.json": {"stages": [{"kind": "bs", "algebra": {"degree": 6, "period": 2,
                                                            "indices": [1, 6]}}]}},
      ["descent", "tower", "--plan", "tower.json"])),
    ("range-length", "range length must be positive",
     lambda: dsc.bs_tilting_summary(dsc.split_class(2), 0),
     (NO_FILES, ["descent", "bs", "--degree", "2", "--period", "1", "--range-length", "0"])),
    ("gbs-d", "need 1 <= d < degree", lambda: dsc.generalized_bs_summary(dsc.CSAClass(4, 2), 4),
     (NO_FILES, ["descent", "gbs", "--degree", "4", "--period", "2", "--d", "4"])),
    ("empty-tower", "tower needs at least one stage", lambda: dsc.twisted_tower_summary([]),
     ({"tower.json": {"stages": []}}, ["descent", "tower", "--plan", "tower.json"])),
    ("record-index", "record index (2, 0) out of range",
     lambda: fib.parse_fiber_table(json.dumps(conic_with(j=2))), plan_with_table(conic_with(j=2))),
    ("record-multiplicity", "multiplicities must be positive",
     lambda: fib.parse_fiber_table(json.dumps(conic_with(multiplicity=0))),
     plan_with_table(conic_with(multiplicity=0))),
    ("record-duplicate", "duplicate pushforward record (0, 0, 0, 0)",
     lambda: fib.parse_fiber_table(json.dumps(DUPLICATE)), plan_with_table(DUPLICATE)),
    ("root-kind", "unknown root kind 'cone'", lambda: fib.parse_plan({"root": {"kind": "cone"}}),
     ({"plan.json": {"root": {"kind": "cone"}}}, ["fibration", "search", "--plan", "plan.json"])),
    ("stage-kind", "unknown stage kind 'blowup'",
     lambda: fib.parse_plan({"stages": [{"kind": "blowup"}]}),
     ({"plan.json": {"stages": [{"kind": "blowup"}]}}, ["fibration", "plan", "--plan", "plan.json"])),
    ("box-rows", "rows must be positive", lambda: enumerate_box_partitions(0, 1),
     (NO_FILES, ["partitions", "--rows", "0", "--cols", "1"])),
    ("box-cols", "cols must be non-negative", lambda: enumerate_box_partitions(1, -1),
     (NO_FILES, ["partitions", "--rows", "1", "--cols", "-1"])),
    ("lr-rank", "rank must be positive", lambda: lr_expand((1,), (1,), 0),
     (NO_FILES, ["lr", "--a", "1", "--b", "1", "--rank", "0"])),
    ("schur-dim-n", "n must be positive", lambda: schur_dimension((1,), 0),
     (NO_FILES, ["schur-dim", "--weight", "1", "--n", "0"])),
    ("split-no-degree", "need at least one degree", lambda: split_bundle_expand((1,), ()), None),
    ("table-path", "table stage path must be a string, got 5",
     lambda: fib.parse_plan({"stages": [{"kind": "table", "path": 5}]}),
     ({"plan.json": {"root": PN_ROOT, "stages": [{"kind": "table", "path": 5}]}},
      ["fibration", "search", "--plan", "plan.json"])),
    ("fiber-label", "fiber object label must be a string, got 1",
     lambda: fib.parse_fiber_table(json.dumps(ODD_LABELS)), plan_with_table(ODD_LABELS)),
    ("fiber-label-object", "fiber object label must be a string, got {'a': 1}",
     lambda: fib.TableFiber(("a", {"a": 1}), {(0, 0, 0, 0): 1, (1, 1, 0, 0): 1}), None),
    # the engines take integers by json_int's rule, as the file readers do: a
    # float or bool is refused, not truncated (the CLI parses to ints first)
    ("partition-part", "partition part must be an integer, got 2.9", lambda: normalize((2.9, 1)),
     None),
    ("weight-entry", "weight entry must be an integer, got 1.5",
     lambda: as_weight((1.5,), 2), None),
    ("dimension-weight", "weight entry must be an integer, got True",
     lambda: schur_dimension((True,), 3), None),
    ("split-degree-int", "degree must be an integer, got 1.5",
     lambda: split_bundle_expand((1,), (0, 1.5)), None),
    ("pn-m", "m must be an integer, got 1.5", lambda: bwb.pn_line_cohomology(1.5, 2), None),
    ("flag-n-int", "n must be an integer, got 4.0", lambda: bwb.FlagSpace(4.0, (1,)), None),
    ("flag-step", "step must be an integer, got 1.0", lambda: bwb.FlagSpace(4, (1.0,)), None),
    ("block-entry", "block entry must be an integer, got 1.0",
     lambda: bwb.HomogeneousBundle(bwb.grassmannian(1, 2), ((1.0,), (0,))), None),
    ("power", "power must be an integer, got 1.5",
     lambda: dsc.index_of_power(dsc.CSAClass(4, 2), 1.5), None),
    # so is a size argument, once at the function's door
    ("dimension-n", "n must be an integer, got 2.5", lambda: schur_dimension((1,), 2.5), None),
    ("pn-n-int", "n must be an integer, got True", lambda: bwb.pn_line_cohomology(2, True), None),
    ("euler-d", "d must be an integer, got True",
     lambda: bwb.localization_euler((1,), (), True, 4), None),
    ("beilinson-n-int", "n must be an integer, got 2.0", lambda: coll.beilinson_collection(2.0),
     None),
    ("weight-length", "length must be an integer, got 2.5", lambda: as_weight((1,), 2.5), None),
    ("product-rank", "rank must be an integer, got 2.0", lambda: product_expand([(1,)], 2.0), None),
    ("box-rows-int", "rows must be an integer, got True", lambda: enumerate_box_partitions(True, 2),
     None),
    # the cache is typed, so 2.0 does not hit the entry of an integer call
    ("lr-rank-int", "rank must be an integer, got 2.0",
     lambda: (lr_expand((1,), (1,), 2), lr_expand((1,), (1,), 2.0)), None),
    # a weight is checked before the cache is read: a warm cache refuses as a cold one
    ("lr-weight-bool", "partition part must be an integer, got True",
     lambda: (lr_expand((1,), (1,), 2), lr_expand((True,), (1,), 2)), None),
    ("lr-weight-float", "partition part must be an integer, got 1.0",
     lambda: (lr_expand((1,), (1,), 2), lr_expand((1,), (1.0,), 2)), None),
    # the refusal echoes the weight as given, never padded to n
    ("weight-order", "not non-increasing: (1, 2)", lambda: schur_dimension((1, 2), 10**9),
     (NO_FILES, ["schur-dim", "--weight", "1,2", "--n", "1000000000"])),
]

# a malformed comma list of integers is refused with the option's name:
# (id, argv, option, the list given to it)
COMMA_LISTS = [
    ("lr-a", ["lr", "--a", "1,x", "--b", "1", "--rank", "2"], "--a", "1,x"),
    ("lr-b", ["lr", "--a", "1", "--b", "x", "--rank", "2"], "--b", "x"),
    ("schur-dim-weight", ["schur-dim", "--weight", "2,,1", "--n", "3"], "--weight", "2,,1"),
    ("euler-a", ["euler", "--a", "1.5", "--d", "2", "--n", "4"], "--a", "1.5"),
    ("euler-b", ["euler", "--b", "0,x", "--d", "2", "--n", "4"], "--b", "0,x"),
    ("bott-sub", ["bott", "--space", "grass:2,4", "--sub", "1,x"], "--sub", "1,x"),
    ("bott-sub-dual", ["bott", "--space", "grass:2,4", "--sub-dual", "x"], "--sub-dual", "x"),
    ("bott-quot", ["bott", "--space", "grass:2,4", "--quot", "1;1"], "--quot", "1;1"),
    ("bott-blocks", ["bott", "--space", "grass:2,4", "--blocks", "1,0|1,x"], "--blocks", "1,x"),
    ("verify-steps", ["verify", "flag", "--steps", "1,x", "--n", "4"], "--steps", "1,x"),
    ("verify-degrees", ["verify", "beilinson", "--n", "2", "--degrees", "0,1,x"], "--degrees",
     "0,1,x"),
    ("descent-indices", ["descent", "bs", "--degree", "4", "--period", "2", "--indices", "1,x"],
     "--indices", "1,x"),
    ("fibration-twists", ["fibration", "plan", "--plan", HIRZEBRUCH, "--twists", "a"], "--twists",
     "a"),
    ("selftest-criteria", ["selftest", "--criteria", "3,x"], "--criteria", "3,x"),
]
REFUSALS += [(name, f"{option} must be a comma list of integers, got {text!r}",
              lambda argv=argv: dispatch(argv), (NO_FILES, argv))
             for name, argv, option, text in COMMA_LISTS]


@pytest.mark.parametrize("message, call, command", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_input_refusal(capsys, tmp_path, monkeypatch, message, call, command):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
    if command is None:
        return
    files, argv = command
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tiltcheck: invalid input: {message}\n"


# a missing option, or one the command cannot take with another, is refused by
# the argument parser before any command runs: (id, argv, the parser's error)
USAGE_REFUSALS = [
    ("kapranov-no-d", ["verify", "kapranov", "--n", "4"],
     "tiltcheck verify kapranov: error: the following arguments are required: --d"),
    ("flag-no-steps", ["verify", "flag", "--n", "4"],
     "tiltcheck verify flag: error: the following arguments are required: --steps"),
    ("bott-two-bundles", ["bott", "--space", "grass:2,4", "--sub", "1", "--quot", "1"],
     "tiltcheck bott: error: argument --quot: not allowed with argument --sub"),
    ("bott-no-bundle", ["bott", "--space", "grass:2,4"],
     "tiltcheck bott: error: one of the arguments --sub --sub-dual --quot --blocks is required"),
]


@pytest.mark.parametrize("argv, error", [row[1:] for row in USAGE_REFUSALS],
                         ids=[row[0] for row in USAGE_REFUSALS])
def test_usage_refusal(capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: tiltcheck ") and captured.err.endswith(f"\n{error}\n")


def test_disordered_weight_refusal_allocates_nothing_of_size_n():
    # the refusal echoes the weight as given, so its cost does not follow n
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^not non-increasing: \(1, 2\)$"):
            schur_dimension((1, 2), 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


P1_LINE = coll.GrassFiber(1, (0, 0))
# (function, valid arguments, {position: name in the refusal}) for every public
# callable with a scalar integer argument, and for `as_weight` and `product_expand`
SIZE_ARGUMENTS = [
    (schur_dimension, ((1,), 2), {1: "n"}),
    (lr_expand, ((1,), (1,), 2), {2: "rank"}),
    (as_weight, ((1,), 2), {1: "length"}),
    (product_expand, ([(1,)], 2), {1: "rank"}),
    (enumerate_box_partitions, (2, 2), {0: "rows", 1: "cols"}),
    (OrderedPartitionSet, (1, 1), {0: "rows", 1: "cols"}),
    (bwb.FlagSpace, (4, (2,)), {0: "n"}),
    (bwb.grassmannian, (2, 4), {0: "step", 1: "n"}),
    (bwb.projective_space, (2,), {0: "m"}),
    (bwb.pn_line_cohomology, (1, 2), {0: "m", 1: "n"}),
    (bwb.localization_euler, ((1,), (), 2, 4), {2: "d", 3: "n"}),
    (coll.GrassFiber, (1, (0, 0)), {0: "l"}),
    (coll.kapranov_collection, (2, 4), {0: "d", 1: "n"}),
    (coll.beilinson_collection, (2,), {0: "n"}),
    (dsc.CSAClass, (4, 2), {0: "degree", 1: "period"}),
    (dsc.index_of_power, (dsc.CSAClass(4, 2), 1), {1: "power"}),
    (dsc.bs_tilting_summary, (dsc.CSAClass(2, 2), 2), {1: "range length"}),
    (dsc.generalized_bs_summary, (dsc.CSAClass(4, 2), 2), {1: "d"}),
    (fib.BaseModel, (1,), {0: "root dim"}),
    (fib.twist_search, (fib.FibrationPlan(fib.BaseModel(1)), P1_LINE, 2), {2: "cap"}),
    (fib.tower_compose, ((P1_LINE,), fib.BaseModel(1), 2), {2: "cap"}),
]
# public callables with no scalar integer argument to check; the result records
# (`CohomologyResult`, `DescentSummary`, `ExtTable`) hold what an engine computed
NO_SIZE_ARGUMENT = {
    "CohomologyResult", "CollectionSpec", "DescentSummary", "ExtTable", "FibrationPlan",
    "HomogeneousBundle", "TableFiber", "VerificationReport", "candidate_ext_table", "conjugate",
    "ext_table", "flag_cohomology", "flag_collection", "of_quot", "of_sub", "of_sub_dual",
    "split_bundle_expand", "twisted_tower_summary", "verify_tilting",
}


def test_every_public_size_argument_is_listed():
    public = {name for name in tiltcheck.__all__ if callable(getattr(tiltcheck, name))}
    listed = {fn.__name__ for fn, _args, _sizes in SIZE_ARGUMENTS}
    assert public - NO_SIZE_ARGUMENT <= listed
    assert NO_SIZE_ARGUMENT <= public and not listed & NO_SIZE_ARGUMENT


@pytest.mark.parametrize("fn, args, sizes", SIZE_ARGUMENTS,
                         ids=[row[0].__name__ for row in SIZE_ARGUMENTS])
def test_size_arguments_take_integers_only(fn, args, sizes):
    fn(*args)
    for position, what in sizes.items():
        for bad in (float(args[position]), True):
            call = list(args)
            call[position] = bad
            with pytest.raises(ValueError) as exc:
                fn(*call)
            assert str(exc.value) == f"{what} must be an integer, got {bad!r}"
