import argparse
import contextlib
import gc
import importlib.resources as resources
import io
import json
import os
import re
import subprocess
import sys
import zlib
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tiltcheck
from tiltcheck import cli
from tiltcheck.collections import VerificationReport
from tiltcheck.descent import DescentSummary


def run_cli(argv, capsys):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_verify_kapranov(capsys):
    code, report = run_cli(["verify", "kapranov", "--d", "2", "--n", "4"], capsys)
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["result"]["k0_rank"] == "6"


def test_verify_failure_exit_code(capsys):
    code, report = run_cli(["verify", "beilinson", "--n", "1", "--degrees", "0,-1"], capsys)
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["result"]["triangularity_witness"] == ["1", "0"]


def test_bott_spec_example(capsys):
    code, report = run_cli(["bott", "--space", "grass:2,4", "--sub-dual", "0,-1"], capsys)
    assert code == 0
    assert report["result"] == {"zero": True}


def test_bott_flag_space(capsys):
    code, report = run_cli(["bott", "--space", "flag:1,2;3", "--blocks", "0|0|0"], capsys)
    assert code == 0
    assert report["result"]["dimension"] == "1"


def test_descent_bs(capsys):
    code, report = run_cli(["descent", "bs", "--degree", "2", "--period", "2"], capsys)
    assert code == 0
    assert report["result"]["total_rank"] == "3"
    assert report["result"]["end_dim"] == "9"


def test_descent_gbs(capsys):
    code, report = run_cli(
        ["descent", "gbs", "--degree", "4", "--period", "2", "--d", "2"], capsys
    )
    assert code == 0
    assert report["result"]["summand_count"] == "6"


def test_partitions_and_lr_and_dim(capsys):
    code, report = run_cli(["partitions", "--rows", "2", "--cols", "2"], capsys)
    assert code == 0
    assert report["result"]["count"] == "6"
    code, report = run_cli(["lr", "--a", "2,1", "--b", "1", "--rank", "3"], capsys)
    assert code == 0
    assert len(report["result"]["terms"]) == 3
    code, report = run_cli(["schur-dim", "--weight", "2,1", "--n", "3"], capsys)
    assert report["result"]["dimension"] == "8"


def test_schur_dim_at_a_billion(capsys):
    # the dimension's cost follows the weight's rows, so n = 10^9 answers at once
    n = 10**9
    code, report = run_cli(["schur-dim", "--weight", "2,1", "--n", str(n)], capsys)
    assert code == 0
    assert report["result"]["dimension"] == str(n * (n - 1) * (n + 1) // 3)


def test_euler(capsys):
    code, report = run_cli(["euler", "--a", "1", "--b", "", "--d", "2", "--n", "4"], capsys)
    assert code == 0
    assert report["result"]["euler_characteristic"] == "4"


def test_fibration_search_plan_file(capsys, tmp_path):
    data = resources.files("tiltcheck") / "data"
    plan_path = tmp_path / "plan.json"
    plan_path.write_text((data / "hirzebruch_plan.json").read_text(encoding="utf-8"))
    code, report = run_cli(["fibration", "search", "--plan", str(plan_path)], capsys)
    assert code == 0
    assert report["result"]["verified"] is True
    assert report["result"]["twists"] == ["1"]
    assert report["result"]["summand_count"] == "4"


def test_fibration_fixed_twist_plan(capsys, tmp_path):
    data = resources.files("tiltcheck") / "data"
    plan_path = tmp_path / "plan.json"
    plan_path.write_text((data / "hirzebruch_plan.json").read_text(encoding="utf-8"))
    code, report = run_cli(
        ["fibration", "plan", "--plan", str(plan_path), "--twists", "0"], capsys
    )
    assert code == 1
    assert report["result"]["verified"] is False
    assert report["result"]["obstruction"] is not None


def test_fibration_plan_with_table_stage(capsys, tmp_path):
    data = resources.files("tiltcheck") / "data"
    table_path = tmp_path / "conic.json"
    table_path.write_text((data / "conic_fiber.json").read_text(encoding="utf-8"))
    plan = {
        "cap": 3,
        "root": {"dim": 1, "kind": "pn"},
        "stages": [{"kind": "table", "path": str(table_path)}],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, report = run_cli(["fibration", "search", "--plan", str(plan_path)], capsys)
    assert code == 0
    assert report["result"]["verified"] is True
    assert report["result"]["summand_count"] == "4"


def test_plan_table_path_relative_to_plan_file(capsys, tmp_path, monkeypatch):
    data = resources.files("tiltcheck") / "data"
    plan_dir = tmp_path / "plans"
    plan_dir.mkdir()
    (plan_dir / "conic.json").write_text((data / "conic_fiber.json").read_text(encoding="utf-8"))
    plan = {
        "cap": 3,
        "root": {"dim": 1, "kind": "pn"},
        "stages": [{"kind": "table", "path": "conic.json"}],
    }
    (plan_dir / "plan.json").write_text(json.dumps(plan))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    for plan_arg in (str(plan_dir / "plan.json"), os.path.join("..", "plans", "plan.json")):
        code, report = run_cli(["fibration", "search", "--plan", plan_arg], capsys)
        assert code == 0
        assert report["result"]["verified"] is True
        assert report["result"]["summand_count"] == "4"


GRASS_STAGE = {"kind": "grass", "l": 1, "degrees": [0, 1]}
PN_ROOT = {"kind": "pn", "dim": 1}


def conic_table_with(**changes):
    """The shipped conic fiber table with its first record changed."""
    table = json.loads((resources.files("tiltcheck") / "data" / "conic_fiber.json")
                       .read_text(encoding="utf-8"))
    table["pushforwards"][0].update(changes)
    return table


TABLE_STAGE_PLAN = {"root": PN_ROOT, "stages": [{"kind": "table", "path": "table.json"}]}


@pytest.mark.parametrize(
    "plan, table, message",
    [
        ([], None, "a plan must be a JSON object"),
        ({"root": [1]}, None, "a plan root must be a JSON object"),
        ({"root": PN_ROOT, "stages": [{**GRASS_STAGE, "degrees": [0, 1.7]}]}, None,
         "stage degree must be an integer, got 1.7"),
        ({"root": {**PN_ROOT, "dim": 1.9}, "stages": [GRASS_STAGE]}, None,
         "root dim must be an integer, got 1.9"),
        ({"root": {**PN_ROOT, "degrees": [0, 1.5]}, "stages": [GRASS_STAGE]}, None,
         "root degree must be an integer, got 1.5"),
        ({"root": PN_ROOT, "stages": [{**GRASS_STAGE, "l": True}]}, None,
         "stage l must be an integer, got True"),
        ({"root": PN_ROOT, "stages": [GRASS_STAGE], "cap": "4"}, None,
         "cap must be an integer, got '4'"),
        (TABLE_STAGE_PLAN, conic_table_with(multiplicity=1.0),
         "record multiplicity must be an integer, got 1.0"),
        (TABLE_STAGE_PLAN, conic_table_with(base_degree="0"),
         "record base_degree must be an integer, got '0'"),
        # a missing or mistyped field is named
        ({"root": PN_ROOT, "stages": "xx"}, None, "'stages' in a plan must be a JSON list"),
        ({"root": {"kind": "pn"}}, None, "a plan root is missing field 'dim'"),
        ({"root": {**PN_ROOT, "degrees": 2}}, None, "'degrees' in a plan root must be a JSON list"),
        ({"stages": [{"l": 1}]}, None, "a plan stage is missing field 'kind'"),
        ({"stages": ["grass"]}, None, "a plan stage must be a JSON object"),
        ({"root": PN_ROOT, "stages": [{"kind": "grass", "l": 1}]}, None,
         "a grass stage is missing field 'degrees'"),
        ({"root": PN_ROOT, "stages": [{"kind": "grass", "degrees": [0, 1]}]}, None,
         "a grass stage is missing field 'l'"),
        ({"stages": [GRASS_STAGE, {"kind": "grass-taut"}]}, None,
         "a grass-taut stage is missing field 'l'"),
        ({"stages": [{"kind": "table"}]}, None, "a table stage is missing field 'path'"),
        (TABLE_STAGE_PLAN, {"pushforwards": []}, "a fiber table is missing field 'objects'"),
        (TABLE_STAGE_PLAN, {"objects": "ab", "pushforwards": []},
         "'objects' in a fiber table must be a JSON list"),
        (TABLE_STAGE_PLAN, {"objects": ["a"]}, "a fiber table is missing field 'pushforwards'"),
        (TABLE_STAGE_PLAN, {"objects": ["a"], "pushforwards": [{"i": 0, "j": 0, "s": 0}]},
         "a pushforward record is missing field 'base_degree'"),
        (TABLE_STAGE_PLAN, {"objects": ["a"], "pushforwards": [
            {"i": 0, "j": 0, "s": 0, "base_degree": 0}]},
         "a pushforward record is missing field 'multiplicity'"),
    ],
    ids=["list", "root-list", "stage-degree-float", "root-dim-float", "root-degree-float",
         "stage-l-bool", "cap-string", "table-multiplicity-float", "table-degree-string",
         "stages-string", "root-no-dim", "root-degrees-int", "stage-no-kind", "stage-string",
         "grass-no-degrees", "grass-no-l", "taut-no-l", "table-no-path", "table-no-objects",
         "table-objects-string", "table-no-pushforwards", "record-no-degree", "record-no-mult"],
)
def test_malformed_plan_file_exits_2(capsys, tmp_path, plan, table, message):
    if table is not None:
        (tmp_path / "table.json").write_text(json.dumps(table))
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    for mode in ("search", "plan"):
        assert cli.run(["fibration", mode, "--plan", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"tiltcheck: invalid input: {message}\n"


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "files, argv, what",
    [
        ({"plan.json": f'{{"root": {DEEP}}}'}, ["fibration", "search", "--plan", "plan.json"],
         "a plan"),
        ({"tower.json": f'{{"stages": {DEEP}}}'}, ["descent", "tower", "--plan", "tower.json"],
         "a tower plan"),
        ({"plan.json": json.dumps(TABLE_STAGE_PLAN), "table.json": f'{{"objects": {DEEP}}}'},
         ["fibration", "plan", "--plan", "plan.json"], "a fiber table"),
    ],
    ids=["plan", "tower-plan", "fiber-table"],
)
def test_deeply_nested_json_is_invalid_input(capsys, tmp_path, monkeypatch, files, argv, what):
    # the decoder's RecursionError is the file's fault, not an engine error
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tiltcheck: invalid input: {what} is nested too deeply to decode\n"


@pytest.mark.parametrize("cap", [0, -3])
@pytest.mark.parametrize("stages", [[], [GRASS_STAGE]], ids=["root-only", "one-stage"])
def test_search_refuses_non_positive_cap(capsys, tmp_path, stages, cap):
    # one rule whether or not the plan has stages: refused before any table is built
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"root": PN_ROOT, "stages": stages, "cap": cap}))
    assert cli.run(["fibration", "search", "--plan", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tiltcheck: invalid input: cap must be positive\n"


TOWER_ALGEBRA = {"degree": 4, "period": 2}


@pytest.mark.parametrize(
    "plan, message",
    [
        ({"stages": [{"algebra": {"degree": 4.9, "period": 2}, "kind": "bs"}]},
         "algebra degree must be an integer, got 4.9"),
        ({"stages": [{"algebra": TOWER_ALGEBRA, "kind": "gbs", "params": {"d": 2.2}}]},
         "gbs d must be an integer, got 2.2"),
        ({"stages": [{"algebra": {"degree": 4, "period": True}, "kind": "bs"}]},
         "algebra period must be an integer, got True"),
        ({"stages": [{"algebra": {**TOWER_ALGEBRA, "indices": [1, "2"]}, "kind": "bs"}]},
         "algebra index must be an integer, got '2'"),
        # a missing or mistyped field is named; an unknown kind is refused once, here
        ([], "a tower plan must be a JSON object"),
        ({}, "a tower plan is missing field 'stages'"),
        ({"stages": [{"kind": "bs"}]}, "a tower stage is missing field 'algebra'"),
        ({"stages": [{"kind": "bs", "algebra": 4}]}, "a stage algebra must be a JSON object"),
        ({"stages": [{"kind": "bs", "algebra": {"period": 2}}]},
         "a stage algebra is missing field 'degree'"),
        ({"stages": [{"kind": "bs", "algebra": {"degree": 4}}]},
         "a stage algebra is missing field 'period'"),
        ({"stages": [{"kind": "bs", "algebra": {**TOWER_ALGEBRA, "indices": 1}}]},
         "'indices' in a stage algebra must be a JSON list"),
        ({"stages": [{"algebra": TOWER_ALGEBRA}]}, "a tower stage is missing field 'kind'"),
        ({"stages": [{"algebra": TOWER_ALGEBRA, "kind": "gbs"}]},
         "a gbs stage is missing field 'params'"),
        ({"stages": [{"algebra": TOWER_ALGEBRA, "kind": "gbs", "params": {}}]},
         "gbs params is missing field 'd'"),
        ({"stages": [{"algebra": TOWER_ALGEBRA, "kind": "cone"}]}, "unknown tower stage kind 'cone'"),
    ],
    ids=["degree-float", "d-float", "period-bool", "index-string", "tower-list",
         "tower-no-stages", "tower-no-algebra", "tower-algebra-int", "algebra-no-degree",
         "algebra-no-period", "algebra-indices-int", "tower-no-kind", "gbs-no-params",
         "gbs-no-d", "tower-kind"],
)
def test_malformed_tower_file_exits_2(capsys, tmp_path, plan, message):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(plan))
    assert cli.run(["descent", "tower", "--plan", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tiltcheck: invalid input: {message}\n"


def test_determinism_byte_identical(capsys):
    argv = ["verify", "kapranov", "--d", "2", "--n", "4"]
    cli.run(argv)
    first = capsys.readouterr().out
    cli.run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_numbers_are_strings(capsys):
    _code, report = run_cli(["schur-dim", "--weight", "2,1", "--n", "3"], capsys)
    assert isinstance(report["result"]["dimension"], str)
    # ints become strings at every depth; bools, an int subclass, stay bools
    assert cli._canonical({"m": [[1, 0], (True, False)], 2: (-3, [4, None])}) == {
        "m": [["1", "0"], [True, False]], "2": ["-3", ["4", None]]}


@pytest.mark.parametrize("space", ["flag:1,2", "grass:2", "grass:1,2,4", "flag:;3", "grass:x,4",
                                   "mystery:2"])
def test_malformed_space_gets_the_usage_text(capsys, space):
    assert cli.run(["bott", "--space", space, "--blocks", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"tiltcheck: invalid input: unknown space descriptor {space!r} "
                            "(use grass:d,n or flag:l1,..;n)\n")


def test_well_formed_space_keeps_its_own_refusal(capsys):
    assert cli.run(["bott", "--space", "flag:2,1;3", "--blocks", "0|0|0"]) == 2
    assert capsys.readouterr().err == "tiltcheck: invalid input: steps must be strictly increasing\n"


@pytest.mark.parametrize("option, bundle", [("--sub", "of_sub"), ("--quot", "of_quot")])
def test_bott_sub_and_quot(capsys, option, bundle):
    from tiltcheck import bwb
    space = bwb.grassmannian(2, 4)
    expected = bwb.flag_cohomology(getattr(bwb, bundle)(space, (1,)))
    code, report = run_cli(["bott", "--space", "grass:2,4", option, "1"], capsys)
    assert code == 0
    assert report["result"] == cli._canonical(cli._cohomology_payload(expected))
    assert report["inputs"] == {"space": "grass:2,4", option[2:]: "1"}  # as given, not its blocks


def test_invalid_inputs_exit_2(capsys):
    assert cli.run(["bott", "--space", "mystery:2", "--sub", "1"]) == 2
    capsys.readouterr()
    assert cli.run(["euler", "--a", "1", "--d", "4", "--n", "4"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-command"])
    assert exc.value.code == 2


def test_euler_refuses_partition_longer_than_rank(capsys):
    assert cli.run(["euler", "--a", "1,1,1", "--b", "0", "--d", "2", "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("tiltcheck: invalid input: "
                            "weight (1, 1, 1) longer than declared length 2\n")


@pytest.mark.parametrize("error", [ArithmeticError, RecursionError])
def test_engine_errors_exit_2(capsys, monkeypatch, error):
    def failing(spec):
        raise error("integrity check failed")

    monkeypatch.setattr("tiltcheck.collections.ext_table", failing)
    assert cli.run(["verify", "kapranov", "--d", "2", "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tiltcheck: ")
    assert "integrity check failed" in captured.err
    assert "Traceback" not in captured.err


def cli_env(**extra):
    """The environment of a fresh `python -m tiltcheck` on this checkout's sources."""
    src = str(Path(tiltcheck.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", **extra)


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (["verify", "kapranov", "--d", "2", "--n", "4"], "pass"),
        (["verify", "kapranov", "--d", "4", "--n", "9"], "pass"),
        (["verify", "beilinson", "--n", "2", "--degrees", "0,1,2,3"], "fail"),
        (["verify", "flag", "--steps", "1,2", "--n", "3"], "pass"),
        (["verify", "flag", "--steps", "1,3,5", "--n", "6"], "pass"),
        (["fibration", "search", "--plan",
          str(resources.files("tiltcheck") / "data" / "hirzebruch_plan.json")], "pass"),
        (["fibration", "search", "--plan", "EQUAL_DEGREE_PLAN"], "pass"),
        (["fibration", "plan", "--twists", "0,0", "--plan",
          str(resources.files("tiltcheck") / "data" / "flag_1_2_3_plan.json")], "pass"),
        (["fibration", "search", "--plan",
          str(resources.files("tiltcheck") / "data" / "sp4_borel_split_plan.json")], "pass"),
        (["fibration", "plan", "--twists", "0", "--plan",
          str(resources.files("tiltcheck") / "data" / "hirzebruch_plan.json")], "fail"),
        (["descent", "tower", "--plan", "TOWER_PLAN"], "n/a"),
        (["descent", "gbs", "--degree", "4", "--period", "2", "--d", "2"], "n/a"),
        (["descent", "gbs", "--degree", "8", "--period", "2", "--d", "4"], "n/a"),
        (["descent", "gbs", "--degree", "10", "--period", "2", "--d", "5"], "n/a"),
        (["descent", "bs", "--degree", "4", "--period", "2", "--indices", "1,3"], None),
        (["descent", "bs", "--degree", "4", "--period", "2", "--indices", "1,2"], "n/a"),
        (["euler", "--a", "2,1", "--b", "1", "--d", "2", "--n", "4"], "n/a"),
        (["--pretty", "verify", "flag", "--steps", "1,2", "--n", "3"], "pass"),
        (["verify", "torus", "--n", "3"], "usage"),
        (["verify", "kapranov", "--d", "2", "--n", "4", "--steps", "9", "--degrees", "5"], "usage"),
        (["descent", "bs", "--degree", "4", "--period", "2", "--d", "3", "--plan", "nothere"],
         "usage"),
        (["fibration", "search", "--twists", "0", "--plan",
          str(resources.files("tiltcheck") / "data" / "hirzebruch_plan.json")], "usage"),
        (["fibration", "search", "--plan", "NON_TILTING_ROOT_PLAN"], "fail"),
        (["fibration", "plan", "--plan", "NON_TILTING_ROOT_PLAN"], "fail"),
        (["verify", "beilinson", "--n", "2", "--degrees", "-1,0,1"], "pass"),
        (["bott", "--space", "grass:2,4", "--blocks", "-1,-1|0,0"], "n/a"),
    ],
    ids=["kapranov", "kapranov-4-9", "beilinson", "flag", "flag-1-3-5-6", "fibration",
         "fibration-equal-degrees", "fibration-plan-flag", "fibration-sp4",
         "fibration-plan-obstructed", "descent-tower", "descent-gbs", "descent-gbs-8-2-4",
         "descent-gbs-10-2-5", "descent-bad-index", "descent-bs", "euler", "pretty", "usage-error",
         "kapranov-other-kinds-options", "descent-bs-other-kinds-options",
         "fibration-search-twists", "fibration-search-non-tilting-root",
         "fibration-plan-non-tilting-root", "beilinson-negative-degrees", "bott-negative-blocks"],
)
def test_optimized_interpreter_same_reports(tmp_path, argv, verdict):
    # python -O strips assert statements; the integrity checks must not be asserts
    plans = {  # EQUAL_DEGREE_PLAN: a split stage of equal degrees 1, a taut stage on top
        "EQUAL_DEGREE_PLAN": {"root": {"kind": "pn", "dim": 1}, "cap": 4, "stages": [
            {"kind": "grass", "l": 2, "degrees": [1, 1, 1, 1]}, {"kind": "grass-taut", "l": 1}]},
        "TOWER_PLAN": TOWER_PLAN,  # a bs stage under a gbs stage
        "NON_TILTING_ROOT_PLAN": NON_TILTING_ROOT_PLAN,
    }
    root_obstructed = "NON_TILTING_ROOT_PLAN" in argv
    for name, payload in plans.items():
        if name in argv:
            plan = tmp_path / f"{name.lower()}.json"
            plan.write_text(json.dumps(payload))
            argv = [str(plan) if arg == name else arg for arg in argv]
    runs = [
        subprocess.run([sys.executable, *flags, "-m", "tiltcheck", *argv],
                       capture_output=True, text=True, env=cli_env(), check=False)
        for flags in ([], ["-O"])
    ]
    plain, optimized = runs
    assert (plain.returncode, plain.stdout, plain.stderr) == \
        (optimized.returncode, optimized.stdout, optimized.stderr)
    if verdict is None:  # refused by a constructor's validation
        assert optimized.returncode == 2 and optimized.stdout == ""
        assert optimized.stderr.startswith("tiltcheck: invalid input: ")
    elif verdict == "usage":  # refused by the argument parser
        assert optimized.returncode == 2 and optimized.stdout == ""
        assert optimized.stderr.startswith("usage: tiltcheck ")
    else:
        assert optimized.returncode == {"pass": 0, "n/a": 0, "fail": 1}[verdict]
        assert json.loads(optimized.stdout)["verdict"] == verdict
    if root_obstructed:  # the root's own degrees fail, with the witness of the root plan's table
        result = json.loads(optimized.stdout)["result"]
        assert result["obstruction"] == ["1", "0", "1", "2"]
        assert result["twists"] == ([] if "search" in argv else ["0"])  # search stops at the root


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_is_a_failed_report_write(unbuffered):
    # unbuffered, the report's write fails in `emit`; buffered, `main`'s flush does.
    # The read end is closed before the child, which needs at least 35 ms to start, writes.
    assert_closed_stdout_fails(["verify", "kapranov", "--d", "2", "--n", "4"], unbuffered)


def test_closed_stdout_fails_the_help_too():
    # argparse's exit after the help is taken as the exit code, so `main` still
    # flushes the buffered help, and reports the failed write, inside its handler
    assert_closed_stdout_fails(["--help"], "")


@pytest.mark.parametrize("unbuffered, argv", [("1", ["--help"]), ("1", ["descent", "bs", "--help"]),
                                              ("", ["descent", "bs", "--help"])],
                         ids=["unbuffered", "unbuffered-kind", "buffered-kind"])
def test_closed_stdout_fails_every_help(unbuffered, argv):
    # argparse's own help swallows a failed write; the CLI's parsers let it reach `main`
    assert_closed_stdout_fails(argv, unbuffered)


def assert_closed_stdout_fails(argv, unbuffered):
    proc = subprocess.Popen([sys.executable, "-m", "tiltcheck", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=cli_env(PYTHONUNBUFFERED=unbuffered))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == "tiltcheck: cannot write the report: [Errno 32] Broken pipe\n"


def test_missing_plan_file_is_invalid_input(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    assert cli.run(["fibration", "search", "--plan", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"tiltcheck: invalid input: [Errno 2] No such file or directory: {str(missing)!r}\n"


@pytest.mark.parametrize("argv", [["verify", "kapranov", "--d", "2", "--n", "4"],
                                  ["verify", "beilinson", "--n", "1", "--degrees", "0,-1"],
                                  ["schur-dim", "--weight", "1,2", "--n", "3"],
                                  ["verify", "torus", "--n", "3"]],
                         ids=["pass", "fail", "refused", "usage-error"])
def test_run_leaves_the_heap_unfrozen(capsys, argv):
    # library callers live on and keep collecting their heap
    before = gc.get_freeze_count()
    try:
        cli.run(argv)
    except SystemExit:
        pass
    assert gc.get_freeze_count() == before


FROZEN_AT_EXIT = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}\\n'))\n"
    "from tiltcheck import cli\n"
    "cli.main()\n"
)


@pytest.mark.parametrize(
    "argv, code",
    [(["verify", "kapranov", "--d", "2", "--n", "4"], 0),
     (["verify", "beilinson", "--n", "1", "--degrees", "0,-1"], 1),
     (["schur-dim", "--weight", "1,2", "--n", "3"], 2),
     (["verify", "torus", "--n", "3"], 2)],
    ids=["pass", "fail", "refused", "usage-error"],
)
def test_main_exits_with_a_frozen_heap(argv, code):
    # the shutdown's full collections find no tracked object left to visit
    proc = subprocess.run([sys.executable, "-c", FROZEN_AT_EXIT, *argv],
                          capture_output=True, text=True, env=cli_env(), check=False)
    assert proc.returncode == code
    last = proc.stderr.splitlines()[-1]
    assert re.fullmatch(r"frozen \d+", last) and int(last.split()[1]) > 0, proc.stderr


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["descent", "bs", "--period", "2"], "--degree"),
        (["descent", "bs", "--degree", "2"], "--period"),
        (["descent", "gbs", "--d", "2"], "--degree, --period"),
        (["descent", "gbs", "--degree", "4", "--period", "2"], "--d"),
        (["descent", "tower"], "--plan"),
    ],
    ids=["bs-degree", "bs-period", "gbs-degree-period", "gbs-d", "tower-plan"],
)
def test_descent_missing_option_is_named(capsys, argv, missing):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"tiltcheck descent {argv[1]}: error: "
                                 f"the following arguments are required: {missing}\n")


# the options each kind of a command reads, and so the only ones it takes
KIND_OPTIONS = {
    ("verify", "kapranov"): {"--d", "--n"},
    ("verify", "flag"): {"--steps", "--n"},
    ("verify", "beilinson"): {"--n", "--degrees"},
    ("descent", "bs"): {"--degree", "--period", "--indices", "--range-length"},
    ("descent", "gbs"): {"--degree", "--period", "--indices", "--d"},
    ("descent", "tower"): {"--plan"},
    ("fibration", "plan"): {"--plan", "--twists"},
    ("fibration", "search"): {"--plan"},
}


def subcommands(parser):
    """{name: subparser} of the parser's subcommands."""
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_each_kind_declares_only_the_options_it_reads():
    declared = {}
    for command, parser in subcommands(cli.build_parser()).items():
        if command in ("verify", "descent", "fibration"):
            for kind, kind_parser in subcommands(parser).items():
                declared[(command, kind)] = {option for a in kind_parser._actions
                                             for option in a.option_strings} - {"-h", "--help"}
    assert declared == KIND_OPTIONS
    assert sum(map(len, declared.values())) == 18 and len(REMOVED_SLOTS) == 16


HIRZEBRUCH = str(resources.files("tiltcheck") / "data" / "hirzebruch_plan.json")
# (command, kind): a valid command line, to which each option its kind does not read is added
KIND_ARGV = {
    ("verify", "kapranov"): ["--d", "2", "--n", "4"],
    ("verify", "flag"): ["--steps", "1,2", "--n", "3"],
    ("verify", "beilinson"): ["--n", "2"],
    ("descent", "bs"): ["--degree", "4", "--period", "2"],
    ("descent", "gbs"): ["--degree", "4", "--period", "2", "--d", "2"],
    ("descent", "tower"): ["--plan", "tower.json"],
    ("fibration", "plan"): ["--plan", HIRZEBRUCH],
    ("fibration", "search"): ["--plan", HIRZEBRUCH],
}
OPTION_VALUES = {"--d": "3", "--n": "4", "--steps": "9", "--degrees": "5", "--degree": "4",
                 "--period": "2", "--indices": "1,2", "--range-length": "3", "--plan": "nothere",
                 "--twists": "0"}
COMMAND_OPTIONS = {}  # every option some kind of the command reads
for (command, _kind), options in KIND_OPTIONS.items():
    COMMAND_OPTIONS.setdefault(command, set()).update(options)
# each kind refuses the options only its command's other kinds read
REMOVED_SLOTS = [(command, kind, option) for (command, kind), options in KIND_OPTIONS.items()
                 for option in sorted(COMMAND_OPTIONS[command] - options)]


@pytest.mark.parametrize("command, kind, option", REMOVED_SLOTS,
                         ids=[" ".join(row) for row in REMOVED_SLOTS])
def test_option_a_kind_does_not_read_is_a_usage_error(capsys, tmp_path, monkeypatch,
                                                      command, kind, option):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tower.json").write_text(json.dumps(TOWER_PLAN))
    argv = [command, kind, *KIND_ARGV[(command, kind)]]
    assert cli.run(argv) in (0, 1)  # the command line without the option runs
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.run([*argv, option, OPTION_VALUES[option]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"tiltcheck: error: unrecognized arguments: {option} {OPTION_VALUES[option]}\n")


# (id, a command with its options in full, the same with one option abbreviated)
ABBREVIATIONS = [
    ("partitions", ["partitions", "--rows", "1", "--cols", "1"],
     ["partitions", "--row", "1", "--col", "1"]),
    ("bott", ["bott", "--space", "grass:1,3", "--sub-dual", "1"],
     ["bott", "--space", "grass:1,3", "--sub-d", "1"]),
    ("pretty", ["--pretty", "partitions", "--rows", "1", "--cols", "1"],
     ["--pre", "partitions", "--rows", "1", "--cols", "1"]),
    ("verify-beilinson", ["verify", "beilinson", "--n", "1", "--degrees", "0"],
     ["verify", "beilinson", "--n", "1", "--deg", "0"]),
]


@pytest.mark.parametrize("full, abbreviated", [row[1:] for row in ABBREVIATIONS],
                         ids=[row[0] for row in ABBREVIATIONS])
def test_no_command_takes_an_abbreviated_option(capsys, full, abbreviated):
    # one spelling rule: every option, of every command and kind, is written in full
    assert cli.run(full) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.run(abbreviated)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: tiltcheck")


# the parsed name of each command's kind, the first key of its reports' inputs
KIND_KEY = {"verify": "collection", "descent": "variety", "fibration": "mode"}
# the options a kind may go without, with values its KIND_ARGV line takes
OPTIONAL_ARGV = {
    ("verify", "beilinson"): ["--degrees", "0,1,2"],
    ("descent", "bs"): ["--indices", "1,4", "--range-length", "2"],
    ("descent", "gbs"): ["--indices", "1,4"],
    ("fibration", "plan"): ["--twists", "1"],
}
ECHOED = [
    *([command, kind, *argv] for (command, kind), argv in KIND_ARGV.items()),
    *([command, kind, *KIND_ARGV[(command, kind)], *argv]
      for (command, kind), argv in OPTIONAL_ARGV.items()),
    ["partitions", "--rows", "2", "--cols", "2"],
    ["lr", "--a", "2,1", "--b", "1", "--rank", "3"],
    ["schur-dim", "--weight", "2,1", "--n", "3"],
    ["bott", "--space", "grass:2,4", "--sub-dual", "0,-1"],
    ["euler", "--a", "1", "--b", "", "--d", "2", "--n", "4"],
    ["selftest", "--criteria", "3"],
    # a comma list whose first entry is negative is a value, not an option
    ["verify", "beilinson", "--n", "2", "--degrees", "-1,0,1"],
    ["bott", "--space", "grass:2,4", "--sub-dual", "-1,-2"],
    ["schur-dim", "--weight", "-1,-2", "--n", "2"],
    ["bott", "--space", "grass:2,4", "--blocks", "-1,-1|0,0"],
]


@pytest.mark.parametrize("argv", ECHOED, ids=[" ".join(argv).replace(HIRZEBRUCH, "hirzebruch")
                                               for argv in ECHOED])
def test_report_inputs_are_the_options_given(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tower.json").write_text(json.dumps(TOWER_PLAN))
    assert cli.run(argv) in (0, 1)
    out = capsys.readouterr().out
    report = json.loads(out)
    command, options = argv[0], argv[1:]
    given = {KIND_KEY[command]: options.pop(0)} if command in KIND_KEY else {}
    given.update((option[2:].replace("-", "_"), value)
                 for option, value in zip(options[::2], options[1::2]))
    assert report["command"] == command and report["inputs"] == given
    # the report names its own command line: run from its inputs alone, the same bytes
    assert cli.run(command_line(report)) in (0, 1)
    assert capsys.readouterr().out == out


def command_line(report):
    """The command line a report's `inputs` spell, each option as `--name value`."""
    inputs = dict(report["inputs"])
    command = report["command"]
    argv = [command, inputs.pop(KIND_KEY[command])] if command in KIND_KEY else [command]
    for key, value in inputs.items():
        argv += [f"--{key.replace('_', '-')}", value]
    return argv


def run_in_process(argv):
    """(exit code, stdout, stderr) of `cli.run(argv)`, argparse's SystemExit taken as the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def int_lists(lo, hi, min_size=0, max_size=3, order=None):
    """Comma lists of integers in [lo, hi]; `order` sorted ("up" strictly, "down" weakly)."""
    lists = st.lists(st.integers(lo, hi), min_size=min_size, max_size=max_size,
                     unique=order == "up")
    if order:
        lists = lists.map(partial(sorted, reverse=order == "down"))
    return lists.map(lambda xs: ",".join(map(str, xs)))


# the options of the commands without kinds
PLAIN_OPTIONS = {
    ("partitions",): {"--rows", "--cols"},
    ("lr",): {"--a", "--b", "--rank"},
    ("schur-dim",): {"--weight", "--n"},
    ("bott",): {"--space", "--sub", "--sub-dual", "--quot", "--blocks"},
    ("euler",): {"--a", "--b", "--d", "--n"},
    ("selftest",): {"--criteria"},
}
FUZZ_PLANS = [str(resources.files("tiltcheck") / "data" / name) for name in (
    "hirzebruch_plan.json", "flag_1_2_3_plan.json", "sp4_borel_split_plan.json",
    "conic_fiber.json")]
# small sizes: n <= 6 and degree <= 8; negative integers, and comma lists in and out of order
FUZZ_VALUES = {
    **dict.fromkeys(("--n", "--d", "--rank"), st.integers(-1, 6).map(str)),
    **dict.fromkeys(("--rows", "--cols"), st.integers(-1, 4).map(str)),
    **dict.fromkeys(("--degree", "--range-length"), st.integers(-1, 8).map(str)),
    "--period": st.integers(-1, 4).map(str),
    **dict.fromkeys(("--a", "--b", "--weight", "--sub", "--sub-dual", "--quot"),
                    st.one_of(int_lists(-2, 3, order="down"), int_lists(-3, 4))),
    "--steps": st.one_of(int_lists(1, 5, min_size=1, order="up"), int_lists(-1, 6)),
    "--degrees": int_lists(-3, 8, max_size=5),
    "--indices": int_lists(-1, 8, max_size=8),
    "--twists": int_lists(-1, 4, max_size=2),
    "--criteria": int_lists(-1, 9, min_size=1, max_size=2),
    "--blocks": st.lists(int_lists(-2, 3), min_size=1, max_size=3).map("|".join),
    "--space": st.one_of(
        st.builds("grass:{},{}".format, st.integers(1, 3), st.integers(2, 6)),
        st.builds("flag:{};{}".format, int_lists(1, 5, min_size=1, order="up"), st.integers(2, 6)),
        st.builds("flag:{};{}".format, int_lists(-1, 5, min_size=1), st.integers(-1, 6)),
        st.just("torus:1")),
    "--plan": st.sampled_from([*FUZZ_PLANS, "nothere.json"]),
}
FUZZ_JUNK = st.sampled_from(["", "x", "-1", "2.5", "1,,2", "-1,-2", " 1"])
# options a command line may go without, and bott's bundle options, of which it takes one
FUZZ_OPTIONAL = {"--indices", "--range-length", "--degrees", "--twists", "--criteria"}
FUZZ_ONE_OF = {"--sub", "--sub-dual", "--quot", "--blocks"}


@st.composite
def command_lines(draw):
    """A command line drawn from every command's options, in any order, as `--name value`
    or `--name=value`: each required one likely present, each optional one less so, and
    now and then one the line may not take; `-h` is left out."""
    command = draw(st.sampled_from([*KIND_OPTIONS, *PLAIN_OPTIONS, *((c,) for c in KIND_KEY)]))
    own = KIND_OPTIONS.get(command) or PLAIN_OPTIONS.get(command, set())
    options = [option for option in sorted(own - FUZZ_ONE_OF)
               if draw(st.integers(0, 9)) < (3 if option in FUZZ_OPTIONAL else 9)]
    if own & FUZZ_ONE_OF:
        options.append(draw(st.sampled_from(sorted(FUZZ_ONE_OF))))
    # now and then one the line may not take: another kind's, or a second bundle option
    others = (COMMAND_OPTIONS.get(command[0], set()) - own) | ((own & FUZZ_ONE_OF) - {*options})
    if others and not draw(st.integers(0, 7)):
        options.append(draw(st.sampled_from(sorted(others))))
    argv = ["--pretty"] if draw(st.booleans()) else []
    argv += command
    for option in draw(st.permutations(options)):
        value = draw(FUZZ_JUNK if not draw(st.integers(0, 19)) else FUZZ_VALUES[option])
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    return argv


# given as `--degrees=-1,0,1`, a leading negative list is a value; so must its rerun's be
@settings(derandomize=True, deadline=None, max_examples=200)
@example(["verify", "beilinson", "--n", "2", "--degrees=-1,0,1"])
@given(command_lines())
def test_fuzzed_command_lines(argv):
    # exit 0, 1 or 2; one JSON report exactly when the exit is 0 or 1; no traceback
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2) and "Traceback" not in err
    assert (out == "") == (code == 2)
    if out:
        report = json.loads(out)
        assert isinstance(report, dict) and out.endswith("}\n")
        # rerun from the report's inputs alone: the same report
        again = ["--pretty"] * (argv[0] == "--pretty") + command_line(report)
        assert run_in_process(again)[:2] == (code, out)


REPORT_FIELDS = set(VerificationReport.REPORTED)
SUMMARY_FIELDS = set(DescentSummary._fields) | {"summand_count", "total_rank"}
# the result keys as recorded in the report digests; a renamed field shows up here by name
RECORDED_KEYS = {
    "verify": {"is_strong_exceptional", "is_exceptional_each", "triangularity_witness",
               "higher_ext_witness", "k0_rank", "end_algebra_dim", "hom_matrix", "order_note",
               "generation_note"},
    "descent": {"summand_labels", "multiplicities", "ranks", "summand_count", "total_rank",
                "end_dim", "notes"},
}
TOWER_PLAN = {"stages": [{"algebra": {"degree": 4, "period": 2, "indices": [1, 2]}, "kind": "bs"},
                         {"algebra": {"degree": 4, "period": 2}, "kind": "gbs",
                          "params": {"d": 2}}]}
# O, O(3) on P^1 are not tilting: Ext^1(O(3), O) = H^1(O(-3)) = 2
NON_TILTING_ROOT_PLAN = {"root": {"kind": "pn", "dim": 1, "degrees": [0, 3]},
                         "stages": [{"kind": "grass", "l": 1, "degrees": [0, 1]}], "cap": 4}


@pytest.mark.parametrize("argv, fields", [
    (["verify", "kapranov", "--d", "2", "--n", "4"], REPORT_FIELDS),
    (["verify", "beilinson", "--n", "2", "--degrees", "0,1,2,3"], REPORT_FIELDS),
    (["descent", "bs", "--degree", "4", "--period", "2", "--indices", "1,2"], SUMMARY_FIELDS),
    (["descent", "gbs", "--degree", "4", "--period", "2", "--d", "2"], SUMMARY_FIELDS),
    (["descent", "tower", "--plan", "tower.json"], SUMMARY_FIELDS),
], ids=["verify-pass", "verify-fail", "descent-bs", "descent-gbs", "descent-tower"])
def test_result_keys_are_the_result_type_fields(capsys, tmp_path, monkeypatch, argv, fields):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tower.json").write_text(json.dumps(TOWER_PLAN))
    _code, report = run_cli(argv, capsys)
    assert set(report["result"]) == fields
    assert fields == RECORDED_KEYS[argv[0]]


def test_descent_tower_plan_file(capsys, tmp_path):
    plan = {
        "stages": [
            {"algebra": {"degree": 2, "period": 2}, "kind": "bs"},
            {"algebra": {"degree": 2, "period": 2}, "kind": "bs"},
        ]
    }
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(plan))
    code, report = run_cli(["descent", "tower", "--plan", str(path)], capsys)
    assert code == 0
    assert report["result"]["summand_count"] == "4"
    assert report["result"]["total_rank"] == "9"
    assert report["result"]["end_dim"] == "81"


def test_pretty_is_same_payload(capsys):
    code, plain = run_cli(["schur-dim", "--weight", "1,1", "--n", "4"], capsys)
    assert code == 0
    code, pretty = run_cli(
        ["--pretty", "schur-dim", "--weight", "1,1", "--n", "4"], capsys
    )
    assert code == 0
    assert plain == pretty
    assert plain["result"]["dimension"] == "6"


def test_selftest_subset(capsys):
    code = cli.run(["selftest", "--criteria", "3"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["verdict"] == "pass"
    assert [c["detail"] for c in report["result"]["criteria"]] == \
        ["126 line-bundle cohomologies agree exactly"]
    # the elapsed seconds go to stderr only, so the report stays byte-stable
    assert re.fullmatch(r"PASS 3 classical cohomology: 126 line-bundle cohomologies "
                        r"agree exactly \(\d+\.\d{3} s\)\n", captured.err)


@pytest.mark.parametrize("criteria, unknown", [("9", "9"), ("0,4", "0")], ids=["9", "0,4"])
def test_selftest_rejects_unknown_criteria(capsys, criteria, unknown):
    # an empty or silently shortened battery must not pass
    assert cli.run(["selftest", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tiltcheck: invalid input: no criterion numbered {unknown}\n"


LOADED_AFTER_RUN = (
    "import sys\n"
    "from tiltcheck import cli\n"
    "code = cli.run(sys.argv[1:])\n"
    "print(' '.join(sorted(sys.modules)))\n"
    "raise SystemExit(code)\n"
)
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")


def modules_loaded_by(argv):
    """Modules a fresh interpreter has loaded after `cli.run(argv)`."""
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER_RUN, *argv],
                          capture_output=True, text=True, env=cli_env(), check=False)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


PLAN = str(resources.files("tiltcheck") / "data" / "hirzebruch_plan.json")


@pytest.mark.parametrize(
    "argv, needed, unused",
    [
        (["partitions", "--rows", "1", "--cols", "1"], ["partitions"],
         ["schur", "bwb", "collections", "descent", "fibration", "acceptance"]),
        (["euler", "--a", "1", "--d", "2", "--n", "4"], ["bwb"],
         ["collections", "descent", "fibration", "acceptance"]),
        (["verify", "kapranov", "--d", "2", "--n", "4"], ["collections"],
         ["descent", "fibration", "acceptance"]),
        (["fibration", "search", "--plan", PLAN], ["fibration"], ["descent", "acceptance"]),
        (["descent", "gbs", "--degree", "4", "--period", "2", "--d", "2"], ["descent"],
         ["fibration", "acceptance"]),
        (["selftest", "--criteria", "3"], ["acceptance"], []),
    ],
    ids=["partitions", "euler", "verify", "fibration", "descent", "selftest"],
)
def test_command_imports_only_its_modules(argv, needed, unused):
    loaded = modules_loaded_by(argv)
    assert {f"tiltcheck.{m}" for m in needed} <= loaded
    assert loaded.isdisjoint(f"tiltcheck.{m}" for m in unused)
    pool = [m for m in loaded if m.startswith(POOL_MODULES)]
    assert pool == []
    # the value types are partitions.FrozenValue: no command pays for dataclasses
    # or for the inspect, ast, dis and tokenize it pulls in
    assert loaded.isdisjoint({"dataclasses", "inspect"})


def test_jobs_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["--jobs", "2", "verify", "kapranov", "--d", "2", "--n", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_jobs_environment_variable_is_ignored(capsys, monkeypatch):
    argv = ["verify", "flag", "--steps", "1,2,3", "--n", "4"]
    reports = []
    for value in (None, "2"):
        if value is None:
            monkeypatch.delenv("TILTCHECK_JOBS", raising=False)
        else:
            monkeypatch.setenv("TILTCHECK_JOBS", value)
        assert cli.run(argv) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["verdict"] == "pass"


REPO = Path(__file__).resolve().parents[1]
EXPECTED_DIGESTS = json.loads((REPO / "perfbench" / "expected_digests.json").read_text())


def report_digest(report):
    """Length and CRC-32 of the report's result and verdict, as recorded."""
    blob = json.dumps({"result": report["result"], "verdict": report["verdict"]},
                      sort_keys=True).encode()
    return f"{len(blob)}-{zlib.crc32(blob):08x}"


@pytest.mark.parametrize("key", sorted(EXPECTED_DIGESTS))
def test_report_matches_recorded_digest(capsys, monkeypatch, key):
    monkeypatch.chdir(REPO)  # plan paths in the keys are relative to the repository root
    code = cli.run(key.split())
    report = json.loads(capsys.readouterr().out)
    assert report_digest(report) == EXPECTED_DIGESTS[key]
    assert code == {"pass": 0, "n/a": 0, "fail": 1}[report["verdict"]]
