import importlib.resources as resources
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import tiltcheck
from tiltcheck import cli


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


def test_invalid_inputs_exit_2(capsys):
    assert cli.run(["bott", "--space", "mystery:2", "--sub", "1"]) == 2
    capsys.readouterr()
    assert cli.run(["euler", "--a", "1", "--d", "4", "--n", "4"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.run(["no-such-command"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "kapranov", "--d", "2", "--n", "4"], 0),
        (["verify", "beilinson", "--n", "2", "--degrees", "0,1,2,3"], 1),
    ],
    ids=["kapranov", "beilinson"],
)
def test_optimized_interpreter_same_reports(argv, code):
    # python -O strips assert statements; the integrity checks must not be asserts
    src = str(Path(tiltcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    runs = [
        subprocess.run([sys.executable, *flags, "-m", "tiltcheck", *argv],
                       capture_output=True, text=True, env=env, check=False)
        for flags in ([], ["-O"])
    ]
    plain, optimized = runs
    assert plain.returncode == optimized.returncode == code
    assert plain.stdout == optimized.stdout
    assert json.loads(optimized.stdout)["verdict"] == ("pass" if code == 0 else "fail")


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["descent", "bs", "--period", "2"], "--degree"),
        (["descent", "bs", "--degree", "2"], "--period"),
        (["descent", "gbs", "--d", "2"], "--degree and --period"),
        (["descent", "gbs", "--degree", "4", "--period", "2"], "--d"),
        (["descent", "tower"], "--plan"),
    ],
    ids=["bs-degree", "bs-period", "gbs-degree-period", "gbs-d", "tower-plan"],
)
def test_descent_missing_option_is_named(capsys, argv, missing):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tiltcheck: invalid input: descent {argv[1]} needs {missing}\n"


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
    assert "PASS 3" in captured.err


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
    src = str(Path(tiltcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER_RUN, *argv],
                          capture_output=True, text=True, env=env, check=False)
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
    ],
    ids=["partitions", "euler", "verify", "fibration", "descent"],
)
def test_command_imports_only_its_modules(argv, needed, unused):
    loaded = modules_loaded_by(argv)
    assert {f"tiltcheck.{m}" for m in needed} <= loaded
    assert loaded.isdisjoint(f"tiltcheck.{m}" for m in unused)
    pool = [m for m in loaded if m.startswith(POOL_MODULES)]
    assert pool == []


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
