import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tiltcheck
from tiltcheck import collections as coll

# the public surface: the program's entry points, and no helper only tests call
PUBLIC_NAMES = [
    "BaseModel", "CSAClass", "CohomologyResult", "CollectionSpec", "DescentSummary",
    "ExtTable", "FibrationPlan", "FlagSpace", "GrassFiber", "HomogeneousBundle",
    "OrderedPartitionSet", "TableFiber", "VerificationReport", "beilinson_collection",
    "bs_tilting_summary", "bwb", "candidate_ext_table", "collections", "conjugate",
    "descent", "enumerate_box_partitions", "ext_table", "fibration", "flag_cohomology",
    "flag_collection", "generalized_bs_summary", "grassmannian", "index_of_power",
    "kapranov_collection", "localization_euler", "lr_expand", "of_quot", "of_sub",
    "of_sub_dual", "partitions", "pn_line_cohomology", "projective_space", "schur",
    "schur_dimension", "split_bundle_expand", "tower_compose", "twist_search",
    "twisted_tower_summary", "verify_tilting",
]
SUBMODULES = ("bwb", "collections", "descent", "fibration", "partitions", "schur")
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def run_python(code):
    src = str(Path(tiltcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_all_is_unchanged():
    assert tiltcheck.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 44


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_the_defining_modules_object(name):
    value = getattr(tiltcheck, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"tiltcheck.{name}")
        return
    assert not isinstance(value, types.ModuleType)
    assert value is getattr(sys.modules[value.__module__], name)
    assert value.__module__ in {f"tiltcheck.{m}" for m in SUBMODULES}


def test_names_resolve_on_every_access(monkeypatch):
    def replaced(spec):
        raise AssertionError("not called")

    monkeypatch.setattr(coll, "ext_table", replaced)
    assert tiltcheck.ext_table is replaced
    monkeypatch.undo()
    assert tiltcheck.ext_table is coll.ext_table is not replaced
    assert "ext_table" not in vars(tiltcheck)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(tiltcheck, "no_such_name")
    assert not hasattr(tiltcheck, "no_such_name")


def test_dir_covers_all():
    assert set(PUBLIC_NAMES) <= set(dir(tiltcheck))
    assert "__version__" in dir(tiltcheck)


def test_import_loads_no_submodule():
    out = run_python("import sys, tiltcheck\n"
                     "print(sorted(m for m in sys.modules if m.startswith('tiltcheck')))")
    assert out.strip() == "['tiltcheck']"


def test_star_import_in_fresh_process():
    out = run_python("from tiltcheck import *\n"
                     "import tiltcheck\n"
                     "names = globals()\n"
                     "print(all(names[n] is getattr(tiltcheck, n) for n in tiltcheck.__all__))")
    assert out.strip() == "True"


def test_benchmark_names_resolve():
    # the benchmark traces these names from outside the package, so a surface
    # cut that drops one breaks its --trace pass; spans.py is run from its
    # text, which writes no bytecode next to it
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(spans))
    for module in spans.MODULES:
        importlib.import_module(f"tiltcheck.{module}")
    for qualname in spans.SPANNED + spans.COUNTED + spans.OBSERVED:
        owner, attr = spans._resolve(qualname)
        assert callable(getattr(owner, attr)), qualname


FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_is_reported_under_the_warning_filters(tmp_path):
    # a failing property makes hypothesis import libcst, whose import warns;
    # under the project's filters that must stay a test failure, not a crash
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    config = ROOT / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1


def test_test_imports_are_installed_by_the_test_extra():
    # an environment built by `pip install -e '.[test]'` can import every
    # module the tests (and the probe above) import
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    installed = {re.match(r"[\w.-]+", req).group().replace("-", "_").lower() for req in extra}
    test_modules = {path.stem for path in (ROOT / "tests").glob("*.py")}
    allowed = set(sys.stdlib_module_names) | {"tiltcheck"} | test_modules | installed
    sources = [path.read_text(encoding="utf-8") for path in (ROOT / "tests").glob("*.py")]
    imported = set()
    for tree in map(ast.parse, [*sources, FAILING_PROPERTY]):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert {"hypothesis", "pytest"} <= imported
    assert imported <= allowed, sorted(imported - allowed)
