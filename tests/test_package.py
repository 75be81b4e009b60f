import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tiltcheck
from tiltcheck import collections as coll

# the public surface as the eagerly importing package listed it
PUBLIC_NAMES = [
    "BaseModel", "CONTAINMENT_ORDER", "CSAClass", "CohomologyResult", "CollectionSpec",
    "DescentSummary", "ExtTable", "FibrationPlan", "FlagSpace", "GrassFiber",
    "HomogeneousBundle", "OrderedPartitionSet", "SIZE_ORDER", "TableFiber",
    "VerificationReport", "beilinson_collection", "bs_tilting_summary", "bwb",
    "candidate_ext_table", "collections", "conjugate", "contains", "descent",
    "end_quiver_dims", "enumerate_box_partitions", "ext_table", "fibration",
    "flag_cohomology", "flag_collection", "generalized_bs_summary", "grass_pushforward",
    "grassmannian", "hom_expand", "index_of_power", "kapranov_collection",
    "localization_euler", "lr_expand", "of_quot", "of_sub", "of_sub_dual", "partitions",
    "pn_line_cohomology", "projective_space", "relative_pushforward", "schur",
    "schur_dimension", "split_bundle_expand", "tower_compose", "twist_search",
    "twist_weight", "twisted_tower_summary", "verify_tilting",
]
SUBMODULES = ("bwb", "collections", "descent", "fibration", "partitions", "schur")


def run_python(code):
    src = str(Path(tiltcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_all_is_unchanged():
    assert tiltcheck.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 52


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_the_defining_modules_object(name):
    value = getattr(tiltcheck, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"tiltcheck.{name}")
        return
    assert not isinstance(value, types.ModuleType)
    if name.endswith("_ORDER"):  # plain strings carry no __module__
        assert value is getattr(tiltcheck.partitions, name)
    else:
        assert value is getattr(sys.modules[value.__module__], name)
        assert value.__module__ in {f"tiltcheck.{m}" for m in SUBMODULES}


def test_names_resolve_on_every_access(monkeypatch):
    def replaced(spec, jobs=1):
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
