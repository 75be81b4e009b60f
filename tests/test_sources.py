import ast
import warnings
from pathlib import Path

import pytest

import tiltcheck

SOURCES = sorted(Path(tiltcheck.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_without_warnings(path):
    # compile() from the text, so a cached .pyc cannot hide a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_has_no_assert(path):
    # python -O drops assert statements, so an integrity check must raise
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def module_level_imports(tree):
    """(module, names) of every import executed when the module is loaded."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.module or "", tuple(alias.name for alias in node.names)))
        todo.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_process_pool_at_import(path):
    # no command runs a process pool, so no process may pay to import one
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    heavy = [mod for mod, _names in module_level_imports(tree)
             if mod.split(".")[0] in ("concurrent", "multiprocessing")]
    assert heavy == []


def test_cli_imports_command_modules_per_command():
    path = Path(tiltcheck.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    per_command = {"acceptance", "descent", "fibration"}
    eager = []
    for mod, names in module_level_imports(tree):
        parts = set(mod.split(".")) | set(names)
        eager += sorted(parts & per_command)
    assert eager == []


def test_no_dataclasses_import():
    # dataclasses pulls in inspect, ast, dis and tokenize, and each decoration
    # execs generated methods: start-up every command would pay
    found = []
    for path in sorted(Path(tiltcheck.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            found += [(path.name, node.lineno) for mod in mods if mod.split(".")[0] == "dataclasses"]
    assert found == []
