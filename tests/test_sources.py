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


def gc_references(tree):
    """Line numbers of every import of `gc` and every use of the name."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""]
        else:
            mods = [node.id] if isinstance(node, ast.Name) else []
        lines += [node.lineno for mod in mods if mod.split(".")[0] == "gc"]
    return lines


def test_only_the_process_entry_point_touches_gc():
    # `cli.main` freezes the heap as the process ends; any other caller lives on
    found, in_main = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if path.name == "cli.py" and isinstance(node, ast.FunctionDef) and node.name == "main":
                in_main = gc_references(node)
                node.body = []  # main's own references are allowed
        found += [(path.name, line) for line in gc_references(tree)]
    assert found == []
    assert in_main  # the check above is not vacuous


def names_used(tree):
    """Names a tree refers to: AST names, attributes, imported names and the
    dotted parts of string constants (such as `_EXPORTS` and span names)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))
    return used


def test_no_public_helper_only_tests_use():
    # every public module-level function or class is used in src/ outside its
    # own definition, or by the benchmark, which traces it from outside
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    outside = set()
    for name in ("spans.py", "run.py"):
        outside |= names_used(ast.parse((perfbench / name).read_text(encoding="utf-8")))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES}
    # names used per top-level statement, so a definition's own body is left out
    used = {path: [names_used(node) for node in tree.body] for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        elsewhere = outside.union(*(names for other, sets in used.items() if other != path
                                    for names in sets))
        for k, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not any(node.name in names for names in (elsewhere, *used[path][:k], *used[path][k + 1:])):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []
