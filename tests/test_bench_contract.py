"""The benchmark's and the demos' view of the package: every aoijam name
that bench/ or demos/ uses still exists, and every export has a user
outside the tests.

Both are read as source (ast), never imported, run or edited, so an API
cleanup that would break a benchmark run or a demo fails here first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import aoijam

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
# tracing.py's module-level names whose strings are "<module>.<function>"
TRACED_NAMES = ("_MEASURES", "_PLAN_BUILDS", "_DESCENT", "_NASH_CHECKS",
                "_STACKELBERG")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), path.name)


def _aoijam_imports():
    """Sorted (file, module, name or "") of every aoijam import; a demo's
    file is named demos/<file>."""
    found = set()
    for path in [*BENCH.glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        file = path.name if path.parent == BENCH else f"demos/{path.name}"
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module.split(".")[0] == "aoijam"):
                found.update((file, node.module, alias.name)
                             for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((file, alias.name, "")
                             for alias in node.names
                             if alias.name.split(".")[0] == "aoijam")
    return sorted(found)


def _traced_names():
    """Sorted (table, "<module>.<function>") of tracing.py's span names."""
    found = set()
    for node in _tree(BENCH / "tracing.py").body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in TRACED_NAMES):
            continue
        value = node.value
        items = (value.keys if isinstance(value, ast.Dict)
                 else getattr(value, "elts", [value]))
        found.update((node.targets[0].id, item.value) for item in items)
    return sorted(found)


def test_bench_is_read():
    # the parsers below found what they look for
    imports = _aoijam_imports()
    assert {module for _, module, _ in imports} >= {
        "aoijam", "aoijam.cli", "aoijam.model"}
    assert {file.startswith("demos/") for file, _, _ in imports} == {
        False, True}
    assert {table for table, _ in _traced_names()} == set(TRACED_NAMES)


@pytest.mark.parametrize("file, module, name", [
    pytest.param(*entry, id=":".join(entry).rstrip(":"))
    for entry in _aoijam_imports()])
def test_bench_imports_resolve(file, module, name):
    mod = importlib.import_module(module)
    if name:
        assert hasattr(mod, name), f"{file}: {module} has no {name!r}"


@pytest.mark.parametrize("table, dotted", [
    pytest.param(table, dotted, id=f"{table}:{dotted}")
    for table, dotted in _traced_names()])
def test_traced_names_are_functions(table, dotted):
    module, _, func = dotted.partition(".")
    value = getattr(importlib.import_module(f"aoijam.{module}"), func, None)
    assert inspect.isfunction(value), (
        f"tracing.{table} names {dotted!r}, which is not a function")


def _names_referenced(paths):
    """Every name that code in `paths` reads: an ast.Name, an attribute, or
    a name imported from aoijam.  Strings (tracing.py's span names) do not
    count."""
    used = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module.split(".")[0] == "aoijam"):
                used.update(alias.name for alias in node.names)
    return used


def test_every_export_has_a_user_outside_the_tests():
    # an export that only tests use moves into the tests or is deleted
    package = Path(aoijam.__file__).parent
    paths = [*(p for p in package.rglob("*.py") if p.name != "__init__.py"),
             *BENCH.glob("*.py"), *(ROOT / "demos").glob("*.py")]
    used = _names_referenced(paths)
    assert sorted(set(aoijam.__all__) - used) == []
