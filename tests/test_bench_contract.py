"""The benchmark's view of the package: every aoijam name that bench/ uses
still exists.

bench/ is read as source (ast), never imported or edited, so an API cleanup
that would break a benchmark run fails here first.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
# tracing.py's module-level names whose strings are "<module>.<function>"
TRACED_NAMES = ("_MEASURES", "_PLAN_BUILDS", "_DESCENT", "_NASH_CHECKS",
                "_STACKELBERG")


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"), name)


def _aoijam_imports():
    """Sorted (file, module, name or "") of every aoijam import."""
    found = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module.split(".")[0] == "aoijam"):
                found.update((path.name, node.module, alias.name)
                             for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((path.name, alias.name, "")
                             for alias in node.names
                             if alias.name.split(".")[0] == "aoijam")
    return sorted(found)


def _traced_names():
    """Sorted (table, "<module>.<function>") of tracing.py's span names."""
    found = set()
    for node in _tree("tracing.py").body:
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
    assert {module for _, module, _ in _aoijam_imports()} >= {
        "aoijam.cli", "aoijam.model"}
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
