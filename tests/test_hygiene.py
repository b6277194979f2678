"""Source hygiene checks that need no linter.

Deleting a function often leaves behind an import that only it used.
This scan parses every module in ``src/`` and ``tests/`` and fails on
any imported name that the module never reads.  A second scan keeps
one kernel evaluator in ``src/``: the kernel ``phi_a`` is summed only
by ``_kernel_blocks``, and that only by ``_KernelSum``, so the dense
and matrix-free readings of every operator share one route.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def callers(source: str, name: str) -> list:
    """Top-level definitions of a module whose bodies call ``name``."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", getattr(func, "attr", None))
                if called == name:
                    found.add(getattr(top, "name", None))
    return sorted(found, key=str)


def test_scan_finds_callers():
    source = ("import m\nclass A:\n    def f(self):\n        return g(1)\n"
              "def h():\n    return m.g(2)\ng(3)\n")
    assert callers(source, "g") == ["A", None, "h"]


@pytest.mark.parametrize("name, owner", [
    ("_kernel_blocks", "_KernelSum"), ("phi_a", "_kernel_blocks")])
def test_kernel_has_one_caller(name, owner):
    found = {(path.name, caller) for path in SOURCES
             for caller in callers(path.read_text(encoding="utf-8"), name)}
    assert found == {("shell_ops.py", owner)}
