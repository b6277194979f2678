"""Source hygiene checks that need no linter.

Deleting a function often leaves behind an import that only it used.
This scan parses every module in ``src/`` and ``tests/`` and fails on
any imported name that the module never reads.  It can also leave a
stale ``__all__`` entry, which fails only under ``import *``; a second
scan checks that each exported name is bound in its module.  A third
scan keeps one kernel evaluator in ``src/``: the kernel's formula lives
in ``kernel_fields`` alone, which only ``phi_a`` and the chunk loop
``_kernel_blocks`` call; ``phi_a`` too is called only by that loop, and
the loop only by ``_KernelSum`` and the cell rule's far sums in
``_cell_block``, so the dense and matrix-free readings of every operator
and the punctured sums of its cells share one route.  The cell rule
itself is called by ``_KernelSum`` alone, in the one pass per sheet
that also sums the operator's fields (the trace ``_trace_op`` is one
sheet, the squeezed ``_b_eps_op`` M), and a Dirac block is composed in
``spinor_blocks`` alone, for ``phi_a`` and the cell rule.  In ``shell_ops``
``exp`` serves only the closed-form disk moments and the smooth sample
densities, never a second copy of the kernel.
A fourth scan fails on a function, class or method of ``src/`` that
nothing in ``src/`` or ``perfbench/`` reads: code that only tests
reach is not part of the program, unless it is kept on purpose, as an
oracle or a hypothesis of the paper, in the scan's allow-list.
A fifth scan holds arguments to the same rule: every defaulted parameter
of a function, method or dataclass constructor in ``src/`` is passed,
by keyword or by position, by some call in ``src/`` or ``perfbench/``;
a knob that only tests turn is not part of the program either.  A
``field(init=False)`` is no argument and is exempt.  A sixth scan
fails on a dataclass field of ``src/`` that nothing in ``src/`` or
``perfbench/`` reads as an attribute.  A seventh scan keeps the Klein law
in one home: ``tan`` and ``tanh`` are called in ``src/`` by
``coupling.effective_coupling`` alone, and the pair of shell kinds is
written once, as ``coupling.KINDS``.  An eighth keeps the transverse
rule in one home: in ``src/`` only ``coupling`` samples the profile's
u and v, and in ``shell_ops`` ``sign`` serves only the closed-form
cells, never a second sign kernel.  A ninth keeps one eigensolver and
no dense matrix on a program path: ``eigsh`` is called by
``weighted_norm`` alone, and ``_KernelSum.matrix()`` only by
``ShellOperator``, whose ``matrix`` is built when a reader asks for it.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))
PROGRAM = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

#: definitions kept although no program code reads them, with the reason
TEST_ONLY_ALLOWED = {
    "rotation": "the tests' oracle for the electrostatic shell matching",
    "is_delta_eta_small": "the paper's smallness hypothesis on the profile",
    "Surface.area": "the closed-form area the tests hold mesh weights to",
}


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


def unbound_exports(source: str) -> list:
    """Names in a module's ``__all__`` that no top-level statement binds."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
                if getattr(target, "id", None) == "__all__":
                    exported = ast.literal_eval(node.value)
    return sorted(set(exported) - bound)


def test_scan_finds_an_unbound_export():
    source = ("from math import pi\n__all__ = ['pi', 'f', 'C', 'X', 'gone']\n"
              "X: int = 1\ndef f():\n    gone = 2\nclass C:\n    pass\n")
    assert unbound_exports(source) == ["gone"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_exports_are_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


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


@pytest.mark.parametrize("name, owners", [
    ("_kernel_blocks", [("shell_ops.py", "_KernelSum"),
                        ("shell_ops.py", "_cell_block")]),
    ("phi_a", [("shell_ops.py", "_kernel_blocks")]),
    ("_cell_block", [("shell_ops.py", "_KernelSum")]),
    ("spinor_blocks", [("dirac_algebra.py", "phi_a"),
                       ("shell_ops.py", "_cell_block")]),
    ("kernel_fields", [("dirac_algebra.py", "phi_a"),
                       ("shell_ops.py", "_kernel_blocks")])],
    ids=lambda v: v if isinstance(v, str) else "-".join(c for _, c in v))
def test_kernel_has_one_caller(name, owners):
    found = {(path.name, caller) for path in SOURCES
             for caller in callers(path.read_text(encoding="utf-8"), name)}
    assert found == set(owners)


def test_kernel_formula_lives_in_kernel_fields():
    def exp_callers(module):
        return callers((ROOT / "src" / "deltashell" / module).read_text(
            encoding="utf-8"), "exp")

    # phi_a composes its blocks from the fields and evaluates nothing itself
    assert exp_callers("dirac_algebra.py") == ["kernel_fields"]
    # the cell rule reads its far sums from the fields too
    assert exp_callers("shell_ops.py") == [
        "_disk_moments", "default_separable_density", "default_volume_density"]


def _reads(tree) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def unread_definitions(defining: dict, reading: list) -> list:
    """Functions, classes and methods that nothing outside their own body reads.

    ``defining`` maps a label to the source whose top-level functions and
    classes, and the methods of those classes (as ``Class.method``), are
    checked; ``reading`` holds the sources whose reads count.  A read is
    matched by name alone.  Dunder methods are called by the language,
    not by name, and are not checked.
    """
    total = sum((_reads(ast.parse(source)) for source in reading), Counter())
    unread = []
    for label, source in defining.items():
        for top in ast.parse(source).body:
            nodes = [top] + (top.body if isinstance(top, ast.ClassDef) else [])
            for node in nodes:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("__")
                        and total[node.name] == _reads(node)[node.name]):
                    name = node.name if node is top else f"{top.name}.{node.name}"
                    unread.append((label, name))
    return sorted(unread)


def test_scan_finds_an_unread_definition():
    lib = ("class A:\n    def used(self):\n        return 1\n"
           "    def unused(self):\n        return self.unused()\n"
           "    def __len__(self):\n        return 0\n"
           "def helper():\n    return A().used()\n"
           "def recursive(n):\n    return recursive(n - 1)\n")
    app = "from lib import helper\nhelper()\n"
    assert unread_definitions({"lib": lib}, [lib, app]) == [
        ("lib", "A.unused"), ("lib", "recursive")]


def _program() -> tuple:
    """The sources of ``src/`` by path, and every program source."""
    sources = {path: path.read_text(encoding="utf-8") for path in PROGRAM}
    defining = {str(path.relative_to(ROOT)): sources[path] for path in SOURCES}
    return defining, list(sources.values())


def test_every_definition_is_read_by_the_program():
    unread = unread_definitions(*_program())
    # a stale allow-list entry fails too: drop it once the program reads it
    assert sorted(name for _, name in unread) == sorted(TEST_ONLY_ALLOWED)


def _is_dataclass(node) -> bool:
    return any(getattr(d, "id", getattr(getattr(d, "func", None), "id", None))
               == "dataclass" for d in node.decorator_list)


def _fields(cls) -> list:
    """(name, default) of a dataclass's init fields, in order."""
    out = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            value = node.value
            if (isinstance(value, ast.Call)
                    and getattr(value.func, "id", None) == "field"
                    and any(k.arg == "init" and getattr(k.value, "value", True)
                            is False for k in value.keywords)):
                continue  # field(init=False): not an argument
            out.append((node.target.id, value))
    return out


def _defaulted(args, method: bool) -> list:
    """(position or None, name) of each defaulted parameter of a signature."""
    positional = (args.posonlyargs + args.args)[1 if method else 0:]
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def unset_parameters(defining: dict, reading: list) -> list:
    """Defaulted parameters that no call in ``reading`` passes.

    ``defining`` maps a label to the source whose top-level functions,
    methods of top-level classes and dataclass constructors are checked;
    ``reading`` holds the sources whose calls count.  A call is matched
    to a definition by name alone, and passes a parameter by keyword or
    by position; a ``*`` or ``**`` argument passes every parameter it
    could reach.  Dunder methods are not checked.
    """
    calls = []  # (name, positional count, keywords)
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                star = any(isinstance(a, ast.Starred) for a in node.args)
                calls.append((name, float("inf") if star else len(node.args),
                              {k.arg for k in node.keywords}))
    unset = []
    for label, source in defining.items():
        for top in ast.parse(source).body:
            sigs = []
            if isinstance(top, ast.FunctionDef):
                sigs.append((top.name, top.name, _defaulted(top.args, False)))
            elif isinstance(top, ast.ClassDef):
                if _is_dataclass(top):
                    sigs.append((top.name, top.name, [
                        (i, name) for i, (name, value) in enumerate(_fields(top))
                        if value is not None]))
                sigs += [(f"{top.name}.{node.name}", node.name,
                          _defaulted(node.args, True)) for node in top.body
                         if isinstance(node, ast.FunctionDef)
                         and not node.name.startswith("__")]
            for label_name, name, params in sigs:
                for pos, param in params:
                    if not any(called == name and (
                            param in kws or None in kws
                            or (pos is not None and count > pos))
                            for called, count, kws in calls):
                        unset.append((label, f"{label_name}({param})"))
    return sorted(unset)


def test_scan_finds_an_unset_parameter():
    lib = ("from dataclasses import dataclass, field\n"
           "def f(a, b=1, *, c=2, d=3):\n    return a\n"
           "class A:\n    def m(self, x=0, y=0):\n        return x\n"
           "    def __eq__(self, other=None):\n        return True\n"
           "@dataclass\nclass D:\n    p: int\n    q: int = 0\n"
           "    r: int = field(init=False, default=0)\n    s: int = 1\n"
           "def g(u=0, v=0, w=0):\n    return u\n")
    app = "f(1, 2, d=4)\nA().m(5)\nD(1, 2)\ng(*range(2))\n"
    assert unset_parameters({"lib": lib}, [lib, app]) == [
        ("lib", "A.m(y)"), ("lib", "D(s)"), ("lib", "f(c)")]


def test_every_parameter_is_set_by_the_program():
    assert unset_parameters(*_program()) == []


def unread_fields(defining: dict, reading: list) -> list:
    """Dataclass fields that no source in ``reading`` reads as an attribute.

    A read is an attribute load matched by name alone, so a write such
    as ``object.__setattr__(self, "x", ...)`` does not count.
    """
    read = {node.attr for source in reading for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted((label, f"{top.name}.{node.target.id}")
                  for label, source in defining.items()
                  for top in ast.parse(source).body
                  if isinstance(top, ast.ClassDef) and _is_dataclass(top)
                  for node in top.body
                  if isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)
                  and node.target.id not in read)


def test_scan_finds_an_unread_field():
    lib = ("from dataclasses import dataclass\n"
           "@dataclass(frozen=True)\nclass R:\n    x: float\n    y: float\n"
           "    def __post_init__(self):\n"
           "        object.__setattr__(self, 'y', self.x)\n"
           "class Plain:\n    z: int = 0\n")
    app = "print(R(1.0, 2.0).x)\n"
    assert unread_fields({"lib": lib}, [lib, app]) == [("lib", "R.y")]


def test_every_field_is_read_by_the_program():
    assert unread_fields(*_program()) == []


def kind_tuples(source: str) -> int:
    """How many tuple, list or set displays hold just the two shell kinds."""
    return sum(isinstance(node, (ast.Tuple, ast.List, ast.Set))
               and len(node.elts) == 2
               and {getattr(e, "value", None) for e in node.elts}
               == {"electrostatic", "scalar"}
               for node in ast.walk(ast.parse(source)))


def test_scan_finds_kind_tuples():
    source = ("K = ('electrostatic', 'scalar')\n"
              "if k not in ['scalar', 'electrostatic']:\n    pass\n"
              "x = ('scalar', 'vector')\ny = ('scalar', 'scalar')\n")
    assert kind_tuples(source) == 2


def test_klein_law_lives_in_coupling():
    texts = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    law = {(name, caller) for name, text in texts.items()
           for fn in ("tan", "tanh") for caller in callers(text, fn)}
    assert law == {("coupling.py", "effective_coupling")}
    kinds = {name: kind_tuples(text) for name, text in texts.items()}
    assert {name: count for name, count in kinds.items() if count} == {
        "coupling.py": 1}


def test_transverse_rule_lives_in_coupling():
    texts = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    for fn in ("u", "v"):
        assert {(name, caller) for name, text in texts.items()
                for caller in callers(text, fn)} == {("coupling.py", "_sampled_kv")}
    assert callers(texts["shell_ops.py"], "sign") == ["_cell_block", "_disk_moments"]


def test_one_eigensolver_and_the_dense_matrix_only_on_request():
    texts = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}

    def found(name):
        return {(module, caller) for module, text in texts.items()
                for caller in callers(text, name)}

    assert found("eigsh") == {("shell_ops.py", "weighted_norm")}
    assert found("matrix") == {("shell_ops.py", "ShellOperator")}
