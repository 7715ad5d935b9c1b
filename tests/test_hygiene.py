"""Source hygiene: every name a module of esis imports is used in it, every
private name it defines at module level is read in it, and no module uses
a process-wide cache from functools."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "esis"
# The package __init__ imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_checker_finds_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)", "b (line 2)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_privates(source: str) -> list[str]:
    """Module-level private defs, classes and single-name assignments that
    nothing in the module reads. Tuple unpacks are not checked."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in defined.items() if name not in read]


def test_checker_finds_unused_private():
    assert unused_privates("_A = 1\n_B: int = 2\ndef _f(): return _B\nclass _C: pass\n"
                           "_D, _E = 1, 2\n__all__ = []\nPUBLIC = 3\n_G = 4\nprint(_G)\n") == [
        "_A (line 1)", "_f (line 3)", "_C (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_privates(path):
    assert unused_privates(path.read_text(encoding="utf-8")) == []


def is_true(node: ast.expr | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def unslotted_frozen_dataclasses(source: str) -> list[str]:
    """Classes decorated `@dataclass(frozen=True, ...)` without `slots=True`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            if (isinstance(deco, ast.Call) and isinstance(deco.func, ast.Name)
                    and deco.func.id == "dataclass"):
                flags = {kw.arg: kw.value for kw in deco.keywords}
                if is_true(flags.get("frozen")) and not is_true(flags.get("slots")):
                    found.append(f"{node.name} (line {node.lineno})")
    return found


def test_checker_finds_unslotted_frozen_dataclass():
    assert unslotted_frozen_dataclasses(
        "@dataclass(frozen=True)\nclass A: pass\n"
        "@dataclass(frozen=True, slots=True)\nclass B: pass\n"
        "@dataclass(slots=False, frozen=True)\nclass C: pass\n"
        "@dataclass\nclass D: pass\n@dataclass(slots=True)\nclass E: pass\n") == [
        "A (line 2)", "C (line 6)"]


def test_codec_values_are_slotted():
    # A frozen value without slots carries a __dict__: one per decoded PDU
    # or stub CLNP kept in the simulator's decode memo, one per event.
    for name in ("pdu.py", "engine.py", "rib.py"):
        assert unslotted_frozen_dataclasses((SRC / name).read_text(encoding="utf-8")) == [], name


FUNCTOOLS_CACHES = {"cache", "lru_cache", "cached_property"}


def functools_caches(source: str) -> list[str]:
    """Every use of functools' caches: a `from functools import` of one, or
    one read as an attribute of a name that `import functools` bound."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name in FUNCTOOLS_CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in FUNCTOOLS_CACHES
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.attr} (line {node.lineno})")
    return found


def test_checker_finds_functools_caches():
    assert functools_caches(
        "from functools import partial, lru_cache as lru\n"
        "import functools\nimport functools as ft\n"
        "@functools.cache\ndef f(): pass\n"
        "class A:\n    @ft.cached_property\n    def g(self): pass\n"
        "self.cache = {}\nother.lru_cache = None\n") == [
        "lru_cache (line 1)", "cache (line 4)", "cached_property (line 7)"]
    assert functools_caches("from functools import partial, reduce\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_functools_caches(path):
    # A cache that outlives a Node or Simulator would be shared by every run
    # in the process, and a log must stay a pure function of its scenario.
    assert functools_caches(path.read_text(encoding="utf-8")) == []
