"""Source hygiene: every name a module of esis imports is used in it, every
private name it defines at module level is read in it, no module uses
a process-wide cache from functools or starts a module-level empty
container that could become one, no function on the frame path reads
an enum member off its class, the scenario module leaves value rules to
the API, and the package and its tests import nothing beyond the standard
library, pytest and hypothesis."""

import ast
import enum
import importlib.util
import sys
from pathlib import Path

import pytest

from esis import pdu
from esis.checksum import generate_checksum
from esis.engine import (AddressAssigned, Frame, MinimalClnpPdu, Node, NodeConfig,
                         RedirectIssued, Role, TimerSet, decode_clnp, encode_clnp)
from esis.rib import EntryKind, HopKind, NextHop, RedirectEntry, Rib, RibEntry

SRC = Path(__file__).resolve().parent.parent / "src" / "esis"
SOURCES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_privates(source: str) -> list[str]:
    """Module-level private defs, classes and assignments, to a name or
    unpacked into a tuple of names, that nothing in the module reads. A bare
    `_` is a placeholder and is not checked."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for target in node.targets
                     for t in (target.elts if isinstance(target, ast.Tuple) else [target])
                     if isinstance(t, ast.Name) and t.id != "_"]
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
        "_A (line 1)", "_f (line 3)", "_C (line 4)", "_D (line 5)", "_E (line 5)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_privates(path):
    assert unused_privates(path.read_text(encoding="utf-8")) == []


def foreign_imports(source: str, own: set[str]) -> list[str]:
    """Imports, at any depth, of a top-level module that is not in the
    standard library, pytest, hypothesis, esis or one of `own`. A relative
    import is of the importer's own package."""
    allowed = sys.stdlib_module_names | {"pytest", "hypothesis", "esis"} | own
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.partition(".")[0] not in allowed]
    return found


def test_checker_finds_foreign_imports():
    assert foreign_imports(
        "import os, requests as rq\nfrom os.path import join\nimport requests.adapters\n"
        "from scipy import stats\nfrom . import pdu\nimport pytest, hypothesis.strategies\n"
        "from esis.pdu import Pdu\nfrom helpers import x\ndef f():\n    import yaml\n",
        {"helpers"}) == [
        "requests (line 1)", "requests.adapters (line 3)", "scipy (line 4)", "yaml (line 10)"]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_only_the_standard_library_pytest_and_hypothesis(path):
    # Tier-1 runs wherever pytest and hypothesis do, on any supported Python.
    own = {test.stem for test in TESTS}
    assert foreign_imports(path.read_text(encoding="utf-8"), own) == []


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
    for path in SOURCES:
        assert unslotted_frozen_dataclasses(path.read_text(encoding="utf-8")) == [], path.name


def per_frame_values() -> list:
    """One of each value built per frame or event, from fresh bytes objects."""
    return [Frame(bytes([9, 0, 43, 0, 0, 4]), bytes([2, 0, 0, 0, 0, 1]), bytes([0x81, 1, 0x49])),
            MinimalClnpPdu(bytes([0x49, 1]), bytes([0x47, 2])), TimerSet(5),
            NextHop(HopKind.DIRECT, bytes([2, 0, 0, 0, 0, 2]))]


@pytest.mark.parametrize("index", range(4), ids=lambda i: type(per_frame_values()[i]).__name__)
def test_per_frame_values_are_immutable_and_compare_by_value(index):
    # These are built for every frame sent or event out, so they carry no
    # __dict__, take no assignment, and hash and compare by value.
    value, twin = per_frame_values()[index], per_frame_values()[index]
    assert not hasattr(value, "__dict__")
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert value._replace(**{value._fields[-1]: None}) != value


def built_values() -> dict[str, tuple[type, tuple]]:
    """Each per-frame or per-event value as the engine or the RIB builds it,
    with its class."""
    snpa, peer, is_snpa = (bytes([2, 0, 0, 0, 0, i]) for i in (1, 2, 255))
    nsap, peer_nsap, net = (bytes([0x49, i]) + bytes(18) for i in (1, 2, 255))
    es = Node(NodeConfig(Role.END_SYSTEM, snpa, local_nsaps=(nsap,)))
    hello = es.on_config_timer(0)[0]
    ish = pdu.Pdu(pdu.IshBody(net), 60, (pdu.Option(pdu.OptionCode.ESCT, b"\x00\x1e"),))
    is_ = Node(NodeConfig(Role.INTERMEDIATE_SYSTEM, is_snpa, local_net=net))
    is_.rib.insert_entry(EntryKind.ES_NEIGHBOR, peer_nsap, peer, 60, 0)
    issued, _, forward = is_.handle_frame(MinimalClnpPdu(nsap, peer_nsap), snpa, 0)
    rib = Rib()
    rib.insert_entry(EntryKind.ES_NEIGHBOR, peer_nsap, peer, 60, 0)
    rib.insert_entry(EntryKind.IS_NEIGHBOR, net, is_snpa, 60, 0)
    rib.record_redirect(nsap, is_snpa, None, 60, 0)
    rib.record_redirect(bytes([0x4a, 1]), is_snpa, net, 60, 0)
    return {
        "clnp_frame": (Frame, es.clnp_frame(nsap, peer_nsap, 0)),
        "hello Frame": (Frame, hello),
        "hello TimerSet": (TimerSet, es.on_config_timer(0)[-1]),
        "ESCT TimerSet": (TimerSet, es.handle_frame(ish, is_snpa, 0)[-1]),
        "forward Frame": (Frame, forward),
        "decode_clnp": (MinimalClnpPdu, decode_clnp(encode_clnp(nsap, peer_nsap))),
        "next_hop redirect": (NextHop, rib.next_hop(nsap, 0)),
        "next_hop redirect via IS": (NextHop, rib.next_hop(bytes([0x4a, 1]), 0)),
        "next_hop ES": (NextHop, rib.next_hop(peer_nsap, 0)),
        "next_hop IS": (NextHop, rib.next_hop(bytes(20), 0)),
        "pooled RibEntry": (RibEntry, rib.es_neighbors[peer_nsap]),
        "RedirectEntry": (RedirectEntry, rib.redirects[nsap]),
        "RedirectIssued": (RedirectIssued, issued),
        "AddressAssigned": (AddressAssigned, es.handle_frame(pdu.Pdu(pdu.AaBody(nsap), 60),
                                                             is_snpa, 0)[0]),
    }


def test_built_values_cover_each_hop_kind():
    values = built_values()
    names = ("redirect", "redirect via IS", "ES", "IS")
    assert [values[f"next_hop {name}"][1].kind for name in names] == [
        HopKind.DIRECT, HopKind.VIA_IS, HopKind.DIRECT, HopKind.VIA_IS]


@pytest.mark.parametrize("name", list(built_values()))
def test_per_frame_values_are_built_as_their_namedtuple(name):
    # The engine and the RIB build these with tuple.__new__, past the field
    # count check; each must still be its class, of its class's arity.
    cls, value = built_values()[name]
    assert type(value) is cls
    twin = cls(*value)
    assert value == twin and hash(value) == hash(twin)
    assert value._replace(**{cls._fields[0]: value[0]}) == value
    assert not hasattr(value, "__dict__")


def enum_member_reads(source: str, namespace: dict,
                      functions: set[str] | None = None) -> list[str]:
    """Reads of `Cls.MEMBER` in a function or lambda body, where `namespace`
    binds `Cls` to an enum class: a class attribute lookup on every call,
    where a module-level alias is one global read. With `functions`, only
    the bodies of the functions so named are checked."""
    found: dict[ast.AST, tuple[int, str]] = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        if functions is not None and name not in functions:
            continue
        for stmt in fn.body if isinstance(fn.body, list) else [fn.body]:
            for node in ast.walk(stmt):  # outer functions come first, so inner ones win
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and isinstance(cls := namespace.get(node.value.id), enum.EnumMeta)
                        and node.attr in cls.__members__):
                    found[node] = (node.lineno, f"{name}: {node.value.id}.{node.attr} "
                                                f"(line {node.lineno})")
    return [text for _, text in sorted(found.values())]


def test_checker_finds_enum_member_reads():
    class Color(enum.Enum):
        RED = 1

    source = ("RED = Color.RED\ndef f(c=Color.RED):\n    return Color.RED, Color.name\n"
              "g = lambda: Color.RED\nclass A:\n    def h(self):\n"
              "        def inner():\n            return Color.RED\n        return RED\n")
    assert enum_member_reads(source, {"Color": Color}) == [
        "f: Color.RED (line 3)", "<lambda>: Color.RED (line 4)", "inner: Color.RED (line 8)"]
    assert enum_member_reads(source, {"Color": Color}, {"f", "inner"}) == [
        "f: Color.RED (line 3)", "inner: Color.RED (line 8)"]


# Module -> the functions of it on the per-frame path, or None for all of them.
# `pdu.encode`'s error path may read members off their class.
FRAME_PATH = {"engine": None, "rib": None, "sim": None,
              "pdu": {"decode", "read_parts", "_option_fault"}}


@pytest.mark.parametrize("module", list(FRAME_PATH))
def test_frame_path_reads_no_enum_member_off_its_class(module):
    mod = importlib.import_module(f"esis.{module}")
    assert enum_member_reads((SRC / f"{module}.py").read_text(encoding="utf-8"),
                             vars(mod), FRAME_PATH[module]) == []


LINE_OWNERS = {"parse_scenario", "build_simulator"}
API_RULE_NAMES = {"address_fault", "Part", "SNPA_LEN", "MAX_NSAP_LEN", "LENIENT"}


def scenario_rule_leaks(source: str) -> list[str]:
    """`ScenarioError` built outside the top-level functions of LINE_OWNERS,
    and every name, attribute or import of the codec's address rules: the
    API objects own the value rules, and each phase gives a refusal its
    line in one place."""
    found = []
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "ScenarioError" and owner not in LINE_OWNERS):
                found.append((node.lineno, f"ScenarioError in {owner} (line {node.lineno})"))
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [(node.lineno, f"{name} (line {node.lineno})") for name in names
                      if name in API_RULE_NAMES]
    return [text for _, text in sorted(found)]


def test_checker_finds_scenario_rule_leaks():
    assert scenario_rule_leaks(
        "from .pdu import LENIENT, Part as P, ValidationProfile\n"
        "def _hex(lineno):\n    raise ScenarioError(lineno, 'x')\n"
        "def parse_scenario(text):\n    raise ScenarioError(1, pdu.MAX_NSAP_LEN)\n"
        "def build_simulator(sc):\n    def inner():\n        raise ScenarioError(2, SNPA_LEN)\n"
        "E = ScenarioError(3, address_fault)\nclass A:\n    x = ScenarioError(4, 'z')\n") == [
        "LENIENT (line 1)", "Part (line 1)", "ScenarioError in _hex (line 3)",
        "MAX_NSAP_LEN (line 5)", "SNPA_LEN (line 8)", "ScenarioError in None (line 9)",
        "address_fault (line 9)", "ScenarioError in A (line 11)"]
    assert scenario_rule_leaks("def build_simulator(sc):\n    raise ScenarioError(1, 'x')\n") == []


def test_scenario_leaves_value_rules_to_the_api():
    # The parser reads syntax and names; an address's length is the API's to
    # refuse, and parse_scenario and build_simulator each give its line.
    assert scenario_rule_leaks((SRC / "scenario.py").read_text(encoding="utf-8")) == []


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


EMPTY_CALLS = {"set", "dict", "list"}


def is_empty_container(node: ast.expr | None) -> bool:
    """`{}`, `[]`, or `set()`, `dict()` or `list()` called with no arguments."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in EMPTY_CALLS and not node.args and not node.keywords)


def module_level_empty_containers(source: str) -> list[str]:
    """Module-level names bound, plainly or with an annotation, to an empty
    container: a cache with no owner, shared by every run in the process."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and is_empty_container(node.value):
            targets = [t for target in node.targets
                       for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
        elif isinstance(node, ast.AnnAssign) and is_empty_container(node.value):
            targets = [node.target]
        else:
            continue
        found += [f"{t.id} (line {node.lineno})" for t in targets if isinstance(t, ast.Name)]
    return found


def test_checker_finds_module_level_empty_containers():
    assert module_level_empty_containers(
        "_A = {}\nB: dict[str, int] = {}\n_C = []\nD = set()\nE = F = dict()\n"
        "G: list = list()\nH = {1: 2}\nI = set([1])\nJ = frozenset()\nK = ()\n"
        "L = dict(a=1)\nM = tuple()\n"
        "def f():\n    local = {}\nclass N:\n    attr = []\n") == [
        "_A (line 1)", "B (line 2)", "_C (line 3)", "D (line 4)", "E (line 5)",
        "F (line 5)", "G (line 6)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_empty_containers(path):
    # Caches and pools belong to a Node, a Rib or a Simulator, as the RIB
    # entry pool does: a module-level one is unbounded and shared between
    # simulators.
    assert module_level_empty_containers(path.read_text(encoding="utf-8")) == []


def test_every_name_the_bench_tracer_patches_is_defined_on_its_owner():
    # The traced benchmark swaps each (owner, attr) through vars(owner), so a
    # renamed or moved name makes its run fail; this reads bench/ only.
    path = SRC.parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracer.PATCHES
            if attr not in vars(owner)] == []


def test_decode_verifies_each_frame_once_through_the_module_global(monkeypatch):
    # The traced benchmark counts verifications by swapping pdu.verify_checksum,
    # so decode must read that name when it runs, once per frame it checks.
    calls = []
    verify = pdu.verify_checksum
    monkeypatch.setattr(pdu, "verify_checksum", lambda header: calls.append(header)
                        or verify(header))
    frame = generate_checksum(pdu.encode(pdu.Pdu(pdu.EshBody((bytes(20),)), holding_time=9)))
    for raw in (frame, frame[:-1] + b"\x01", pdu.encode(pdu.Pdu(pdu.RaBody())) + b"tail"):
        calls.clear()
        pdu.decode(raw)
        assert calls == [raw[:raw[1]]]
