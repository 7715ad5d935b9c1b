"""The package's exports: `import esis` runs none of its modules, each name
loads its home module when first read, and the exported names and the
objects they stand for stay as they were when the package imported them
all eagerly."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import esis

ROOT = Path(__file__).resolve().parent.parent

# Home module -> the names the package exports from it, besides the module.
HOMES = {
    "checksum": "ChecksumVerdict HeaderTooShort generate_checksum verify_checksum",
    "pdu": "ATN AaBody DiscardReason EshBody InvariantViolation IshBody LENIENT Option "
           "OptionCode Pdu PduType RaBody RdBody ValidationProfile decode encode validate_nsap",
    "rib": "EntryKind HopKind InsertResult NextHop RedirectEntry Rib RibEntry",
    "engine": "ALL_ES ALL_IS BROADCAST Frame MinimalClnpPdu Node NodeConfig Role",
    "sim": "FaultPlan Simulator",
    "scenario": "Scenario ScenarioError build_simulator load_scenario parse_scenario",
}
EXPORTS = {name: home for home, names in HOMES.items() for name in (home, *names.split())}


def test_all_is_the_49_exported_names():
    assert len(EXPORTS) == 49
    assert sorted(esis.__all__) == sorted(EXPORTS)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_each_name_is_the_object_its_home_module_defines(name):
    home = importlib.import_module(f"esis.{EXPORTS[name]}")
    expected = home if name == EXPORTS[name] else vars(home)[name]
    assert getattr(esis, name) is expected
    assert vars(esis)[name] is expected  # bound once read, later reads are lookups


def test_star_import_and_dir_give_every_name():
    namespace: dict = {}
    exec("from esis import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(esis, name) for name in EXPORTS}
    assert set(dir(esis)) >= set(EXPORTS)


def test_other_names_are_attribute_errors_and_submodules_still_import():
    with pytest.raises(AttributeError, match="'nope'"):
        esis.nope
    from esis import cli
    assert cli.main is importlib.import_module("esis.cli").main


LOADS = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("esis."))
steps = []
import esis
steps.append(loaded())
from esis import checksum, pdu
steps.append(loaded())
esis.Simulator
steps.append(loaded())
esis.build_simulator
steps.append(loaded())
from esis import cli
steps.append(loaded())
print(json.dumps(steps))
"""


def test_import_loads_only_what_is_read():
    # In a fresh interpreter: the codec alone loads checksum and pdu, and
    # each stack name loads its home module and what that module imports.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", LOADS], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    codec = ["esis.checksum", "esis.pdu"]
    sim = sorted([*codec, "esis.engine", "esis.rib", "esis.sim"])
    assert json.loads(proc.stdout) == [
        [], codec, sim, sorted([*sim, "esis.scenario"]),
        sorted([*sim, "esis.cli", "esis.scenario"])]
