"""Every shipped scenario's `esis run --dump-ribs` output, to stdout and to a
`--log` file, is byte for byte the one recorded in bench/digests.json (which
this test only reads), whatever the interpreter's hash seed; no IS in a
shipped scenario ever holds an IS entry; and every RIB value's `line` is
the one its other fields render, every virtual second."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from esis.cli import main
from esis.engine import Role
from esis.scenario import build_simulator, load_scenario
from helpers import misrendered_rib_values

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.scn"))
SHIPPED = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))["shipped"]


def test_every_shipped_scenario_has_a_digest():
    assert [p.name for p in SCENARIOS] == sorted(SHIPPED)


# Each scenario runs with --log under its file name, and to stdout as <name>-stdout.
OUTPUTS = [pytest.param(path, output, id=path.name + ("" if output == "log" else "-stdout"))
           for path in SCENARIOS for output in ("log", "stdout")]


@pytest.mark.parametrize("path, output", OUTPUTS)
def test_shipped_scenario_output_matches_recorded_digest(path, output, tmp_path, capsys):
    log = tmp_path / "out.log"
    to_log = ["--log", str(log)] if output == "log" else []
    assert main(["run", str(path), "--dump-ribs", *to_log]) == 0
    text = log.read_text(encoding="utf-8") if output == "log" else capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == SHIPPED[path.name]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_shipped_scenario_output_does_not_depend_on_the_hash_seed(path):
    # Set and dict order of str and bytes keys follows PYTHONHASHSEED; no
    # output line may.
    outputs = []
    for seed in ("1", "987"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "esis.cli", "run", str(path), "--dump-ribs"],
                              capture_output=True, env=env, timeout=60, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0]).hexdigest() == SHIPPED[path.name]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_no_is_ever_holds_an_is_entry(path):
    # An IS takes no ISH into its RIB, so `Rib.lookup`, which the IS alone
    # calls, never meets an address held under both kinds.
    sc = load_scenario(str(path))
    sim = build_simulator(sc)
    ribs = [sim.node(d.name).rib for d in sc.nodes if d.config.role is Role.INTERMEDIATE_SYSTEM]
    assert ribs
    for t in range(sc.until + 1):
        sim.run_until(t)
        assert not any(rib.is_neighbors for rib in ribs), t


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_every_rib_value_line_renders_its_fields(path):
    # `line` is a field a caller could pass or `_replace` could keep, so it
    # must still follow the others in every pooled entry and every table, at
    # every virtual second; redirect.scn refreshes a redirect.
    sc = load_scenario(str(path))
    sim = build_simulator(sc)
    for t in range(sc.until + 1):
        sim.run_until(t)
        assert misrendered_rib_values(sim) == [], t
