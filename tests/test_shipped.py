"""Every shipped scenario's `esis run --dump-ribs` output, to stdout and to a
`--log` file, is byte for byte the one recorded in bench/digests.json (which
this test only reads), whatever the interpreter's hash seed; no IS in a
shipped scenario ever holds an IS entry; every RIB value's `line` is the
one its other fields render, every virtual second; every frame a node
receives is one `Node.handle_frame` call; the log alone rebuilds the RIB
dump; and each log line is part of the step that made it."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from esis.cli import main
from esis.engine import Node, Role
from esis.scenario import build_simulator, load_scenario
from helpers import misordered_lines, misrendered_rib_values, replayed_ribs

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


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_every_delivery_is_one_handle_frame_call(path, monkeypatch):
    # `handle_frame` is the one receive path, the method the traced benchmark
    # wraps, so each RECV line is one call of it.
    calls = []
    handle_frame = Node.handle_frame
    monkeypatch.setattr(Node, "handle_frame",
                        lambda node, *args: calls.append(args) or handle_frame(node, *args))
    sc = load_scenario(str(path))
    log = build_simulator(sc).run_until(sc.until)
    assert len(calls) == sum(" RECV src=" in line for line in log) > 0


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_the_log_alone_rebuilds_the_rib_dump(path):
    # The log carries every RIB change in order, so no change goes unlogged.
    sc = load_scenario(str(path))
    sim = build_simulator(sc)
    log = sim.run_until(sc.until)
    dump = sim.dump_ribs(sc.until)
    assert replayed_ribs(log, [d.name for d in sc.nodes], sc.until) == dump
    assert len(dump) > len(sc.nodes)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_each_log_line_is_part_of_the_step_that_made_it(path):
    sc = load_scenario(str(path))
    log = build_simulator(sc).run_until(sc.until)
    assert misordered_lines(log) == []
    assert any(" TIMER " in line for line in log) and any(" RIB " in line for line in log)


HELLO = "t=0 node=A SEND dst=09002b000005 payload=82"
FIRE = [HELLO, "t=0 node=A TIMER at=10"]
RECEPTION = ["t=1 node=B RECV src=020000000001 payload=82",
             "t=1 node=B RIB ES 4901 via 020000000001 expires 21",
             "t=1 node=B SEND dst=020000000001 payload=82"]


def test_checker_finds_misordered_lines():
    clnp = "t=1 node=A SEND dst=ffffffffffff payload=81"
    assert misordered_lines(FIRE + RECEPTION + [clnp, clnp] + FIRE) == []
    # A reception's lines logged before its RECV.
    assert misordered_lines(FIRE + RECEPTION[1:] + RECEPTION[:1]) == [
        f"{RECEPTION[1]}: not part of a RECV of its node at its time"]
    # A reception's line after another node's line.
    assert misordered_lines(RECEPTION[:1] + [clnp, RECEPTION[1]]) == [
        f"{RECEPTION[1]}: not part of a RECV of its node at its time"]
    # A timer fire's TIMER logged before its SEND lines.
    assert misordered_lines(FIRE[::-1] + RECEPTION) == [
        f"{FIRE[1]}: not part of a RECV of its node at its time or a timer fire",
        "t=0 node=A: timer fire not closed by its TIMER"]
    # A fire cut by a send, and a fire left open at the end.
    assert misordered_lines([HELLO, clnp.replace("t=1", "t=0"), FIRE[1], HELLO]) == [
        "t=0 node=A: timer fire not closed by its TIMER",
        f"{FIRE[1]}: not part of a RECV of its node at its time or a timer fire",
        "t=0 node=A: timer fire not closed by its TIMER"]
