"""Scenario loading: `at` values shared per parse, line handling and order,
duplicate corrupt rules, and `build_simulator` against the public
`Simulator` API."""

import random
from pathlib import Path

import pytest

from esis.cli import main
from esis.scenario import ScenarioError, build_simulator, parse_scenario
from esis.sim import Simulator

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))
NODES = "".join(f"node ES{i} role=es snpa=02000000000{i} nsap=49{i:02x}\n" for i in (1, 2, 3))


def test_equal_time_tokens_share_one_int_per_parse():
    # Past 256, so that int() makes a new object for each token it reads.
    text = NODES + "".join(f"at {1000 + i % 2} down ES{i % 3 + 1}\n" for i in range(6))
    sc = parse_scenario(text)
    assert [a.at for a in sc.actions] == [1000, 1001] * 3
    assert len({id(a.at) for a in sc.actions}) == 2
    # The sharing is per parse: a second parse makes values of its own.
    again = parse_scenario(text).actions[0]
    assert again.at == sc.actions[0].at and again.at is not sc.actions[0].at


def test_a_bad_time_token_names_its_own_line():
    # A bad token never enters the table, so each line that holds it fails.
    good = NODES + "at 1000 down ES1\n"
    with pytest.raises(ScenarioError, match="line 5: bad integer for time: '1e3'"):
        parse_scenario(good + "at 1e3 down ES1\nat 1e3 up ES1\n")
    with pytest.raises(ScenarioError, match="line 6: time must be ≥ 0, got -1"):
        parse_scenario(good + "at 1000 up ES1\nat -1 up ES1\n")


def test_comment_and_tabs_in_an_at_line_parse_like_the_plain_line():
    plain = parse_scenario(NODES + "at 7 sendclnp ES1 4901 4902\n").actions
    spaced = parse_scenario(NODES + "\tat\t7  sendclnp\tES1 4901\t4902 # to ES2\n").actions
    assert spaced == plain
    assert parse_scenario(NODES + "  # at 7 down ES1\n\t\n").actions == []


def test_at_actions_keep_file_order_within_one_time():
    text = NODES + ("until 5\n"
                    "at 5 sendclnp ES2 4902 4901\nat 5 sendclnp ES3 4903 4901\n"
                    "at 4 sendclnp ES1 4901 4902\nat 5 sendclnp ES1 4901 4903\n"
                    "at 5 down ES3\nat 5 sendclnp ES3 4903 4902\n")
    sc = parse_scenario(text)
    assert [(a.at, a.node, a.kind) for a in sc.actions] == [
        (5, "ES2", "sendclnp"), (5, "ES3", "sendclnp"), (4, "ES1", "sendclnp"),
        (5, "ES1", "sendclnp"), (5, "ES3", "down"), (5, "ES3", "sendclnp")]
    sends = [line.split(" SEND ")[0] for line in build_simulator(sc).run_until(5)
             if " SEND " in line and line.startswith("t=5 ")]
    # Each ES's first hello goes out at t=0, so at t=5 only the actions send,
    # and ES3 sends nothing once it is down.
    assert sends == ["t=5 node=ES2", "t=5 node=ES3", "t=5 node=ES1"]


def test_a_parse_fault_is_reported_before_an_api_refusal_on_an_earlier_line():
    # Line 4's 3-octet SNPA is refused by `Node` when the scenario is built,
    # so the parser's refusal of line 5 comes first.
    text = NODES + "node B role=es snpa=020000\nlatency -1\n"
    with pytest.raises(ScenarioError, match="^line 5: latency must be ≥ 0, got -1$"):
        parse_scenario(text)
    with pytest.raises(ScenarioError, match="^line 4: snpa must be 6 octets, got '020000'$"):
        build_simulator(parse_scenario(NODES + "node B role=es snpa=020000\nlatency 0\n"))


def test_a_second_corrupt_rule_for_one_ordinal_is_an_error(capsys, tmp_path):
    text = NODES + "corrupt 3 1 ff\ncorrupt 4 0 00\ncorrupt 3 2 00\n"
    with pytest.raises(ScenarioError, match="line 6: duplicate corrupt ordinal 3"):
        parse_scenario(text)
    scn = tmp_path / "twice.scn"
    scn.write_text(text)
    code = main(["run", str(scn)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: line 6: duplicate corrupt ordinal 3\n"


def generated_text(sends=60):
    """One IS and four ES: `sendclnp` lines, and a few down and up lines,
    at times in no order."""
    rng = random.Random(23)
    nsaps = [f"49{i:02x}" + "00" * 18 for i in range(1, 5)]
    lines = ["node IS1 role=is snpa=0200000000ff net=49ff" + "00" * 18,
             "forward IS1 prefix=48 net=48ff snpa=0200000000fe"]
    lines += [f"node ES{i} role=es snpa=02000000000{i} nsap={nsap} ct=4"
              for i, nsap in enumerate(nsaps, start=1)]
    lines += ["latency 1", "seed 5", "until 40", "drop 9", "corrupt 30 random random"]
    for _ in range(sends):
        i, j = rng.sample(range(4), 2)
        dest = nsaps[j] if rng.random() < 0.9 else "48aa"  # some via the forward entry
        lines.append(f"at {rng.randrange(41)} sendclnp ES{i + 1} {nsaps[i]} {dest}")
    for i in (1, 3):
        lines += [f"at {rng.randrange(10, 20)} down ES{i}", f"at {rng.randrange(20, 30)} up ES{i}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text", [*(path.read_text() for path in SCENARIOS), generated_text()],
                         ids=[*(path.name for path in SCENARIOS), "generated"])
def test_build_simulator_runs_as_the_public_api_does(text):
    sc = parse_scenario(text)
    built = build_simulator(sc)
    ref_sc = parse_scenario(text)
    ref = Simulator(latency=ref_sc.latency, seed=ref_sc.seed, faults=ref_sc.faults)
    for decl in ref_sc.nodes:
        ref.add_node(decl.name, decl.config, start=decl.start)
    for a in ref_sc.actions:
        if a.kind == "sendclnp":
            ref.inject_clnp(a.at, a.node, a.source_nsap, a.dest_nsap)
        elif a.kind == "down":
            ref.inject_down(a.at, a.node)
        else:
            ref.inject_up(a.at, a.node)
    assert built.run_until(sc.until) == ref.run_until(sc.until)
    assert built.dump_ribs() == ref.dump_ribs()


def test_build_simulator_rejects_an_unknown_action_kind():
    sc = parse_scenario(NODES + "at 1 up ES1\n")
    sc.actions[0].kind = "reboot"
    with pytest.raises(ValueError, match="unknown action kind 'reboot'"):
        build_simulator(sc)
