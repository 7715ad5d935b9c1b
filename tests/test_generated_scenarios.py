"""Simulator invariants over small generated scenarios.

A Hypothesis strategy writes valid scenario text. Half its draws hold 2..6
nodes of either role and either validation profile, with down/up and
`sendclnp` actions, some sends answered back and forth between two ES. The
other half hold one lenient IS and 2..5 lenient ES, each with an NSAP of its
own, and every action is a send answered at least twice: the IS redirects
both ES, and a send over the redirected path refreshes the redirect it
arrives at. Every draw takes ct 1..10, start 0..10, latency 0..3, dropped
and corrupted frames, `forward` entries when the latency is at least 1, and
a run of at most 60 virtual seconds. Each scenario is parsed and run as `esis run` would run it, and
its log and RIB dump are checked against properties that hold for every
run.

The stub CLNP frame has no lifetime, so two IS whose `forward` entries
point at each other pass a frame back and forth for ever; at latency 0
that never leaves one virtual time and the run does not end. Until the
stub has a hop limit, `forward` entries are drawn only at latency >= 1.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from esis.engine import Role
from esis.scenario import build_simulator, parse_scenario
from helpers import misrendered_rib_values

SNPAS = [f"02000000000{i}" for i in range(1, 7)]
# AFI-47 20-octet addresses pass both profiles, the others the lenient one only.
NSAPS = ["47" + "01" * 19, "47" + "02" * 19, "49" + "03" * 19, "49" + "04" * 19, "4905"]
# The shortest payload a node sends is a CLNP stub between two 2-octet
# NSAPs, 7 octets (an RA is 9), so these corrupt indices are always in range.
CORRUPT_INDICES = ["random", *map(str, range(7))]
SEND = re.compile(r"t=(\d+) node=(\S+) SEND dst=\w+ payload=(\w+)$")
RECV = re.compile(r"t=(\d+) node=\S+ RECV src=(\w+) payload=(\w+)$")


@st.composite
def scenarios(draw):
    # In a talking draw N0 is the IS and each ES takes the next NSAP of `own`.
    talk = draw(st.booleans())
    names = [f"N{i}" for i in range(draw(st.integers(2 + talk, 6)))]
    latency = draw(st.integers(0, 3))
    own = iter(draw(st.permutations(NSAPS)) if talk else ())
    lines = []
    nsaps_of = {}  # each ES declared with NSAPs, to them
    for i, (name, snpa) in enumerate(zip(names, SNPAS)):
        role = ("es" if i else "is") if talk else draw(st.sampled_from(["es", "is"]))
        profile = "lenient" if talk else draw(st.sampled_from(["lenient", "atn"]))
        keys = [f"role={role}", f"snpa={snpa}", f"ct={draw(st.integers(1, 10))}",
                f"start={draw(st.integers(0, 10))}", f"profile={profile}"]
        if role == "is":
            keys.append(f"net={draw(st.sampled_from(NSAPS))}")
        else:  # an ES with no NSAP asks for one with an RA
            nsaps = [next(own)] if talk else draw(st.lists(st.sampled_from(NSAPS), max_size=2))
            keys += [f"nsap={a}" for a in nsaps]
            if nsaps:
                nsaps_of[name] = nsaps
        lines.append(f"node {name} {' '.join(keys)}")
        if role == "is" and latency and draw(st.booleans()):
            lines.append(f"forward {name} prefix={draw(st.sampled_from(['47', '49']))} "
                         f"net={draw(st.sampled_from(NSAPS))} snpa={draw(st.sampled_from(SNPAS))}")
    until = draw(st.integers(0, 60))
    lines += [f"latency {latency}", f"seed {draw(st.integers(0, 9))}",
              f"until {until}"]
    lines += [f"drop {n}" for n in draw(st.sets(st.integers(1, 40), max_size=3))]
    lines += [f"corrupt {n} {draw(st.sampled_from(CORRUPT_INDICES))} "
              f"{draw(st.sampled_from(['random', '00', 'ff', '82']))}"
              for n in draw(st.sets(st.integers(1, 40), max_size=3))]
    for _ in range(draw(st.integers(0, 6))):
        at, name = draw(st.integers(0, until)), draw(st.sampled_from(names))
        action = "sendclnp" if talk else draw(st.sampled_from(["sendclnp", "down", "up"]))
        if action != "sendclnp":
            lines.append(f"at {at} {action} {name}")
            continue
        # A send between any two NSAPs, or two ES talking over NSAPs of
        # their own from when every node has started (start <= 10): each
        # answers a few seconds after the last frame came through an IS, so
        # once an IS has redirected both, a send over the redirected path
        # refreshes the redirect it arrives at.
        answers = draw(st.integers(2 * talk, 3)) if len(nsaps_of) > 1 else 0
        if answers:
            name, peer = draw(st.permutations(sorted(nsaps_of)))[:2]
            src, dst = (draw(st.sampled_from(nsaps_of[n])) for n in (name, peer))
            at = max(at, min(11, until))
        else:
            src, dst = draw(st.sampled_from(NSAPS)), draw(st.sampled_from(NSAPS))
        lines.append(f"at {at} sendclnp {name} {src} {dst}")
        for _ in range(answers):
            at += 2 * latency + draw(st.integers(1, 3))
            name, peer, src, dst = peer, name, dst, src
            lines.append(f"at {at} sendclnp {name} {src} {dst}")
    return "\n".join(lines) + "\n"


def run_alone(text):
    sc = parse_scenario(text)
    sim = build_simulator(sc)
    return sim.run_until(sc.until), sim.dump_ribs(sc.until)


def check_invariants(text, log, dump):
    sc = parse_scenario(text)
    times = [int(line.split(" ", 1)[0][2:]) for line in log]
    assert times == sorted(times), "log time went backwards"
    snpa_of = {decl.name: decl.config.snpa.hex() for decl in sc.nodes}
    sent = set()
    for line in log:
        if m := SEND.match(line):
            sent.add((int(m[1]), snpa_of[m[2]], m[3]))
        elif m := RECV.match(line):
            assert (int(m[1]) - sc.latency, m[2], m[3]) in sent, line
    for line in dump:
        if not line.startswith("-- rib "):
            assert int(line.rsplit(" ", 1)[1]) > sc.until, line


# Two ES that talk through an IS, each answering the other: the IS redirects
# both, and the third send, over the redirected path, refreshes the redirect
# it arrives at. About one generated scenario in ten reaches that.
TALK = """\
node N0 role=is snpa=020000000001 ct=5 start=0 profile=lenient net=4905
node N1 role=es snpa=020000000002 ct=5 start=1 profile=lenient nsap=4701010101010101010101010101010101010101
node N2 role=es snpa=020000000003 ct=5 start=2 profile=lenient nsap=4702020202020202020202020202020202020202
latency 1
until 30
at 20 sendclnp N1 4701010101010101010101010101010101010101 4702020202020202020202020202020202020202
at 22 sendclnp N2 4702020202020202020202020202020202020202 4701010101010101010101010101010101010101
at 24 sendclnp N1 4701010101010101010101010101010101010101 4702020202020202020202020202020202020202
"""


@settings(max_examples=60, deadline=None)
@given(first=scenarios(), second=scenarios())
@example(first=TALK, second=TALK)
def test_generated_scenarios_keep_the_simulator_invariants(first, second):
    log, dump = alone = run_alone(first)
    check_invariants(first, log, dump)
    assert run_alone(first) == alone
    # Two simulators stepped side by side give what each gives alone, so no
    # state leaks between them.
    wanted = [alone, run_alone(second)]
    parsed = [parse_scenario(text) for text in (first, second)]
    sims = [build_simulator(sc) for sc in parsed]
    # An IS takes no ISH into its RIB, and every RIB value's `line` is the
    # one its other fields render, at any virtual second.
    is_ribs = [sim.node(d.name).rib for sc, sim in zip(parsed, sims) for d in sc.nodes
               if d.config.role is Role.INTERMEDIATE_SYSTEM]
    for t in range(max(sc.until for sc in parsed) + 1):
        for sc, sim in zip(parsed, sims):
            if t <= sc.until:
                sim.run_until(t)
                assert misrendered_rib_values(sim) == [], t
        assert not any(rib.is_neighbors for rib in is_ribs), t
    assert [(sim.log, sim.dump_ribs(sc.until)) for sc, sim in zip(parsed, sims)] == wanted
