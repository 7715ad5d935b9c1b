import re
import typing
from pathlib import Path

import pytest

from esis import engine, pdu, sim as sim_mod
from esis.checksum import generate_checksum
from esis.engine import ALL_ES, ALL_IS, BROADCAST, Frame, NodeConfig, Role
from esis.pdu import EshBody, Pdu, ValidationProfile, encode
from esis.scenario import build_simulator, load_scenario, parse_scenario
from esis.sim import FaultPlan, Simulator, UnknownNode

NSAP1 = b"\x49\x01" + bytes(18)
NSAP2 = b"\x49\x02" + bytes(18)
NET = b"\x49\xff" + bytes(18)
S1 = bytes.fromhex("020000000001")
S2 = bytes.fromhex("020000000002")
S3 = bytes.fromhex("0200000000ff")


def es_config(snpa, nsap, ct=10):
    return NodeConfig(role=Role.END_SYSTEM, snpa=snpa, local_nsaps=(nsap,),
                      configuration_timer=ct)


def is_config(snpa, ct=10):
    return NodeConfig(role=Role.INTERMEDIATE_SYSTEM, snpa=snpa, local_net=NET,
                      configuration_timer=ct)


def three_node_sim(start=0, **kw):
    # start=1000 keeps the nodes' own hellos out of frame-level tests
    sim = Simulator(**kw)
    sim.add_node("ES1", es_config(S1, NSAP1), start=start)
    sim.add_node("ES2", es_config(S2, NSAP2), start=start)
    sim.add_node("IS1", is_config(S3), start=start)
    return sim


def recv_lines(log):
    return [l for l in log if " RECV " in l]


def test_empty_schedule_empty_log():
    sim = Simulator()
    assert sim.run_until(100) == []


def test_unicast_delivers_once():
    sim = three_node_sim(start=1000, )
    sim.transmit(Frame(S2, S1, b"\x55"), "ES1")
    log = sim.run_until(2)
    assert len(recv_lines(log)) == 1
    assert "node=ES2 RECV" in recv_lines(log)[0]


def test_group_delivery_excludes_sender():
    sim = three_node_sim(start=1000, )
    sim.transmit(Frame(ALL_ES, S1, b"\x55"), "ES1")
    log = sim.run_until(2)
    got = recv_lines(log)
    assert len(got) == 1 and "node=ES2" in got[0]

    sim = three_node_sim(start=1000)
    sim.transmit(Frame(BROADCAST, S1, b"\x55"), "ES1")
    assert len(recv_lines(sim.run_until(2))) == 2


def test_node_added_after_transmit_does_not_receive_that_frame():
    # A frame goes to the receivers its destination had when it was sent.
    sim = three_node_sim(start=1000)
    sim.transmit(Frame(ALL_ES, S1, b"\x55"), "ES1")
    sim.add_node("ES3", es_config(bytes.fromhex("020000000003"), NSAP2), start=1000)
    sim.transmit(Frame(ALL_ES, S1, b"\x66"), "ES1")
    got = [(l.split()[1], l.split("payload=")[1]) for l in recv_lines(sim.run_until(2))]
    assert got == [("node=ES2", "55"), ("node=ES2", "66"), ("node=ES3", "66")]


@pytest.mark.parametrize("latency", [1, -1])
def test_frame_only_its_sender_hears_logs_only_its_send(latency):
    # Such a frame queues a delivery that skips its sender. A latency that
    # would queue it in the past is refused before any frame is sent.
    if latency < 0:
        with pytest.raises(ValueError, match="latency must be ≥ 0, got -1"):
            Simulator(latency=latency)
        return
    sim = Simulator(latency=latency)
    sim.add_node("ES1", es_config(S1, NSAP1), start=1000)
    sim.add_node("IS1", is_config(S3), start=1000)
    for destination in (ALL_ES, S1):
        sim.transmit(Frame(destination, S1, b"\x55"), "ES1")
    assert [l.split()[2] for l in sim.run_until(5)] == ["SEND", "SEND"]


def test_unicast_to_unknown_snpa_reaches_nobody():
    sim = three_node_sim(start=1000)
    sim.transmit(Frame(bytes.fromhex("020000000099"), S1, b"\x55"), "ES1")
    log = sim.run_until(2)
    assert any(" SEND " in l for l in log)
    assert recv_lines(log) == []


@pytest.mark.parametrize("group", [ALL_ES, ALL_IS, BROADCAST],
                         ids=["all-es", "all-is", "broadcast"])
def test_snpa_equal_to_group_address_adds_no_copies(group):
    # Whatever its SNPA, an ES gets each all-ES and broadcast frame once and
    # no all-IS frame; the payload octet tells the three frames apart.
    sim = three_node_sim(start=1000)
    sim.add_node("ESX", es_config(group, NSAP2), start=1000)
    for i, destination in enumerate((ALL_ES, ALL_IS, BROADCAST)):
        sim.transmit(Frame(destination, S1, bytes([i])), "ES1")
    got = recv_lines(sim.run_until(2))
    assert [l.split("payload=")[1] for l in got if "node=ESX" in l] == ["00", "02"]
    assert [l.split("payload=")[1] for l in got if "node=ES2" in l] == ["00", "02"]


def test_drop_rule_suppresses_delivery():
    sim = three_node_sim(start=1000, faults=FaultPlan(drops={1}))
    sim.transmit(Frame(S2, S1, b"\x55"), "ES1")
    log = sim.run_until(2)
    assert any(" SEND " in l for l in log)
    assert recv_lines(log) == []


@pytest.mark.parametrize("fields", ["destination", "source", "payload", "all"])
def test_transmit_reads_bytes_like_fields_as_bytes(fields, monkeypatch):
    # Delivery keys on the destination and decode on the payload, so a
    # bytearray field once raised "unhashable type".
    esh = Frame(ALL_IS, S1, generate_checksum(encode(Pdu(EshBody((NSAP1,)), holding_time=20))))
    as_bytearray = esh._replace(**{name: bytearray(getattr(esh, name)) for name in esh._fields
                                   if fields in (name, "all")})
    calls = []
    transmit = Simulator.transmit
    monkeypatch.setattr(Simulator, "transmit",
                        lambda sim, *args: calls.append(args) or transmit(sim, *args))
    runs = []
    for frame in (esh, as_bytearray):
        sim = three_node_sim(start=1000, faults=FaultPlan(corruptions={2: (12, None)}))
        sim.transmit(frame, "ES1")
        sim.transmit(frame, "ES1")  # the second is corrupted
        runs.append((sim.run_until(1), sim.dump_ribs()))
        assert type(sim.node("IS1").rib.lookup(NSAP1, 1).snpa) is bytes
    assert runs[1] == runs[0]
    events = [line.split()[2] for line in runs[0][0]]
    assert events == ["SEND", "SEND", "RECV", "RIB", "SEND", "RECV", "DISCARD"]
    assert len(calls) == 2 * events.count("SEND")  # one transmit call per frame


def test_transmit_stamps_a_frame_with_the_simulators_time():
    # A frame takes the simulator's time, so the log's times never run
    # backwards, whenever between events a caller transmits.
    sim = Simulator(latency=1)
    sim.add_node("A", es_config(S1, NSAP1, ct=5))
    sim.add_node("B", es_config(S2, NSAP2, ct=5))
    sim.run_until(5)
    sim.transmit(Frame(S2, S1, b"\x55"), "A")
    log = sim.run_until(12)
    assert [l.split()[:3] for l in log if l.endswith(" payload=55")] == [
        ["t=5", "node=A", "SEND"], ["t=6", "node=B", "RECV"]]
    times = [int(l.split()[0][2:]) for l in log]
    assert times == sorted(times)


def test_corruption_mutates_payload():
    sim = three_node_sim(start=1000, faults=FaultPlan(corruptions={1: (0, 0x99)}))
    sim.transmit(Frame(S2, S1, b"\x55\x66"), "ES1")
    log = sim.run_until(2)
    assert "payload=9966" in recv_lines(log)[0]


def test_corruption_index_past_payload_raises():
    sim = three_node_sim(start=1000, faults=FaultPlan(corruptions={1: (2, 0x99)}))
    with pytest.raises(ValueError, match="frame 1: octet index 2 is outside its 2-octet"):
        sim.transmit(Frame(S2, S1, b"\x55\x66"), "ES1")


@pytest.mark.parametrize("index", [0, None], ids=["fixed", "random"])
def test_corruption_of_an_empty_payload_raises_naming_the_frame(index):
    # A random index once reached `randrange(0)` and its "empty range" error.
    sim = three_node_sim(start=1000, faults=FaultPlan(corruptions={1: (index, None)}))
    with pytest.raises(ValueError, match=r"frame 1: octet index \S+ is outside its 0-octet"):
        sim.transmit(Frame(ALL_IS, S1, b""), "ES1")


def test_transmit_rejects_a_source_that_is_not_an_snpa():
    # A 1-octet source once reached the IS's RIB as `ES 4902… via 01`, and a
    # CLNP frame to that ES then made the IS build an RD that encode refused.
    esh = generate_checksum(encode(Pdu(EshBody((NSAP2,)), holding_time=20)))
    sim = three_node_sim()
    with pytest.raises(ValueError, match="frame source 01 is not an SNPA of 6 octets"):
        sim.transmit(Frame(ALL_IS, b"\x01", esh), "ES1")
    sim.inject_clnp(3, "ES1", NSAP1, NSAP2)
    log = sim.run_until(5)
    assert not any(" via 01 " in line or " dst=01 " in line for line in log)
    # The refused frame took no ordinal: the corruption rule hits the next frame.
    sim = three_node_sim(start=1000, faults=FaultPlan(corruptions={1: (0, 0x99)}))
    with pytest.raises(ValueError):
        sim.transmit(Frame(S2, S1[:5], b"\x55"), "ES1")
    sim.transmit(Frame(S2, S1, b"\x55"), "ES1")
    assert "payload=99" in recv_lines(sim.run_until(2))[0]


def test_random_corruption_changes_an_octet():
    sim = three_node_sim(start=1000, seed=3, faults=FaultPlan(corruptions={1: (None, None)}))
    sim.transmit(Frame(S2, S1, b"\x55\x66"), "ES1")
    payload = recv_lines(sim.run_until(2))[0].split("payload=")[1]
    assert payload != "5566"


def test_periodic_hellos():
    sim = Simulator()
    sim.add_node("ES1", es_config(S1, NSAP1, ct=10))
    sim.add_node("IS1", is_config(S3, ct=10))
    log = sim.run_until(25)
    es_sends = [l for l in log if "node=ES1 SEND" in l]
    is_sends = [l for l in log if "node=IS1 SEND" in l]
    assert len(es_sends) >= 2 and len(is_sends) >= 2


def test_time_never_decreases():
    sim = three_node_sim()
    log = sim.run_until(40)
    times = [int(l.split()[0][2:]) for l in log]
    assert times == sorted(times)


def test_determinism():
    def run():
        sim = three_node_sim(seed=9, faults=FaultPlan(corruptions={2: (None, None)}))
        sim.inject_clnp(5, "ES1", NSAP1, NSAP2)
        sim.inject_down(12, "ES2")
        sim.inject_up(18, "ES2")
        return sim.run_until(30), sim.dump_ribs()
    assert run() == run()


def test_down_node_receives_and_sends_nothing():
    sim = three_node_sim()
    sim.inject_down(1, "ES2")
    log = sim.run_until(15)
    late = [l for l in log if int(l.split()[0][2:]) >= 1]
    assert not any("node=ES2" in l for l in late)


def test_sendclnp_queued_for_a_down_node_sends_nothing():
    for down, sends in ((False, 1), (True, 0)):
        sim = three_node_sim(start=1000)
        if down:
            sim.inject_down(1, "ES1")
        sim.inject_clnp(2, "ES1", NSAP1, NSAP2)
        assert sum(l.startswith("t=2 node=ES1 SEND") for l in sim.run_until(3)) == sends


def test_up_resumes_hellos():
    sim = three_node_sim()
    sim.inject_down(0, "ES2")
    sim.inject_up(14, "ES2")
    log = sim.run_until(20)
    assert any("node=ES2 SEND" in l and l.startswith("t=14 ") for l in log)


def test_inject_unknown_node():
    sim = three_node_sim()
    with pytest.raises(UnknownNode):
        sim.inject_down(0, "nope")
    with pytest.raises(UnknownNode):
        sim.inject_clnp(0, "nope", NSAP1, NSAP2)


def test_run_backwards_rejected():
    sim = three_node_sim()
    sim.run_until(10)
    with pytest.raises(ValueError):
        sim.run_until(5)


def test_duplicate_node_name_rejected():
    sim = Simulator()
    sim.add_node("A", es_config(S1, NSAP1))
    with pytest.raises(ValueError):
        sim.add_node("A", es_config(S2, NSAP2))


def test_add_node_refuses_a_taken_snpa():
    # A first node may take a group address as its SNPA; a second node with
    # that SNPA, or any taken one, is refused and changes nothing.
    sim = Simulator()
    sim.add_node("A", es_config(ALL_ES, NSAP1))
    sim.add_node("B", es_config(S1, NSAP2))
    groups = {dest: list(receivers) for dest, receivers in sim._groups.items()}
    for snpa in (ALL_ES, S1):
        with pytest.raises(ValueError, match=f"^duplicate snpa {snpa.hex()}$"):
            sim.add_node("C", es_config(snpa, NSAP2))
        assert list(sim.nodes) == ["A", "B"]
        assert {dest: list(receivers) for dest, receivers in sim._groups.items()} == groups
    sim.add_node("C", es_config(S2, NSAP2))  # a free SNPA is still accepted


@pytest.mark.parametrize("length", [0, 21, 300])
@pytest.mark.parametrize("side", ["source", "destination"])
def test_inject_clnp_refuses_an_address_a_receiver_could_not_read(side, length):
    # Refused when injected, before anything is scheduled: once a 300-octet
    # address raised OverflowError at its time, and a 21-octet one was sent
    # as a stub that every receiver ignored.
    sim = three_node_sim(start=1000)
    addresses = {"source": NSAP1, "destination": NSAP2} | {side: b"\x49" * length}
    with pytest.raises(ValueError, match="^CLNP addresses must be NSAPs of length 1..20, "
                                         f"got source .*'{'49' * length}'"):
        sim.inject_clnp(3, "ES1", addresses["source"], addresses["destination"])
    assert sim.run_until(10) == []


def test_corrupted_hello_is_discarded_not_recorded():
    # Corrupt an address octet of ES1's first hello toward the IS group.
    # IS1 must discard it on checksum grounds and learn nothing from it;
    # it only learns ES1 one tick later, from the ISH-triggered reply.
    sim = three_node_sim(faults=FaultPlan(corruptions={1: (12, None)}))
    log = sim.run_until(2)
    es1_nsap = NSAP1.hex()
    by_time = lambda t: [l for l in log if l.startswith(f"t={t} ")]
    assert any("node=IS1 DISCARD ChecksumError" in l for l in by_time(1))
    assert not any("node=IS1 RIB" in l and es1_nsap in l for l in by_time(1))
    assert any("node=IS1 RIB" in l and es1_nsap in l for l in by_time(2))
    # The uncorrupted hellos still land normally.
    assert any("node=IS1 RIB" in l and NSAP2.hex() in l for l in by_time(1))


def test_scheduling_before_now_rejected():
    sim = three_node_sim()
    sim.run_until(10)
    with pytest.raises(ValueError, match="before now"):
        sim.inject_down(9, "ES1")
    with pytest.raises(ValueError, match="before now"):
        sim.add_node("ES3", es_config(bytes.fromhex("020000000003"), NSAP2), start=3)
    assert "ES3" not in sim.nodes
    sim.inject_down(10, "ES1")  # now itself is fine


def test_negative_latency_cannot_run_time_backwards():
    # Refused when the simulator is built, before any SEND line is logged.
    with pytest.raises(ValueError, match="latency must be ≥ 0, got -3"):
        three_node_sim(latency=-3)


def test_add_node_refuses_a_node_that_cannot_send_its_hello():
    # A 5-octet SNPA once stopped the run at the node's first hello.
    sim = Simulator()
    with pytest.raises(ValueError, match="snpa must be 6 octets, got '0200000000'"):
        sim.add_node("ES1", es_config(S1[:5], NSAP1))
    assert sim.nodes == {} and sim.run_until(100) == []


def test_zero_latency_reply_runs_after_deliveries_queued_for_its_time():
    # IS1 answers ES1's first ESH with an ISH at the same t. That reply must
    # reach ES1 after ES2's frame, which was already queued for t=0; ES1's
    # ESH in answer to the ISH comes last.
    sim = three_node_sim(start=1000, latency=0)
    esh = generate_checksum(encode(Pdu(EshBody((NSAP1,)), holding_time=20)))
    sim.transmit(Frame(ALL_IS, S1, esh), "ES1")
    sim.transmit(Frame(S1, S2, b"\x55"), "ES2")
    got = [(l.split()[1], l.split("src=")[1].split()[0]) for l in recv_lines(sim.run_until(0))]
    assert got == [("node=IS1", S1.hex()), ("node=ES1", S2.hex()),
                   ("node=ES1", S3.hex()), ("node=IS1", S1.hex())]


def test_batch_reaches_receivers_in_add_order():
    sim = Simulator()
    for i, name in enumerate(("Z", "A", "M", "B")):
        sim.add_node(name, es_config(bytes([2, 0, 0, 0, 0, i]), NSAP1), start=1000)
    sim.transmit(Frame(BROADCAST, bytes([2, 0, 0, 0, 0, 1]), b"\x55"), "A")
    assert [l.split()[1] for l in recv_lines(sim.run_until(1))] == [
        "node=Z", "node=M", "node=B"]


def test_down_at_delivery_time_skips_only_batches_queued_after_it():
    # The down for t=1 is queued before the frame, so ES2 misses it.
    sim = three_node_sim(start=1000)
    sim.inject_down(1, "ES2")
    sim.transmit(Frame(BROADCAST, S1, b"\x55"), "ES1")
    assert [l.split()[1] for l in recv_lines(sim.run_until(2))] == ["node=IS1"]
    # Queued the other way round, the batch reaches ES2 before it goes down.
    sim = three_node_sim(start=1000)
    sim.transmit(Frame(BROADCAST, S1, b"\x55"), "ES1")
    sim.inject_down(1, "ES2")
    assert [l.split()[1] for l in recv_lines(sim.run_until(2))] == [
        "node=ES2", "node=IS1"]


# An ESH with a 2-octet NSAP: lenient receivers learn it, atn ones discard it.
SHORT_ESH = generate_checksum(encode(Pdu(EshBody((b"\x49\x01",)), holding_time=20)))


def all_es_burst_sim(profiles):
    """A short-NSAP ES sends one ESH to all-ES; one ES receiver per profile,
    in that add order, each with a profile object of its own."""
    sim = Simulator()
    sim.add_node("SRC", es_config(S1, b"\x49\x01"), start=1000)
    for i, atn in enumerate(profiles):
        config = es_config(bytes([2, 0, 0, 0, 1, i]), NSAP2)
        config.validation_profile = ValidationProfile(atn=atn)
        sim.add_node(f"R{i}", config, start=1000)
    sim.transmit(Frame(ALL_ES, S1, SHORT_ESH), "SRC")
    return sim


def test_one_delivery_decodes_once_per_run_of_equal_profiles():
    # Lenient, atn, lenient: the atn receiver must not reuse the lenient
    # decode, and the second lenient one must not reuse the atn decode.
    log = all_es_burst_sim([False, True, False]).run_until(1)
    acts = [l.split(maxsplit=2)[1:] for l in log if " RECV " not in l and " SEND " not in l]
    assert acts == [["node=R0", "RIB ES 4901 via 020000000001 expires 21"],
                    ["node=R1", "DISCARD ProtocolError(BadAddressLength)"],
                    ["node=R2", "RIB ES 4901 via 020000000001 expires 21"]]


def test_one_frame_to_equal_profiles_is_decoded_once(monkeypatch):
    calls = []
    decode = pdu.decode
    monkeypatch.setattr(pdu, "decode", lambda *args: calls.append(args) or decode(*args))
    sim = all_es_burst_sim([False, False, False])
    log = sim.run_until(1)
    assert len(calls) == 1
    assert sum(" RIB ES 4901 " in l for l in log) == 3


@pytest.mark.parametrize("profiles", [[True, False], [False, True]],
                         ids=["atn-first", "lenient-first"])
def test_repeated_payload_is_decoded_once_per_profile_per_simulator(monkeypatch, profiles):
    # The ESH goes out again at t=4 as an equal but distinct bytes object.
    # Each receiver must act on the decode made under its own profile, and
    # the second frame must reuse the first frame's decodes.
    calls = []
    decode = pdu.decode
    monkeypatch.setattr(pdu, "decode", lambda raw, profile: (
        calls.append((bytes(raw), profile.atn)) or decode(raw, profile)))

    def run():
        sim = all_es_burst_sim(profiles)
        sim.run_until(4)
        sim.transmit(Frame(ALL_ES, S1, bytes(bytearray(SHORT_ESH))), "SRC")
        return [l.split(maxsplit=2) for l in sim.run_until(5)
                if " RECV " not in l and " SEND " not in l]

    want = [[f"t={t}", f"node=R{i}",
             "DISCARD ProtocolError(BadAddressLength)" if atn
             else f"RIB ES 4901 via 020000000001 expires {t + 20}"]
            for t in (1, 5) for i, atn in enumerate(profiles)]
    assert run() == want
    assert calls == [(SHORT_ESH, atn) for atn in profiles]
    # The memo belongs to the simulator: a second one decodes afresh.
    calls.clear()
    assert run() == want
    assert calls == [(SHORT_ESH, atn) for atn in profiles]


def test_unicast_run_hashes_and_compares_no_profile(monkeypatch):
    # Each node holds its profile's decode table from when it was added, so
    # a delivery, one per reception on unicast traffic, hashes no profile.
    sc = load_scenario(str(SCENARIOS / "redirect.scn"))
    sim = build_simulator(sc)
    calls = []
    for name in ("__hash__", "__eq__"):
        original = getattr(ValidationProfile, name)
        monkeypatch.setattr(ValidationProfile, name, lambda *args, _name=name, _original=original: (
            calls.append(_name) or _original(*args)))
    log = sim.run_until(sc.until)
    groups = {a.hex() for a in (ALL_ES, ALL_IS, BROADCAST)}
    unicast = [l for l in log if " SEND " in l and l.split("dst=")[1][:12] not in groups]
    assert len(unicast) == 8  # 4 hello replies, 2 CLNP sends, the RD, the forwarded stub
    assert calls == []


def test_equal_profiles_share_one_decode_table_and_others_do_not():
    sim = Simulator()
    # Decode reads only a profile's NSAP rule, and a lenient rule has no AFI.
    profiles = [ValidationProfile(), ValidationProfile(), pdu.LENIENT,
                ValidationProfile(atn=True), pdu.ATN, ValidationProfile(afi=0x39),
                ValidationProfile(atn=True, afi=0x39)]
    for i, profile in enumerate(profiles):
        config = es_config(bytes([2, 0, 0, 0, 1, i]), NSAP2)
        config.validation_profile = profile
        sim.add_node(f"N{i}", config)
    lenient, _, _, atn, _, _, atn39 = tables = [sn.decodes for sn in sim.nodes.values()]
    assert [t is lenient for t in tables] == [True, True, True, False, False, True, False]
    assert [t is atn for t in tables] == [False, False, False, True, True, False, False]
    assert [t is atn39 for t in tables] == [False] * 6 + [True]


# The ATN profile in a run: an atn IS and an atn ES with 20-octet AFI-47
# addresses, and two lenient ES, one with an AFI-49 NSAP and one with a
# 2-octet NSAP. L49 boots before the first ISH, so its all-ES burst reaches
# A (atn) and L2 (lenient) in one delivery; A and L2 boot after it.
ATN_LAN = """\
node L49 role=es snpa=020000000001 nsap=4901010101010101010101010101010101010101
node A role=es snpa=020000000002 nsap=4702020202020202020202020202020202020202 profile=atn start=5
node L2 role=es snpa=020000000003 nsap=4703 start=5
node IS1 role=is snpa=0200000000ff net=47ffffffffffffffffffffffffffffffffffffff profile=atn start=3
until 5
"""


def test_atn_receivers_discard_what_lenient_ones_learn():
    sim = build_simulator(parse_scenario(ATN_LAN))
    log = sim.run_until(5)
    is_net = "47" + "ff" * 19
    a_nsap = "47" + "02" * 19
    assert [l for l in log if not any(w in l for w in (" SEND ", " RECV ", " TIMER "))] == [
        "t=1 node=IS1 DISCARD ProtocolError(BadAddressValue)",
        "t=1 node=A DISCARD ProtocolError(BadAddressValue)",
        f"t=1 node=L2 RIB ES 49{'01' * 19} via 020000000001 expires 61",
        f"t=4 node=L49 RIB IS {is_net} via 0200000000ff expires 64",
        f"t=4 node=A RIB IS {is_net} via 0200000000ff expires 64",
        f"t=4 node=L2 RIB IS {is_net} via 0200000000ff expires 64",
        "t=5 node=IS1 DISCARD ProtocolError(BadAddressValue)",
        f"t=5 node=IS1 RIB ES {a_nsap} via 020000000002 expires 65",
        "t=5 node=IS1 DISCARD ProtocolError(BadAddressLength)"]
    assert sim.node("IS1").rib.dump(5) == [f"ES {a_nsap} via 020000000002 expires 65"]


def test_receivers_of_one_burst_share_one_frozen_entry():
    sim = Simulator()
    for name, snpa in (("ES2", S2), ("ES3", S3)):
        sim.add_node(name, es_config(snpa, NSAP2), start=1000)
    sim.transmit(Frame(ALL_ES, S1, SHORT_ESH), "SRC")
    sim.run_until(1)
    es2, es3 = (sim.node(name).rib for name in ("ES2", "ES3"))
    shared = es2.es_neighbors[b"\x49\x01"]
    assert shared is es3.es_neighbors[b"\x49\x01"]
    assert shared.line == "ES 4901 via 020000000001 expires 21"
    with pytest.raises(AttributeError):
        shared.expiry = 99
    # A refresh that reaches ES2 alone gives ES2 a new entry; ES3 keeps the
    # shared one, expiry and all.
    sim.run_until(5)
    sim.transmit(Frame(S2, S1, SHORT_ESH), "SRC")
    sim.run_until(6)
    assert es2.es_neighbors[b"\x49\x01"].expiry == 26
    assert es3.es_neighbors[b"\x49\x01"] is shared and shared.expiry == 21
    assert es3.dump(6) == ["ES 4901 via 020000000001 expires 21"]


def rib_lines_at(log, t):
    return {l.split(" RIB ", 1)[1] for l in log
            if l.startswith(f"t={t} ") and re.search(" RIB (ES|IS) ", l)}


def test_pool_holds_only_the_last_time_steps_entries():
    sim = three_node_sim()
    sim.add_node("ES3", es_config(bytes.fromhex("020000000003"), b"\x49\x03" + bytes(18)), start=3)
    log = sim.run_until(47)
    last = max(int(l.split()[0][2:]) for l in log if re.search(" RIB (ES|IS) ", l))
    pool = sim.rib_entries
    assert pool.now == last
    assert {e.line for e in pool.values()} == rib_lines_at(log, last)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SIDE_BY_SIDE = ("discovery.scn", "redirect.scn")


def test_simulators_stepped_side_by_side_run_as_alone():
    def alone(name):
        sc = load_scenario(str(SCENARIOS / name))
        sim = build_simulator(sc)
        return sim.run_until(sc.until), sim.dump_ribs(sc.until)

    scenarios = [load_scenario(str(SCENARIOS / name)) for name in SIDE_BY_SIDE]
    sims = [build_simulator(sc) for sc in scenarios]
    for t in range(max(sc.until for sc in scenarios) + 1):
        for sc, sim in zip(scenarios, sims):
            if t <= sc.until:
                log = sim.run_until(t)
                # Each pool holds entries of its own simulator only.
                if sim.rib_entries:
                    assert ({e.line for e in sim.rib_entries.values()}
                            == rib_lines_at(log, sim.rib_entries.now))
    for name, sc, sim in zip(SIDE_BY_SIDE, scenarios, sims):
        assert (sim.log, sim.dump_ribs(sc.until)) == alone(name)


def test_every_engine_event_class_has_one_simulator_action():
    assert set(typing.get_args(engine.EngineEvent)) == set(sim_mod._ON_EVENT)
