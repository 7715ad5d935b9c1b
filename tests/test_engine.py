import random
import re
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esis import engine, pdu as pdu_mod
from esis.checksum import generate_checksum
from esis.engine import (ALL_ES, ALL_IS, BROADCAST, AddressAssigned, EngineEvent, Frame,
                         ForwardingEntry, MinimalClnpPdu, Node, NodeConfig,
                         RedirectIssued, Role, TimerSet,
                         decode_clnp, decode_payload, encode_clnp)
from esis.pdu import (ATN, LENIENT, AaBody, DiscardReason, EshBody, IshBody, Option,
                      OptionCode, Pdu, PduType, RaBody, RdBody, decode, encode)
from esis.rib import EntryKind, HopKind, RedirectEntry, RibEntry
from helpers import random_nsap, random_pdu

ES_NSAP = b"\x49\x01" + bytes(18)
ES2_NSAP = b"\x49\x02" + bytes(18)
IS_NET = b"\x49\xff" + bytes(18)
ES_SNPA = bytes.fromhex("020000000001")
ES2_SNPA = bytes.fromhex("020000000002")
IS_SNPA = bytes.fromhex("0200000000ff")
ATN_NSAP = b"\x47" + bytes(19)


def make_es(**kw):
    kw.setdefault("local_nsaps", (ES_NSAP,))
    kw.setdefault("configuration_timer", 10)
    return Node(NodeConfig(role=Role.END_SYSTEM, snpa=ES_SNPA, **kw))


def make_is(**kw):
    kw.setdefault("configuration_timer", 10)
    return Node(NodeConfig(role=Role.INTERMEDIATE_SYSTEM, snpa=IS_SNPA,
                           local_net=IS_NET, **kw))


def sent_pdus(events):
    return [(decode(ev.payload), ev) for ev in events if isinstance(ev, Frame)]


def frame_with(pdu: Pdu, source: bytes, dest: bytes = None) -> Frame:
    return Frame(dest or IS_SNPA, source, generate_checksum(encode(pdu)))


def test_is_config_requires_net():
    with pytest.raises(ValueError):
        Node(NodeConfig(role=Role.INTERMEDIATE_SYSTEM, snpa=IS_SNPA))


TWELVE_LONG_NSAPS = tuple(bytes([0x49, i]) + bytes(18) for i in range(12))


@pytest.mark.parametrize("kw, msg", [
    (dict(snpa=ES_SNPA[:5]), "snpa must be 6 octets, got '0200000000'"),
    (dict(local_nsaps=(ES_NSAP, b"")),
     "a local NSAP or NET must be an NSAP of length 1..20, got ''"),
    (dict(role=Role.INTERMEDIATE_SYSTEM, local_nsaps=(), local_net=bytes(21)),
     "a local NSAP or NET must be an NSAP of length 1..20, got '" + "00" * 21 + "'"),
    # The fixed part, a count octet and 12 {length, NSAP} fields of 21 octets.
    (dict(local_nsaps=TWELVE_LONG_NSAPS), "an ESH of 12 NSAPs would be 262 octets, over 255"),
    (dict(holding_multiplier=1), "holding multiplier must be ≥ 2"),
    (dict(configuration_timer=0), "configuration timer must be > 0"),
], ids=["5-octet-snpa", "empty-nsap", "21-octet-net", "262-octet-esh", "multiplier-1",
        "ct-0"])
def test_node_refuses_a_config_it_cannot_run(kw, msg):
    config = dict(role=Role.END_SYSTEM, snpa=ES_SNPA, local_nsaps=(ES_NSAP,)) | kw
    with pytest.raises(ValueError, match=re.escape(msg)):
        Node(NodeConfig(**config))


@pytest.mark.parametrize("net, snpa, msg", [
    (IS_NET, b"\x02\x00\x00\x00\x09", "a forwarding SNPA must be 6 octets, got '0200000009'"),
    (bytes(21), ES2_SNPA,
     "a forwarding NET must be empty or an NSAP of length 1..20, got '" + "00" * 21 + "'"),
], ids=["5-octet-snpa", "21-octet-net"])
def test_is_refuses_a_forwarding_entry_it_could_not_redirect_through(net, snpa, msg):
    # The entry itself refuses, when it is built: in an IS's table, either
    # would stop the run at the first CLNP frame forwarded through it.
    with pytest.raises(ValueError, match=re.escape(msg)):
        ForwardingEntry(b"\x50", net, snpa)
    assert ForwardingEntry(b"\x50", b"", ES2_SNPA).next_is_net == b""  # an empty NET is kept


def test_a_forwarding_prefix_that_could_never_match_is_refused():
    # A destination is an NSAP of 1..20 octets, so a longer prefix is a route
    # that never matches; an empty prefix is a default route, and is kept.
    msg = "a forwarding prefix must be empty or an NSAP of length 1..20, got '" + "47" * 21 + "'"
    with pytest.raises(ValueError, match=re.escape(msg)):
        ForwardingEntry(b"\x47" * 21, IS_NET, ES2_SNPA)
    assert ForwardingEntry(b"\x47" * 20, IS_NET, ES2_SNPA).prefix == b"\x47" * 20
    default = ForwardingEntry(b"", IS_NET, ES2_SNPA)
    assert make_is(forwarding_table=(default,))._longest_prefix(ES_NSAP) is default


def test_node_whose_esh_is_255_octets_sends_it():
    nsaps = TWELVE_LONG_NSAPS[:11] + (b"\x49" * 13,)  # 9 + 1 + 11 * 21 + 14
    (p, frame), _ = sent_pdus(make_es(local_nsaps=nsaps).on_config_timer(0))
    assert len(frame.payload) == 255 and p.body.source_addresses == nsaps


def test_is_timer_emits_ish_with_holding():
    node = make_is()
    events = node.on_config_timer(0)
    pdus = sent_pdus(events)
    assert len(pdus) == 1
    pdu, frame = pdus[0]
    assert isinstance(pdu.body, IshBody) and pdu.body.net == IS_NET
    assert pdu.holding_time == 20  # 2 x ct
    assert frame.destination == ALL_ES
    assert events[-1] == TimerSet(10)


def test_es_timer_both_groups_when_no_is():
    node = make_es(local_nsaps=(ES_NSAP, ES2_NSAP))
    events = node.on_config_timer(0)
    pdus = sent_pdus(events)
    assert [f.destination for _, f in pdus] == [ALL_IS, ALL_ES]
    for pdu, _ in pdus:
        assert pdu.body.source_addresses == (ES_NSAP, ES2_NSAP)


def test_es_timer_single_group_when_is_known():
    node = make_es()
    node.handle_frame(frame_with(Pdu(IshBody(IS_NET), holding_time=60),
                                 IS_SNPA, ES_SNPA), 0)
    pdus = sent_pdus(node.on_config_timer(1))
    assert [f.destination for _, f in pdus] == [ALL_IS]


@pytest.mark.parametrize("holding", [29, 25])
def test_es_greets_all_es_again_once_its_only_is_expires(holding):
    # The ISH at t=1 expires at t=30 (on a fire) or t=26 (between fires).
    node = make_es()
    node.handle_frame(frame_with(Pdu(IshBody(IS_NET), holding_time=holding),
                                 IS_SNPA, ES_SNPA), 1)
    for now in (10, 20):
        assert [f.destination for _, f in sent_pdus(node.on_config_timer(now))] == [ALL_IS]
    assert [f.destination for _, f in sent_pdus(node.on_config_timer(30))] == [ALL_IS, ALL_ES]
    assert node.rib.num_of_entry == 0


def test_unchanged_hello_is_reused_and_a_new_holding_time_is_not(monkeypatch):
    calls = []
    monkeypatch.setattr(pdu_mod, "encode", lambda p: calls.append(p) or encode(p))
    node = make_es()
    first = node.on_config_timer(0)[:2]
    assert node.on_config_timer(10)[:2] == first
    assert len(calls) == 1  # one ESH, to both groups, encoded once
    node.ct = 7
    again = node.on_config_timer(20)[:2]
    assert [decode(ev.payload).holding_time for ev in again] == [14, 14]
    assert len(calls) == 2


def test_addressless_es_emits_ra():
    node = make_es(local_nsaps=())
    pdus = sent_pdus(node.on_config_timer(0))
    assert len(pdus) == 1
    assert isinstance(pdus[0][0].body, RaBody)
    assert pdus[0][1].destination == ALL_IS


def test_is_handles_esh_notifies_once():
    node = make_is()
    esh = Pdu(EshBody((ES_NSAP, ES2_NSAP)), holding_time=60)
    events = node.handle_frame(frame_with(esh, ES_SNPA), 0)
    ribs = [ev for ev in events if isinstance(ev, RibEntry)]
    pdus = sent_pdus(events)
    assert len(ribs) == 2
    assert len(pdus) == 1  # one notification per PDU, not per address
    pdu, frame = pdus[0]
    assert isinstance(pdu.body, IshBody)
    assert frame.destination == ES_SNPA
    # Same ESH again: replaced, no reply
    events = node.handle_frame(frame_with(esh, ES_SNPA), 1)
    assert sent_pdus(events) == []


def test_es_handles_ish_replies_once():
    node = make_es()
    ish = Pdu(IshBody(IS_NET), holding_time=60)
    events = node.handle_frame(frame_with(ish, IS_SNPA, ES_SNPA), 0)
    pdus = sent_pdus(events)
    assert len(pdus) == 1
    assert isinstance(pdus[0][0].body, EshBody)
    assert pdus[0][1].destination == IS_SNPA
    assert sent_pdus(node.handle_frame(frame_with(ish, IS_SNPA, ES_SNPA), 1)) == []


def test_esct_adjusts_configuration_timer():
    node = make_es()
    ish = Pdu(IshBody(IS_NET), holding_time=60,
              options=(Option(OptionCode.ESCT, b"\x00\x1e"),))
    events = node.handle_frame(frame_with(ish, IS_SNPA, ES_SNPA), 0)
    assert node.ct == 30
    assert TimerSet(30) in events
    assert node.holding_time == 60


def test_corrupted_esh_discarded_rib_unchanged():
    node = make_is()
    payload = bytearray(generate_checksum(encode(Pdu(EshBody((ES_NSAP,)),
                                                     holding_time=60))))
    payload[10] ^= 0x01
    events = node.handle_frame(Frame(IS_SNPA, ES_SNPA, bytes(payload)), 0)
    assert events == [DiscardReason.CHECKSUM_ERROR]
    assert node.rib.num_of_entry == 0


def test_unrecognized_nlpid_ignored():
    node = make_es()
    assert node.handle_frame(Frame(ES_SNPA, IS_SNPA, b"\x55\x01\x02"), 0) == []


def test_own_frames_ignored():
    node = make_is()
    esh = Pdu(EshBody((ES_NSAP,)), holding_time=60)
    assert node.handle_frame(frame_with(esh, IS_SNPA), 0) == []
    assert node.rib.num_of_entry == 0


def test_role_mismatches():
    es, is_ = make_es(), make_is()
    ra = frame_with(Pdu(RaBody()), ES2_SNPA, ES_SNPA)
    aa = frame_with(Pdu(AaBody(IS_NET)), ES2_SNPA)
    rd = frame_with(Pdu(RdBody(ES2_NSAP, ES2_SNPA, None)), ES2_SNPA)
    ish = frame_with(Pdu(IshBody(IS_NET)), ES2_SNPA)
    for node, frame in [(es, ra), (is_, aa), (is_, rd), (is_, ish)]:
        events = node.handle_frame(frame, 0)
        assert len(events) == 1 and isinstance(events[0], DiscardReason)
        assert str(events[0]) == "ProtocolError(RoleMismatch)"


def test_ra_aa_flow():
    is_node = make_is()
    events = is_node.handle_frame(frame_with(Pdu(RaBody()), ES_SNPA), 0)
    pdus = sent_pdus(events)
    assert len(pdus) == 1
    aa, frame = pdus[0]
    assert isinstance(aa.body, AaBody) and len(aa.body.net) == 20
    assert frame.destination == ES_SNPA
    # Same requester gets the same NET; a different one gets a different NET.
    again = sent_pdus(is_node.handle_frame(frame_with(Pdu(RaBody()), ES_SNPA), 1))
    assert again[0][0].body.net == aa.body.net
    other = sent_pdus(is_node.handle_frame(frame_with(Pdu(RaBody()), ES2_SNPA), 2))
    assert other[0][0].body.net != aa.body.net

    es = make_es(local_nsaps=())
    events = es.handle_frame(Frame(ES_SNPA, IS_SNPA, frame.payload), 1)
    assert AddressAssigned(aa.body.net) in events
    assert es.local_addresses() == (aa.body.net,)
    pdus = sent_pdus(es.on_config_timer(10))
    assert all(isinstance(p.body, EshBody) for p, _ in pdus)

    # Latest AA wins.
    other_aa = generate_checksum(encode(Pdu(AaBody(ES2_NSAP), holding_time=60)))
    es.handle_frame(Frame(ES_SNPA, IS_SNPA, other_aa), 2)
    assert es.acquired_net == ES2_NSAP


def test_assign_temporary_net_shape():
    node = make_is()
    net = node.assign_temporary_net(ES_SNPA)
    assert len(net) == 20
    assert net[:13] == IS_NET[:13]
    assert net[13:19] == ES_SNPA
    assert net[19] == 0


def test_clnp_redirect_to_directly_connected_es():
    node = make_is()
    node.handle_frame(frame_with(Pdu(EshBody((ES2_NSAP,)), holding_time=60),
                                 ES2_SNPA), 0)
    clnp = Frame(IS_SNPA, ES_SNPA, encode_clnp(ES_NSAP, ES2_NSAP))
    events = node.handle_frame(clnp, 5)
    assert RedirectIssued(ES2_NSAP, ES2_SNPA) in events
    pdus = sent_pdus(events)
    rd = next(p for p, f in pdus if isinstance(p.body, RdBody))
    assert rd.body.better_snpa == ES2_SNPA and rd.body.redirect_net is None
    # CLNP forwarded toward the destination ES
    fwd = next(f for p, f in pdus if not isinstance(p, Pdu) or f.payload[0] == 0x81)
    assert fwd.destination == ES2_SNPA


def test_clnp_redirect_via_forwarding_table():
    fwd_snpa = bytes.fromhex("0200000000aa")
    table = (ForwardingEntry(b"\x49", IS_NET, ES2_SNPA),
             ForwardingEntry(b"\x49\x02", b"\x48" + bytes(19), fwd_snpa))
    node = make_is(forwarding_table=table)
    events = node.handle_frame(Frame(IS_SNPA, ES_SNPA,
                                     encode_clnp(ES_NSAP, ES2_NSAP)), 0)
    pdus = sent_pdus(events)
    rd = next(p for p, _ in pdus if isinstance(p, Pdu) and isinstance(p.body, RdBody))
    # Longest prefix wins and the RD carries both SNPA and NET.
    assert rd.body.better_snpa == fwd_snpa
    assert rd.body.redirect_net == b"\x48" + bytes(19)
    # Of equally long prefixes, the first in the table wins.
    tied = make_is(forwarding_table=table + (ForwardingEntry(b"\x49\x02", IS_NET, ES_SNPA),))
    events = tied.handle_frame(Frame(IS_SNPA, ES_SNPA, encode_clnp(ES_NSAP, ES2_NSAP)), 0)
    assert RedirectIssued(ES2_NSAP, fwd_snpa) in events


def test_clnp_no_route_no_redirect():
    node = make_is()
    events = node.handle_frame(Frame(IS_SNPA, ES_SNPA,
                                     encode_clnp(ES_NSAP, ES2_NSAP)), 0)
    assert events == []


def test_clnp_refresh_at_es():
    node = make_es()
    rd = Pdu(RdBody(ES2_NSAP, ES2_SNPA, None), holding_time=60)
    node.handle_frame(frame_with(rd, IS_SNPA, ES_SNPA), 0)
    entry = node.rib.lookup_redirect(ES2_NSAP, 1)
    assert entry.expiry == 60
    # Reverse traffic over the same SNPA refreshes...
    events = node.handle_frame(Frame(ES_SNPA, ES2_SNPA,
                                     encode_clnp(ES2_NSAP, ES_NSAP)), 10)
    assert any(isinstance(ev, RedirectEntry) for ev in events)
    assert node.rib.lookup_redirect(ES2_NSAP, 10).expiry == 70
    # ...a different SNPA does not.
    assert node.handle_frame(Frame(ES_SNPA, IS_SNPA,
                                   encode_clnp(ES2_NSAP, ES_NSAP)), 20) == []
    assert node.rib.lookup_redirect(ES2_NSAP, 20).expiry == 70


def test_redirect_entries_are_frozen():
    node = make_es()
    rd = Pdu(RdBody(ES2_NSAP, ES2_SNPA, None), holding_time=60)
    [entry] = node.handle_frame(frame_with(rd, IS_SNPA, ES_SNPA), 0)
    with pytest.raises(AttributeError):
        entry.expiry = 99


def test_rd_event_held_across_later_changes_keeps_its_expiry_and_line():
    node = make_es()
    rd = Pdu(RdBody(ES2_NSAP, ES2_SNPA, IS_NET), holding_time=60)
    [held] = node.handle_frame(frame_with(rd, IS_SNPA, ES_SNPA), 0)
    line = f"RD {ES2_NSAP.hex()} -> {ES2_SNPA.hex()} net {IS_NET.hex()} expires "
    # Reverse traffic over the redirected path refreshes the redirect...
    [refreshed] = node.handle_frame(Frame(ES_SNPA, ES2_SNPA,
                                          encode_clnp(ES2_NSAP, ES_NSAP)), 10)
    assert (refreshed.expiry, refreshed.line) == (70, line + "70")
    assert node.rib.redirects[ES2_NSAP] is refreshed
    # ...and a later RD replaces it; neither touches an event already returned.
    [replaced] = node.handle_frame(frame_with(rd, IS_SNPA, ES_SNPA), 20)
    assert (replaced.expiry, replaced.line) == (80, line + "80")
    assert (held.expiry, held.line) == (60, line + "60")
    assert (refreshed.expiry, refreshed.line) == (70, line + "70")


def test_clnp_codec():
    payload = encode_clnp(ES_NSAP, ES2_NSAP)
    clnp = decode_clnp(payload)
    assert clnp == MinimalClnpPdu(ES_NSAP, ES2_NSAP)
    assert decode_clnp(b"\x81\x05\x01") is None
    assert decode_clnp(b"\x82") is None


@pytest.mark.parametrize("length", [0, 1, 20, 21, 255])
def test_encode_clnp_octets(length):
    # Each address length in turn on the source and, as 255 - length, on
    # the destination: the stub is NLPID, {len, src}, {len, dst}.
    source, destination = bytes(range(length)), b"\x49" * (255 - length)
    assert encode_clnp(source, destination) == (
        bytes([0x81, length]) + source + bytes([255 - length]) + destination)


@pytest.mark.parametrize("source, destination", [(bytes(256), ES2_NSAP), (ES_NSAP, bytes(256))],
                         ids=["source", "destination"])
def test_encode_clnp_refuses_an_address_of_256_octets(source, destination):
    with pytest.raises(OverflowError):
        encode_clnp(source, destination)


def test_clnp_decode_rejects_a_truncated_destination():
    assert decode_clnp(b"\x81\x01\x49\x05\x49") is None


@pytest.mark.parametrize("source, destination", [
    (b"", ES2_NSAP), (ES_NSAP, b""), (b"\x49" * 21, ES2_NSAP), (ES_NSAP, b"\x49" * 21)],
    ids=["empty-source", "empty-destination", "long-source", "long-destination"])
def test_clnp_with_an_address_outside_1_to_20_octets_is_ignored(source, destination):
    # Stub addresses follow the NSAP rule that RD encoding needs: a long
    # destination matching the IS's prefix must not build an RD.
    payload = encode_clnp(source, destination)
    assert decode_clnp(payload) is None
    at_is = make_is(forwarding_table=(ForwardingEntry(b"\x49", IS_NET, ES2_SNPA),))
    at_is.handle_frame(frame_with(Pdu(EshBody((ES2_NSAP,)), holding_time=50), ES2_SNPA), 0)
    at_es = make_es()
    at_es.rib.record_redirect(source, ES2_SNPA, None, 60, 0)
    for node in (at_is, at_es):
        assert node.handle_frame(Frame(node.config.snpa, ES2_SNPA, payload), 5) == []


def test_rd_with_holding_time_zero_is_recorded_and_logged():
    # Fletcher mod 255 cannot tell a holding-time octet 00 from ff, so a
    # damaged RD can arrive with holding time 0 and expire as it lands.
    node = make_es()
    rd = Pdu(RdBody(ES2_NSAP, ES2_SNPA, None), holding_time=0)
    assert [ev.line for ev in node.handle_frame(frame_with(rd, IS_SNPA, ES_SNPA), 8)] == [
        f"RD {ES2_NSAP.hex()} -> {ES2_SNPA.hex()} expires 8"]
    assert node.rib.lookup_redirect(ES2_NSAP, 8) is None


def test_clnp_frame_goes_to_redirect_then_es_then_latest_is_then_broadcast():
    node = make_es()
    is1_snpa, is2_snpa = bytes.fromhex("0200000000a1"), bytes.fromhex("0200000000a2")
    node.rib.insert_entry(EntryKind.IS_NEIGHBOR, IS_NET, is1_snpa, 100, 0)
    node.rib.insert_entry(EntryKind.IS_NEIGHBOR, b"\x48" + bytes(19), is2_snpa, 50, 0)
    node.rib.insert_entry(EntryKind.ES_NEIGHBOR, ES2_NSAP, ES2_SNPA, 30, 0)
    node.rib.record_redirect(ES2_NSAP, IS_SNPA, None, 20, 0)
    hops = [node.clnp_frame(ES_NSAP, ES2_NSAP, now) for now in (0, 20, 30, 50, 100)]
    assert [f.destination for f in hops] == [IS_SNPA, ES2_SNPA, is2_snpa, is1_snpa, BROADCAST]
    assert all(f.source == ES_SNPA and f.payload == encode_clnp(ES_NSAP, ES2_NSAP)
               for f in hops)


def hello_pdus(node, now):
    return [p for p, _ in sent_pdus(node.on_config_timer(now))]


def test_esh_after_esct_carries_the_new_holding_time():
    node = make_es()
    assert [p.holding_time for p in hello_pdus(node, 0)] == [20, 20]
    ish = Pdu(IshBody(IS_NET), holding_time=60,
              options=(Option(OptionCode.ESCT, b"\x00\x07"),))
    # The reply to a new IS goes out before the ESCT is applied.
    reply = sent_pdus(node.handle_frame(frame_with(ish, IS_SNPA, ES_SNPA), 1))
    assert [p.holding_time for p, _ in reply] == [20]
    assert [p.holding_time for p in hello_pdus(node, 8)] == [14]


def test_es_sends_esh_with_acquired_net_after_aa():
    node = make_es(local_nsaps=())
    assert [type(p.body) for p in hello_pdus(node, 0)] == [RaBody]
    node.handle_frame(frame_with(Pdu(AaBody(ES2_NSAP), holding_time=60),
                                 IS_SNPA, ES_SNPA), 1)
    # No IS is known yet, so the ESH goes to both groups.
    assert [p.body for p in hello_pdus(node, 10)] == [EshBody((ES2_NSAP,))] * 2


def test_hellos_encode_each_distinct_pdu_once(monkeypatch):
    calls = []
    monkeypatch.setattr(pdu_mod, "encode", lambda p: calls.append(p) or encode(p))
    es, is_ = make_es(), make_is()
    sends = 0
    for now in range(0, 60, 10):
        for node, peer in ((es, is_), (is_, es)):
            for ev in node.on_config_timer(now):
                if isinstance(ev, Frame):
                    sends += 1
                    for reply in peer.handle_frame(ev, now):
                        sends += isinstance(reply, Frame)
    # At t=0 the ESH to both groups, the ISH reply to it, the ISH hello and
    # the ESH reply to that; then one hello per node for five periods.
    assert sends == 15
    assert calls == [Pdu(EshBody((ES_NSAP,)), holding_time=20),
                     Pdu(IshBody(IS_NET), holding_time=20)]


def test_repeated_replies_and_redirects_build_no_pdu(monkeypatch):
    node = make_is()
    # ES2's hello teaches the IS where ES2 is, so ES1's CLNP frame to it earns an RD.
    inputs = [(Pdu(EshBody((ES2_NSAP,)), holding_time=60), ES2_SNPA),
              (Pdu(EshBody((ES_NSAP,)), holding_time=60), ES_SNPA),
              (Pdu(RaBody()), ES_SNPA), (MinimalClnpPdu(ES_NSAP, ES2_NSAP), ES_SNPA)]

    def replies(now):
        return [[ev for ev in node.handle_pdu(p, source, now) if isinstance(ev, Frame)][0]
                for p, source in inputs]

    first = replies(0)
    built, new = [], []
    init = Pdu.__init__
    monkeypatch.setattr(Pdu, "__init__",
                        lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
    monkeypatch.setattr(engine, "_new", lambda cls, fields: new.append(cls) or
                        tuple.__new__(cls, fields))
    node.rib.flush_expired(100)  # so each hello is new again and earns an ISH
    again = replies(100)
    assert built == []
    # A send builds one value, its Frame; the CLNP input adds its
    # REDIRECT event and the forwarded frame.
    assert new == [Frame, Frame, Frame, RedirectIssued, Frame, Frame]
    assert again == first
    assert [type(decode(ev.payload).body) for ev in again] == [IshBody, IshBody,
                                                                 AaBody, RdBody]


def test_ish_reply_and_aa_with_equal_nets_carry_different_payloads():
    node = make_is()
    snpa = bytes(6)
    # The AA for this SNPA names the IS's own NET, so only the body class
    # tells the two PDUs apart.
    assert node.assign_temporary_net(snpa) == IS_NET
    ish = node.handle_pdu(Pdu(EshBody((ES_NSAP,)), holding_time=60), snpa, 0)[-1]
    aa = node.handle_pdu(Pdu(RaBody()), snpa, 0)[-1]
    assert ish.destination == aa.destination == snpa
    assert [type(decode(ev.payload).body) for ev in (ish, aa)] == [IshBody, AaBody]


def test_emitted_pdus_roundtrip():
    for node in (make_es(), make_is(), make_es(local_nsaps=())):
        for ev in node.on_config_timer(0):
            if isinstance(ev, Frame):
                assert isinstance(decode(ev.payload), Pdu)


def random_payload(rng: random.Random, kind: str) -> bytes:
    if kind == "esis":
        return generate_checksum(encode(random_pdu(rng)))
    if kind == "atn-esis":
        # Addresses that pass ATN, so that profile also reaches the handlers.
        body = rng.choice([EshBody((ATN_NSAP,)), IshBody(ATN_NSAP), AaBody(ATN_NSAP),
                           RdBody(ATN_NSAP, ES2_SNPA, ATN_NSAP), RaBody()])
        return generate_checksum(encode(Pdu(body, holding_time=rng.randint(0, 99))))
    if kind == "clnp":
        return encode_clnp(random_nsap(rng), rng.choice([ES_NSAP, ES2_NSAP, random_nsap(rng)]))
    return random_nsap(rng, rng.randint(0, 20))  # raw octets, maybe empty


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), kind=st.sampled_from(["esis", "atn-esis", "clnp", "raw"]),
       flips=st.lists(st.tuples(st.integers(0, 254), st.integers(0, 255)), max_size=2),
       cut=st.none() | st.integers(0, 60), profile=st.sampled_from([LENIENT, ATN]),
       intermediate=st.booleans(), source=st.sampled_from([ES_SNPA, ES2_SNPA, IS_SNPA]))
def test_handle_frame_is_handle_pdu_of_decode_payload(seed, kind, flips, cut, profile,
                                                      intermediate, source):
    rng = random.Random(seed)
    payload = bytearray(random_payload(rng, kind)[:cut])
    for index, value in flips:
        if payload:
            payload[index % len(payload)] = value
    forwarding = (ForwardingEntry(b"\x49", IS_NET, ES2_SNPA),)
    framed, split = [make_is(validation_profile=profile, forwarding_table=forwarding)
                     if intermediate else make_es(validation_profile=profile)
                     for _ in range(2)]
    # Both nodes have seen the same traffic before, so the RIB paths are live.
    for node in (framed, split):
        node.handle_frame(frame_with(Pdu(EshBody((ES2_NSAP,)), holding_time=50), ES2_SNPA), 0)
        node.handle_frame(frame_with(Pdu(IshBody(IS_NET), holding_time=50), IS_SNPA), 0)
    frame = Frame(ALL_ES, source, bytes(payload))
    got = framed.handle_frame(frame, 5)
    want = split.handle_pdu(decode_payload(frame.payload, profile), frame.source, 5)
    assert got == want
    assert framed.rib.dump(5) == split.rib.dump(5)
    assert (framed.ct, framed.acquired_net) == (split.ct, split.acquired_net)
    if source == framed.config.snpa or not payload:
        assert got == []


def test_frame_from_a_source_that_is_not_6_octets_is_ignored():
    # Learned via a 1-octet SNPA, ES2 would later make the IS build an RD
    # that encode refuses.
    node = make_is()
    esh = frame_with(Pdu(EshBody((ES2_NSAP,)), holding_time=60), b"\x01")
    assert node.handle_frame(esh, 0) == []
    assert node.rib.num_of_entry == 0
    clnp = Frame(IS_SNPA, ES_SNPA, encode_clnp(ES_NSAP, ES2_NSAP))
    assert node.handle_frame(clnp, 1) == []
    # From a 6-octet SNPA the same frames are learned and redirected.
    node.handle_frame(Frame(esh.destination, ES2_SNPA, esh.payload), 2)
    assert RedirectIssued(ES2_NSAP, ES2_SNPA) in node.handle_frame(clnp, 3)


SOURCES = st.sampled_from([ES_SNPA, ES2_SNPA, IS_SNPA]) | st.binary(max_size=8)
DESTINATIONS = st.sampled_from([ALL_ES, ALL_IS, BROADCAST, ES_SNPA, IS_SNPA]) | st.binary(max_size=8)
PAYLOADS = st.tuples(st.integers(0, 2**32),
                     st.sampled_from(["esis", "atn-esis", "clnp", "raw", "es2"]))


@settings(max_examples=150, deadline=None)
@given(frames=st.lists(st.tuples(DESTINATIONS, SOURCES, PAYLOADS), max_size=6),
       profile=st.sampled_from([LENIENT, ATN]), intermediate=st.booleans())
def test_handle_frame_never_raises_and_sends_only_frames_that_decode(frames, profile,
                                                                      intermediate):
    forwarding = (ForwardingEntry(b"\x49", IS_NET, ES2_SNPA),)
    node = (make_is(validation_profile=profile, forwarding_table=forwarding)
            if intermediate else make_es(validation_profile=profile))
    for now, (destination, source, (seed, kind)) in enumerate(frames):
        rng = random.Random(seed)
        if kind == "es2":  # an ESH whose NSAP a later CLNP frame may name
            payload = frame_with(Pdu(EshBody((ES2_NSAP,)), holding_time=60), source).payload
        else:
            payload = random_payload(rng, kind)
        for ev in node.handle_frame(Frame(destination, source, payload), now):
            assert isinstance(ev, typing.get_args(EngineEvent))
            if isinstance(ev, Frame):
                assert len(ev.destination) == 6 and ev.source == node.config.snpa
                assert isinstance(decode_payload(ev.payload, LENIENT),
                                  (Pdu, MinimalClnpPdu))
            elif isinstance(ev, RibEntry):  # a RIB event is the entry the RIB holds
                table = (node.rib.es_neighbors if ev.kind is EntryKind.ES_NEIGHBOR
                         else node.rib.is_neighbors)
                assert table[ev.address] is ev
            elif isinstance(ev, RedirectEntry):
                assert node.rib.redirects[ev.destination] is ev


@pytest.mark.parametrize("octets", [bytes, bytearray, memoryview], ids=lambda t: t.__name__)
def test_handle_frame_reads_any_bytes_like_source_and_payload(octets):
    # A bytearray frame once decoded to bytearray fields, which the RIB
    # could not hash.
    def as_octets(frame):
        return Frame(frame.destination, octets(frame.source), octets(frame.payload))

    at_is = [frame_with(Pdu(EshBody((ES2_NSAP,)), holding_time=60), ES2_SNPA),
             Frame(IS_SNPA, ES_SNPA, encode_clnp(ES_NSAP, ES2_NSAP))]
    at_es = [frame_with(Pdu(IshBody(IS_NET), holding_time=60), IS_SNPA, ES_SNPA),
             frame_with(Pdu(RdBody(ES2_NSAP, ES2_SNPA), holding_time=60), IS_SNPA, ES_SNPA)]
    for make, frames in ((make_is, at_is), (make_es, at_es)):
        node, reference = make(), make()
        for now, frame in enumerate(frames):
            got = node.handle_frame(as_octets(frame), now)
            assert got == reference.handle_frame(frame, now)
            assert all(type(ev) is not Frame or type(ev.payload) is bytes
                       for ev in got)
        assert node.rib.dump(5) == reference.rib.dump(5) != []
        assert node.rib.num_of_entry == reference.rib.num_of_entry > 0
