"""Acceptance suite: one test per criterion, one PASS line per criterion
(visible with pytest -s or in captured output)."""

import random
import time
from dataclasses import replace

from esis.checksum import ChecksumVerdict, generate_checksum, verify_checksum
from esis.pdu import DiscardReason, EshBody, Pdu, decode, encode
from esis.rib import EntryKind, HopKind, InsertResult, Rib
from esis.scenario import build_simulator, load_scenario
from helpers import exhaustive_checksum_pairs, random_header, random_pdu

CSUM_POS = (7, 8)


def report(n: int, desc: str) -> None:
    print(f"PASS criterion {n}: {desc}")


def scenario(name: str):
    return build_simulator(load_scenario(f"scenarios/{name}.scn"))


def test_criterion_1_codec_roundtrip():
    rng = random.Random(0xE515)
    t0 = time.monotonic()
    for _ in range(1000):
        p = random_pdu(rng)
        out = decode(generate_checksum(encode(p)))
        assert isinstance(out, Pdu), out
        assert replace(out, checksum=(0, 0)) == p
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(1, f"1000 randomized PDUs round-trip in {elapsed:.2f}s")


def test_criterion_2_checksum_detection():
    rng = random.Random(0xE516)
    t0 = time.monotonic()
    checked = aliases = 0
    for _ in range(500):
        h = generate_checksum(random_header(rng, max_len=32))
        for pos in range(len(h)):
            old = h[pos]
            prefix, suffix = h[:pos], h[pos + 1:]
            for new in range(256):
                if new == old:
                    continue
                verdict = verify_checksum(prefix + bytes([new]) + suffix)
                if pos in CSUM_POS and new == 0:
                    assert verdict is ChecksumVerdict.INVALID, (pos, old, new)
                elif {old, new} == {0x00, 0xFF}:
                    # documented Fletcher mod-255 blind spot
                    assert verdict is ChecksumVerdict.VALID, (pos, old, new)
                    aliases += 1
                else:
                    assert verdict is ChecksumVerdict.INVALID, (pos, old, new)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(2, f"{checked} single-octet substitutions over 500 headers "
              f"({aliases} 00<->ff aliases) in {elapsed:.1f}s")


def test_criterion_3_checksum_oracle_equivalence():
    rng = random.Random(0xE517)
    for _ in range(1000):
        h = random_header(rng, max_len=255)
        out = generate_checksum(h)
        assert exhaustive_checksum_pairs(h) == [(out[7], out[8])]
    report(3, "closed form matches the exhaustive 255x255 search on 1000 headers "
              "of 9..255 octets")


def test_criterion_4_protocol_error_processing():
    nsap = b"\x49" + bytes(19)
    base = generate_checksum(encode(Pdu(EshBody((nsap,)), holding_time=60)))

    def patched(pos: int, value: int) -> bytes:
        return generate_checksum(base[:pos] + bytes([value]) + base[pos + 1:])

    def built(fixed_tail: bytes) -> bytes:
        # hand-built ESH: fixed part then the given address/options octets
        raw = bytearray([0x82, 9 + len(fixed_tail), 1, 0, 2, 0, 60, 0, 0])
        raw += fixed_tail
        return generate_checksum(bytes(raw))

    R = DiscardReason
    cases = [
        ("NLPID 0x81", base[:1].replace(b"\x82", b"\x81") + base[1:], R.NOT_ES_IS),
        ("version 2", patched(2, 2), R.WRONG_VERSION),
        ("reserved octet 1", patched(3, 1), R.NONZERO_RESERVED),
        ("reserved type bits", patched(4, 0x22), R.NONZERO_RESERVED),
        ("unknown type 3", patched(4, 3), R.UNKNOWN_TYPE),
        ("zero address count", patched(9, 0), R.ZERO_ADDRESS_COUNT),
        ("address length 0", built(bytes([1, 0])), R.BAD_ADDRESS_LENGTH),
        ("address length 21", built(bytes([1, 21]) + bytes(21)), R.BAD_ADDRESS_LENGTH),
        ("ESCT on ESH", built(bytes([1, 20]) + nsap + bytes([0xC6, 2, 0, 30])),
         R.OPTION_ILLEGAL_FOR_TYPE),
        ("duplicate priority", built(bytes([1, 20]) + nsap
                                     + bytes([0xCD, 1, 5, 0xCD, 1, 5])),
         R.DUPLICATE_OPTION),
        ("truncated header", base[:6], R.TRUNCATED_PDU),
    ]
    for label, raw, expected in cases:
        assert decode(raw) is expected, label
    report(4, f"{len(cases)} invalid-field injections each hit their exact reason")


def test_criterion_5_record_configuration():
    a = b"\x49\x01" + bytes(18)
    b = b"\x49\x02" + bytes(18)
    s1, s2, s3 = (bytes.fromhex(f"02000000000{i}") for i in (1, 2, 3))
    rib = Rib()
    assert rib.insert_entry(EntryKind.ES_NEIGHBOR, a, s1, 60, 0) is InsertResult.INSERTED
    assert rib.dump(0) == [f"ES {a.hex()} via {s1.hex()} expires 60"]
    # identical pair: replaced, count unchanged, SNPA updated
    assert rib.insert_entry(EntryKind.ES_NEIGHBOR, a, s2, 60, 5) is InsertResult.REPLACED
    assert rib.num_of_entry == 1
    assert rib.dump(5) == [f"ES {a.hex()} via {s2.hex()} expires 65"]
    # distinct pair: inserted, count + 1
    assert rib.insert_entry(EntryKind.ES_NEIGHBOR, b, s3, 60, 5) is InsertResult.INSERTED
    assert rib.num_of_entry == 2
    assert rib.dump(5) == [
        f"ES {a.hex()} via {s2.hex()} expires 65",
        f"ES {b.hex()} via {s3.hex()} expires 65",
    ]
    report(5, "identical-pair replacement and distinct-pair insertion, byte-exact dumps")


ES_NSAP = bytes.fromhex("4900010101010101010101010101010101010100")
IS_NET = bytes.fromhex("4900ff0101010101010101010101010101010100")
ES_SNPA = bytes.fromhex("020000000001")
IS_SNPA = bytes.fromhex("0200000000ff")


def test_criterion_6_discovery_handshake():
    sim = scenario("discovery")
    sim.run_until(1)
    assert sim.node("IS1").rib.lookup(ES_NSAP, 0).snpa == ES_SNPA
    sim.run_until(2)
    assert sim.node("ES1").rib.lookup(IS_NET, 2 - 1).snpa == IS_SNPA
    log = sim.run_until(15)
    # the IS only ever sent one unicast ISH; its periodic ISH sits at t=50
    ish_sends = [l for l in log if "node=IS1 SEND" in l]
    assert ish_sends == [l for l in ish_sends
                         if f"dst={ES_SNPA.hex()}" in l and l.startswith("t=1 ")]
    report(6, "ES known to IS by t=1, IS known to ES by t=2 via unicast ISH")


def test_criterion_7_holding_timer_flush():
    sim = scenario("flush")
    sim.run_until(49)
    line = f"ES {ES_NSAP.hex()} via {ES_SNPA.hex()} expires 51"
    assert line in sim.node("IS1").rib.dump(49)
    sim.run_until(51)
    assert sim.node("IS1").rib.dump(51) == []
    report(7, "last hello expiry 51: ES listed at t=49, gone at t=51")


def test_criterion_8_ra_aa_flow():
    sim = scenario("ra_aa")
    log = sim.run_until(3)
    first_send = next(l for l in log if "node=ES1 SEND" in l)
    assert first_send.startswith("t=0 ")
    first_pdu = decode(bytes.fromhex(first_send.split("payload=")[1]))
    assert first_pdu.pdu_type.name == "RA"
    net = sim.node("ES1").acquired_net
    assert net is not None and len(net) == 20
    log = sim.run_until(10)
    next_emission = next(l for l in log if "node=ES1 SEND" in l
                         and not l.startswith(("t=0 ", "t=1 ", "t=2 ", "t=3 ")))
    pdu = decode(bytes.fromhex(next_emission.split("payload=")[1]))
    assert pdu.pdu_type.name == "ESH"
    assert pdu.body.source_addresses == (net,)
    report(8, "RA at t=0, 20-octet temporary NET held by t=3, next emission an ESH")


ES2_NSAP = bytes.fromhex("4900020202020202020202020202020202020200")
ES2_SNPA = bytes.fromhex("020000000002")


def test_criterion_9_redirect_flow():
    sim = scenario("redirect")
    sim.run_until(7)
    rib = sim.node("ES1").rib
    entry = rib.lookup_redirect(ES2_NSAP, 7)
    assert entry is not None and entry.better_snpa == ES2_SNPA
    hop = rib.next_hop(ES2_NSAP, 7)
    assert hop.kind is HopKind.DIRECT and hop.snpa == ES2_SNPA
    expiry_before = entry.expiry
    assert entry.holding_time == 60  # IS holding: 2 x ct 30
    sim.run_until(25)
    entry = rib.lookup_redirect(ES2_NSAP, 25)
    # reverse CLNP injected at t=20 arrives at t=21: expiry = 21 + HT
    assert entry.expiry == 21 + 60
    assert entry.expiry > expiry_before
    report(9, "redirect recorded by t=7; reverse traffic re-arms it to now+HT")


def test_criterion_10_determinism():
    names = ["discovery", "corrupt_hello", "flush", "ra_aa", "redirect"]
    for name in names:
        sc = load_scenario(f"scenarios/{name}.scn")
        runs = []
        for _ in range(2):
            sim = build_simulator(sc)
            log = sim.run_until(sc.until)
            runs.append(("\n".join(log), "\n".join(sim.dump_ribs())))
        assert runs[0] == runs[1], name
    report(10, f"{len(names)} scenarios byte-identical across repeated runs")


def test_criterion_11_rib_model_equivalence():
    rng = random.Random(0xE51B)
    rib = Rib()
    model: dict = {}
    addrs = [bytes([i]) * 10 for i in range(10)]
    snpas = [bytes([0, 0, 0, 0, 0, i]) for i in range(5)]
    now = 0
    for _ in range(1000):
        now += rng.randint(0, 2)
        op = rng.randrange(3)
        if op == 0:
            kind = rng.choice(list(EntryKind))
            a, s, holding = rng.choice(addrs), rng.choice(snpas), rng.randint(1, 25)
            want = (InsertResult.REPLACED if (kind, a) in model
                    else InsertResult.INSERTED)
            model[(kind, a)] = (s, now + holding)
            assert rib.insert_entry(kind, a, s, holding, now) is want
        elif op == 1:
            a = rng.choice(addrs)
            # The live ES entry, else the live IS entry, as next_hop reads them.
            live = [(k, *model[k, a]) for k in (EntryKind.ES_NEIGHBOR, EntryKind.IS_NEIGHBOR)
                    if (k, a) in model and model[k, a][1] > now]
            got = rib.lookup(a, now)
            if not live:
                assert got is None
            else:
                assert (got.kind, got.snpa, got.expiry) == live[0]
        else:
            dead = [k for k, (_, e) in model.items() if e <= now]
            for k in dead:
                del model[k]
            assert rib.flush_expired(now) == len(dead)
        assert rib.num_of_entry == len(model)
    report(11, "1000 random operations agree with the associative-array oracle")
