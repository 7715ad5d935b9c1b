"""Differential tests of `pdu.decode` against a naive reference decoder.

The reference reads a frame one octet at a time, checks the checksum with
the octet-by-octet accumulation of ISO 8473 Annex C, and spells out every
address and option rule of ISO 9542 literally, sharing no code with the
codec's rule tables. Both must give the same verdict and an equal value.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esis.checksum import generate_checksum
from esis.pdu import (ATN, LENIENT, AaBody, DiscardReason, EshBody, IshBody, Option, Part,
                      Pdu, RaBody, RdBody, ValidationProfile, address_fault, decode, encode,
                      read_parts, validate_nsap)
from helpers import iterative_sums, random_pdu

PROFILES = [LENIENT, ATN, ValidationProfile(atn=True, afi=0x39)]
PROFILE_IDS = ["lenient", "atn", "atn-afi39"]

# Type code -> (body class, wire shape of each address field in order).
TYPES = {2: (EshBody, ["list"]), 4: (IshBody, ["nsap"]), 6: (RdBody, ["nsap", "snpa", "net"]),
         8: (RaBody, []), 10: (AaBody, ["nsap"])}
# Option code -> (type codes it may appear on, lengths allowed, value rule).
OPTIONS = {0xC5: ({2, 4, 6, 8, 10}, range(1, 256), lambda v: True),
           0xCD: ({2, 4, 6, 8, 10}, [1], lambda v: v[0] <= 14),
           0xC6: ({4}, [2], lambda v: v != [0, 0]),
           0xE1: ({6}, range(1, 256), lambda v: True),
           0xE2: ({6}, range(1, 256), lambda v: True)}


class Fault(Exception):
    pass


def reference_decode(raw, profile):
    """decode's result for `raw`, one octet at a time, the rules written out."""
    octets = list(raw)
    if not octets:
        return DiscardReason.TRUNCATED_PDU
    if octets[0] != 0x82:
        return DiscardReason.NOT_ES_IS
    if len(octets) < 9:
        return DiscardReason.TRUNCATED_PDU
    if octets[2] != 1:
        return DiscardReason.WRONG_VERSION
    length = octets[1]
    if length < 9 or length > len(octets):
        return DiscardReason.BAD_HEADER_LENGTH
    header = octets[:length]
    x, y = header[7], header[8]
    if (x, y) != (0, 0) and (x == 0 or y == 0 or iterative_sums(header) != (0, 0)):
        return DiscardReason.CHECKSUM_ERROR
    if header[3] != 0 or header[4] >= 32:
        return DiscardReason.NONZERO_RESERVED
    if header[4] not in TYPES:
        return DiscardReason.UNKNOWN_TYPE
    try:
        return read_body(header, header[4], profile)
    except Fault as fault:
        return fault.args[0]


def read_body(header, type_code, profile):
    pos = 9

    def octet():
        nonlocal pos
        if pos >= len(header):
            raise Fault(DiscardReason.TRUNCATED_PDU)
        pos += 1
        return header[pos - 1]

    def octet_string():
        n = octet()
        if pos + n > len(header):
            raise Fault(DiscardReason.TRUNCATED_PDU)
        return [octet() for _ in range(n)]

    def nsap():
        addr = octet_string()
        if not 1 <= len(addr) <= 20:
            raise Fault(DiscardReason.BAD_ADDRESS_LENGTH)
        if profile.atn and len(addr) != 20:
            raise Fault(DiscardReason.BAD_ADDRESS_LENGTH)
        if profile.atn and addr[0] != profile.afi:
            raise Fault(DiscardReason.BAD_ADDRESS_VALUE)
        return bytes(addr)

    fields = []
    cls, shapes = TYPES[type_code]
    for shape in shapes:
        if shape == "list":
            count = octet()
            if count == 0:
                raise Fault(DiscardReason.ZERO_ADDRESS_COUNT)
            fields.append(tuple(nsap() for _ in range(count)))
        elif shape == "snpa":
            snpa = octet_string()
            if len(snpa) != 6:
                raise Fault(DiscardReason.BAD_ADDRESS_LENGTH)
            fields.append(bytes(snpa))
        elif shape == "net" and header[pos:pos + 1] == [0]:
            octet()
            fields.append(None)
        else:
            fields.append(nsap())
    options, seen = [], []
    while pos < len(header):
        if pos + 2 > len(header):
            raise Fault(DiscardReason.TRUNCATED_PDU)
        code = octet()
        value = octet_string()
        if code not in OPTIONS:
            raise Fault(DiscardReason.BAD_OPTION_CODE)
        types, lengths, value_ok = OPTIONS[code]
        if type_code not in types:
            raise Fault(DiscardReason.OPTION_ILLEGAL_FOR_TYPE)
        if code in seen:
            raise Fault(DiscardReason.DUPLICATE_OPTION)
        seen.append(code)
        if len(value) not in lengths:
            raise Fault(DiscardReason.BAD_OPTION_LENGTH)
        if not value_ok(value):
            raise Fault(DiscardReason.BAD_OPTION_VALUE)
        options.append(Option(code, bytes(value)))
    return Pdu(cls(*fields), holding_time=header[5] * 256 + header[6],
               options=tuple(options), checksum=(header[7], header[8]))


def verdict(result) -> str:
    return f"OK {result.pdu_type.name}" if isinstance(result, Pdu) else str(result)


def atn_shaped(pdu: Pdu, rng: random.Random) -> Pdu:
    """`pdu` with every NSAP made 20 octets starting 0x47 or 0x39."""
    def nsap(addr):
        return bytes([rng.choice((0x47, 0x39))]) + (addr * 20)[:19] if addr else addr
    body = pdu.body
    if isinstance(body, EshBody):
        body = EshBody(tuple(nsap(a) for a in body.source_addresses))
    elif isinstance(body, (IshBody, AaBody)):
        body = type(body)(nsap(body.net))
    elif isinstance(body, RdBody):
        body = RdBody(nsap(body.destination), body.better_snpa, nsap(body.redirect_net))
    return Pdu(body, pdu.holding_time, pdu.options)


KINDS = ["valid", "mutated", "truncated", "extra-option", "random", "esis-shaped"]


def random_frame(rng: random.Random, kind: str) -> bytes:
    """Valid encodes, one-octet mutations and truncations of them, valid
    encodes with one more option of any code, and random octets."""
    if kind == "random":
        return rng.randbytes(rng.randint(0, 64))
    if kind == "esis-shaped":  # random octets past a plausible fixed part
        small = rng.random() < 0.5  # octets 0..3: zero counts, short fields
        tail = bytes(rng.randrange(4 if small else 256) for _ in range(rng.randint(0, 48)))
        return bytes([0x82, 9 + len(tail), 1, 0, rng.choice(list(TYPES)), 0, 30, 0, 0]) + tail
    pdu = random_pdu(rng)
    if rng.random() < 0.5:
        pdu = atn_shaped(pdu, rng)
    raw = encode(pdu)
    if kind == "extra-option" and len(raw) < 240:
        code = rng.choice([*OPTIONS, rng.randrange(256)])
        value = rng.randbytes(rng.choice([0, 1, 1, 2, 3]))
        raw = bytes([*raw[:1], len(raw) + 2 + len(value), *raw[2:], code, len(value)]) + value
    if rng.random() < 0.5:
        raw = generate_checksum(raw)
    if kind == "mutated":
        # Half the mutations hit the fixed part or the first field, with a
        # small value half the time: a type code, an address count or length.
        pos = rng.randrange(len(raw) if rng.random() < 0.5 else min(len(raw), 11))
        value = rng.randrange(256 if rng.random() < 0.5 else 16)
        raw = raw[:pos] + bytes([value]) + raw[pos + 1:]
        if rng.random() < 0.5 and pos not in (7, 8):
            raw = generate_checksum(raw)  # so the mutation reaches the rules past it
    elif kind == "truncated":
        raw = raw[:rng.randint(0, len(raw))]
    return raw


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), kind=st.sampled_from(KINDS))
def test_decode_matches_the_octet_at_a_time_reference(seed, kind):
    raw = random_frame(random.Random(seed), kind)
    for profile in PROFILES:
        want = reference_decode(raw, profile)
        got = decode(raw, profile)
        assert verdict(got) == verdict(want), profile
        assert got == want, profile


def test_the_frames_reach_every_verdict():
    # The generator covers the whole processing map, so agreement above is
    # agreement on every discard and every PDU type.
    rng = random.Random(3)
    seen = set()
    for _ in range(2000):
        raw = random_frame(rng, rng.choice(KINDS))
        seen |= {verdict(reference_decode(raw, profile)) for profile in PROFILES}
    wanted = {f"OK {name}" for name in ("ESH", "ISH", "RD", "RA", "AA")}
    wanted |= {str(reason) for reason in DiscardReason
               if reason is not DiscardReason.ROLE_MISMATCH}
    assert wanted - seen == set()


# Address rules at every boundary --------------------------------------------

def expected_fault(part: Part, addr: bytes, profile: ValidationProfile):
    """ISO 9542's rule for one address field, written out per shape."""
    if part is Part.SNPA:
        return None if len(addr) == 6 else DiscardReason.BAD_ADDRESS_LENGTH
    if part is Part.NSAP_OR_EMPTY and not addr:
        return None
    if not 1 <= len(addr) <= 20 or (profile.atn and len(addr) != 20):
        return DiscardReason.BAD_ADDRESS_LENGTH
    if profile.atn and addr[0] != profile.afi:
        return DiscardReason.BAD_ADDRESS_VALUE
    return None


@pytest.mark.parametrize("profile", PROFILES, ids=PROFILE_IDS)
@pytest.mark.parametrize("part", list(Part), ids=lambda part: part.name)
def test_read_parts_gives_address_fault_at_every_length(part, profile):
    for length in range(22):
        for first in (profile.afi, profile.afi ^ 0xFF):  # the AFI, or not
            addr = (bytes([first]) + bytes(range(1, 21)))[:length]
            buf = bytes([length]) + addr
            if part is Part.NSAP_LIST:
                buf = b"\x01" + buf
            fault = address_fault(part, addr, profile)
            assert fault is expected_fault(part, addr, profile), (length, first)
            got = read_parts(buf, 0, len(buf), (("field", part),), profile)
            if fault is None:
                value = (addr,) if part is Part.NSAP_LIST else addr or None
                assert got == ([value], len(buf)), (length, first)
            else:
                assert got is fault, (length, first)
            if part is Part.NSAP:
                assert validate_nsap(addr, profile) is fault, (length, first)
