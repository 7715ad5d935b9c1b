import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esis.checksum import generate_checksum
from esis.pdu import (ATN, AaBody, DiscardReason, EshBody, InvariantViolation,
                      IshBody, LENIENT, Option, OptionCode, Pdu, PduType, RaBody,
                      RdBody, ValidationProfile, decode, encode, validate_nsap)
from helpers import random_pdu

NSAP = bytes(range(20))
SNPA = bytes.fromhex("020000000099")


def checksummed(pdu: Pdu) -> bytes:
    return generate_checksum(encode(pdu))


def patched(header: bytes, pos: int, value: int) -> bytes:
    """Overwrite one octet and regenerate the checksum."""
    return generate_checksum(header[:pos] + bytes([value]) + header[pos + 1:])


# Encoding ------------------------------------------------------------------

def test_esh_sizes():
    h = encode(Pdu(EshBody((NSAP,)), holding_time=120))
    assert len(h) == 31 and h[1] == 31
    assert h[0] == 0x82 and h[2] == 1 and h[3] == 0
    assert h[4] == PduType.ESH
    assert h[5:7] == (120).to_bytes(2, "big")


def test_ra_is_fixed_part_only():
    h = encode(Pdu(RaBody()))
    assert len(h) == 9 and h[1] == 9


def test_ish_with_esct_size():
    h = encode(Pdu(IshBody(NSAP), options=(Option(OptionCode.ESCT, b"\x00\x1e"),)))
    assert len(h) == 34 and h[1] == 34


def test_rd_with_empty_net():
    h = encode(Pdu(RdBody(NSAP, SNPA, None)))
    assert len(h) == 9 + 21 + 7 + 1


@pytest.mark.parametrize("pdu, msg", [
    (Pdu(EshBody(())), "address count"),
    (Pdu(EshBody((b"",))), "length"),
    (Pdu(EshBody((bytes(21),))), "length"),
    (Pdu(RdBody(NSAP, b"\x01\x02", None)), "SNPA"),
    (Pdu(IshBody(NSAP), holding_time=0x10000), "holding"),
    (Pdu(RaBody(), options=(Option(OptionCode.ESCT, b"\x00\x1e"),)), "not legal"),
    (Pdu(RaBody(), options=(Option(0x33, b"\x01"),)), "unknown option"),
    (Pdu(RaBody(), options=(Option(OptionCode.PRIORITY, b"\x0f"),)), "0..14"),
    (Pdu(RaBody(), options=(Option(OptionCode.PRIORITY, b"\x01"),
                            Option(OptionCode.PRIORITY, b"\x01"))), "duplicate"),
    (Pdu(EshBody(tuple(bytes([i]) * 20 for i in range(12)))), "exceeds 255"),
    (Pdu(EshBody((b"\x49",) * 256)), "too many source addresses"),
])
def test_encode_invariant_violations(pdu, msg):
    with pytest.raises(InvariantViolation, match=msg):
        encode(pdu)


# Decoding pipeline ---------------------------------------------------------

def test_esh_whose_header_ends_before_its_count_octet_is_truncated():
    # A checksummed ESH fixed part whose length indicator leaves no count octet.
    header = generate_checksum(bytes([0x82, 9, 1, 0, PduType.ESH, 0, 20, 0, 0]))
    assert decode(header) is DiscardReason.TRUNCATED_PDU


def test_roundtrip_simple():
    p = Pdu(EshBody((NSAP,)), holding_time=300,
            options=(Option(OptionCode.PRIORITY, b"\x05"),))
    out = decode(checksummed(p))
    assert isinstance(out, Pdu)
    assert out.without_checksum() == p


def test_clnp_nlpid_is_not_es_is():
    h = checksummed(Pdu(RaBody()))
    out = decode(b"\x81" + h[1:])
    assert out is DiscardReason.NOT_ES_IS


def test_wrong_version():
    h = patched(checksummed(Pdu(RaBody())), 2, 2)
    assert decode(h) is DiscardReason.WRONG_VERSION


def test_wrong_version_wins_over_bad_checksum():
    h = checksummed(Pdu(RaBody()))
    h = h[:2] + b"\x02" + h[3:]  # version wrong, checksum now stale too
    assert decode(h) is DiscardReason.WRONG_VERSION


def test_checksum_error():
    h = checksummed(Pdu(EshBody((NSAP,)), holding_time=60))
    mutated = h[:5] + bytes([h[5] ^ 0x01]) + h[6:]
    assert decode(mutated) is DiscardReason.CHECKSUM_ERROR


def test_checksum_not_used_is_accepted():
    h = encode(Pdu(EshBody((NSAP,)), holding_time=60))
    out = decode(h)
    assert isinstance(out, Pdu)


def test_zero_address_count():
    h = patched(checksummed(Pdu(EshBody((NSAP,)))), 9, 0)
    assert decode(h) is DiscardReason.ZERO_ADDRESS_COUNT


def test_duplicate_option():
    p = Pdu(EshBody((NSAP,)), options=(Option(OptionCode.PRIORITY, b"\x05"),))
    h = encode(p)
    h = h[:1] + bytes([h[1] + 3]) + h[2:] + bytes([OptionCode.PRIORITY, 1, 5])
    assert decode(generate_checksum(h)) is DiscardReason.DUPLICATE_OPTION


def test_trailing_octets_ignored():
    h = checksummed(Pdu(EshBody((NSAP,)), holding_time=60))
    out = decode(h + b"\xde\xad\xbe\xef")
    assert isinstance(out, Pdu)


def test_length_indicator_beyond_frame():
    h = checksummed(Pdu(RaBody()))
    h = h[:1] + b"\xf0" + h[2:]
    assert decode(h) is DiscardReason.BAD_HEADER_LENGTH


def test_truncated():
    assert decode(b"") is DiscardReason.TRUNCATED_PDU
    assert decode(b"\x82\x09\x01") is DiscardReason.TRUNCATED_PDU


def test_atn_profile():
    atn_addr = b"\x47" + bytes(19)
    assert validate_nsap(atn_addr, ATN) is None
    assert validate_nsap(bytes(19), ATN) is DiscardReason.BAD_ADDRESS_LENGTH
    assert validate_nsap(b"\x48" + bytes(19), ATN) is DiscardReason.BAD_ADDRESS_VALUE
    assert validate_nsap(b"", LENIENT) is DiscardReason.BAD_ADDRESS_LENGTH
    assert validate_nsap(bytes(21), LENIENT) is DiscardReason.BAD_ADDRESS_LENGTH
    assert validate_nsap(b"\x00", LENIENT) is None

    h = checksummed(Pdu(EshBody((bytes(20),))))
    assert decode(h, ATN) is DiscardReason.BAD_ADDRESS_VALUE
    assert isinstance(decode(checksummed(Pdu(EshBody((atn_addr,)))), ATN), Pdu)


def test_esct_zero_is_bad_value():
    p = Pdu(IshBody(NSAP))
    h = encode(p)
    h = h[:1] + bytes([h[1] + 4]) + h[2:] + bytes([OptionCode.ESCT, 2, 0, 0])
    assert decode(generate_checksum(h)) is DiscardReason.BAD_OPTION_VALUE


def test_unknown_option_code():
    h = encode(Pdu(RaBody()))
    h = h[:1] + bytes([h[1] + 3]) + h[2:] + bytes([0x33, 1, 0])
    assert decode(generate_checksum(h)) is DiscardReason.BAD_OPTION_CODE


# Discard vocabulary ----------------------------------------------------------

# The text each DISCARD log line shows, in processing-map order.
DISCARD_TEXTS = [
    "NotEsIs", "WrongVersion", "ChecksumError",
    "ProtocolError(BadHeaderLength)", "ProtocolError(NonzeroReserved)",
    "ProtocolError(UnknownType)", "ProtocolError(ZeroAddressCount)",
    "ProtocolError(BadAddressLength)", "ProtocolError(BadAddressValue)",
    "ProtocolError(BadOptionCode)", "ProtocolError(BadOptionLength)",
    "ProtocolError(BadOptionValue)", "ProtocolError(DuplicateOption)",
    "ProtocolError(OptionIllegalForType)", "ProtocolError(TruncatedPdu)",
    "ProtocolError(RoleMismatch)",
]


def test_discard_reasons_are_the_log_texts_in_processing_order():
    assert [member.value for member in DiscardReason] == DISCARD_TEXTS


@pytest.mark.parametrize("member", list(DiscardReason), ids=lambda m: m.name)
def test_a_discard_reason_is_a_str_that_formats_as_its_value(member):
    assert isinstance(member, str)
    assert str(member) == f"{member}" == format(member, "") == member.value


# Properties ----------------------------------------------------------------

def test_random_roundtrip_bulk():
    rng = random.Random(42)
    for _ in range(300):
        p = random_pdu(rng)
        out = decode(checksummed(p))
        assert isinstance(out, Pdu), out
        assert out.without_checksum() == p


@given(st.binary(max_size=4096))
@settings(max_examples=500)
def test_decode_total_on_arbitrary_input(raw):
    out = decode(raw)
    assert isinstance(out, (Pdu, DiscardReason))


# Codec values ----------------------------------------------------------------

def codec_values() -> list:
    rd = RdBody(NSAP, SNPA, NSAP[:4])
    opt = Option(int(OptionCode.PRIORITY), b"\x03")
    return [Pdu(rd, holding_time=9, options=(opt,)), EshBody((NSAP,)), IshBody(NSAP), rd,
            RaBody(), AaBody(NSAP), opt]


@pytest.mark.parametrize("value", codec_values(), ids=lambda v: type(v).__name__)
def test_codec_values_are_frozen_and_slotted(value):
    assert not hasattr(value, "__dict__")
    for name in value.__dataclass_fields__:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))


def test_replace_gives_an_equal_new_pdu():
    p = Pdu(EshBody((NSAP,)), holding_time=30)
    q = replace(p, checksum=(0, 0))
    assert q == p and q is not p
    assert p.without_checksum() == p


def test_equal_pdus_hash_equal():
    opt = Option(int(OptionCode.SECURITY), b"ab")
    raw = checksummed(Pdu(RdBody(NSAP, SNPA), options=(opt,)))
    first, second = decode(raw), decode(raw)
    assert first is not second and first == second
    assert hash(first) == hash(second)


@pytest.mark.parametrize("octets", [bytes, bytearray, memoryview], ids=lambda t: t.__name__)
def test_decode_reads_any_bytes_like_frame_into_hashable_bytes(octets):
    rng = random.Random(23)
    for _ in range(60):
        raw = checksummed(random_pdu(rng))
        got = decode(octets(raw))
        assert got == decode(raw) and hash(got) == hash(decode(raw))
        body = got.body
        fields = [getattr(body, name) for name in body.__dataclass_fields__]
        if isinstance(body, EshBody):
            fields = list(body.source_addresses)
        fields += [opt.value for opt in got.options]
        assert {type(field) for field in fields} <= {bytes, type(None)}
