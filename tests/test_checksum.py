import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esis.checksum import (ChecksumVerdict, HeaderTooShort, _sums, generate_checksum,
                           verify_checksum)
from helpers import exhaustive_checksum_pairs, iterative_sums, random_header


def test_not_used_when_both_zero():
    h = bytes([0x82, 9, 1, 0, 8, 0, 0, 0, 0])
    assert verify_checksum(h) is ChecksumVerdict.NOT_USED


def test_exactly_one_zero_is_invalid():
    h = generate_checksum(bytes([0x82, 9, 1, 0, 8, 0, 0, 0, 0]))
    assert verify_checksum(h[:8] + b"\x00") is ChecksumVerdict.INVALID
    assert verify_checksum(h[:7] + b"\x00" + h[8:]) is ChecksumVerdict.INVALID


def test_too_short_raises():
    with pytest.raises(HeaderTooShort):
        verify_checksum(b"\x82" * 8)
    with pytest.raises(HeaderTooShort):
        generate_checksum(b"")


def test_generated_octets_never_zero():
    rng = random.Random(5)
    for _ in range(200):
        h = generate_checksum(random_header(rng))
        assert h[7] != 0 and h[8] != 0


@given(st.binary(min_size=9, max_size=255))
@settings(max_examples=300)
def test_soundness_all_lengths(header):
    out = generate_checksum(header)
    assert verify_checksum(out) is ChecksumVerdict.VALID
    assert out[:7] == header[:7] and out[9:] == header[9:]


@given(st.binary(min_size=9, max_size=255))
@settings(max_examples=300)
def test_sums_match_iterative_accumulation(header):
    assert _sums(header) == iterative_sums(header)


def test_valid_means_iterative_sums_are_zero():
    rng = random.Random(6)
    for _ in range(100):
        h = generate_checksum(random_header(rng))
        assert iterative_sums(h) == (0, 0)


def test_closed_form_matches_exhaustive_search():
    rng = random.Random(7)
    for _ in range(50):
        h = random_header(rng, max_len=24)
        pairs = exhaustive_checksum_pairs(h)
        out = generate_checksum(h)
        assert pairs == [(out[7], out[8])]


def test_degenerate_all_zero_payload():
    # All octets zero except the NLPID; degenerate but legal input.
    h = bytes([0x82]) + bytes(14)
    out = generate_checksum(h)
    assert verify_checksum(out) is ChecksumVerdict.VALID
    assert exhaustive_checksum_pairs(h) == [(out[7], out[8])]


def test_single_octet_corruption_detected():
    rng = random.Random(8)
    h = generate_checksum(random_header(rng, max_len=20))
    for pos in range(len(h)):
        old = h[pos]
        new = (old + 1) % 256
        if {old, new} == {0x00, 0xFF}:
            continue
        mutated = h[:pos] + bytes([new]) + h[pos + 1:]
        assert verify_checksum(mutated) is ChecksumVerdict.INVALID, pos


def test_00_ff_alias_passes():
    # 0 and 255 are congruent mod 255, the documented blind spot.
    rng = random.Random(9)
    h = generate_checksum(bytes([0x82, 20, 1, 0, 8, 0x00, 0xFF, 0, 0]) + bytes(5)
                          + b"\xff" + bytes(5))
    assert h[5] == 0x00 and h[6] == 0xFF
    swapped = h[:5] + bytes([0xFF, 0x00]) + h[7:]
    assert verify_checksum(swapped) is ChecksumVerdict.VALID


def wrap_headers(length: int) -> list[bytes]:
    # The headers whose octet sum reaches 65,025 and wraps the residue. Octets
    # 00 and ff are both 0 mod 255, so the first four sum to (0, 0); the last
    # two, one octet off all-ff, do not.
    half = length // 2
    near = b"\xff" * max(length - 1, 0)
    return [bytes(length), b"\xff" * length, b"\xff" * half + bytes(length - half),
            bytes(0xFF * (i % 2) for i in range(length)),
            near + b"\xfe"[:length], b"\x01"[:length] + near]


def test_sums_closed_form_at_every_length():
    for length in range(256):
        for header in wrap_headers(length):
            assert _sums(header) == iterative_sums(header), (length, header[:2])


def test_sums_and_generated_checksums_hold_past_255_octets():
    # `esis decode` checksums a whole input when its length indicator is
    # unusable, so a header may be longer than any length indicator allows.
    for length in [*range(256, 601), 4096]:
        for header in wrap_headers(length):
            assert _sums(header) == iterative_sums(header), (length, header[:2])
            assert verify_checksum(generate_checksum(header)) is ChecksumVerdict.VALID, length


def test_sums_read_a_bytearray_as_its_bytes():
    rng = random.Random(10)
    for length in range(0, 256, 17):
        header = bytes(rng.randrange(256) for _ in range(length))
        assert _sums(bytearray(header)) == _sums(header)


def test_all_ff_headers_get_a_valid_checksum():
    for length in range(9, 256):
        assert verify_checksum(generate_checksum(b"\xff" * length)) is ChecksumVerdict.VALID


def two_sum_verdict(header: bytes) -> ChecksumVerdict:
    """verify_checksum as both sums define it: valid iff _sums gives (0, 0)."""
    x, y = header[7], header[8]
    if x == 0 and y == 0:
        return ChecksumVerdict.NOT_USED
    if x == 0 or y == 0 or _sums(header) != (0, 0):
        return ChecksumVerdict.INVALID
    return ChecksumVerdict.VALID


def test_one_step_validity_agrees_with_both_sums_at_every_length():
    rng = random.Random(12)
    for length in range(9, 256):
        valid = generate_checksum(random_header(rng, length, length))
        headers = [valid, generate_checksum(bytes(length)), bytes(length),
                   valid[:7] + b"\x00\x00" + valid[9:],  # zero checksum: not in use
                   valid[:7] + b"\x00" + valid[8:], valid[:8] + b"\x00" + valid[9:]]
        for pos in [7, 8, *rng.sample(range(length), min(length, 8))]:
            new = (valid[pos] + rng.randrange(1, 256)) % 256
            headers.append(valid[:pos] + bytes([new]) + valid[pos + 1:])
        # A swap keeps the plain sum, so only the weighted half can fail.
        pos = rng.randrange(length - 1)
        headers.append(valid[:pos] + valid[pos + 1:pos + 2] + valid[pos:pos + 1] + valid[pos + 2:])
        for header in headers:
            assert verify_checksum(header) is two_sum_verdict(header), (length, header.hex())
