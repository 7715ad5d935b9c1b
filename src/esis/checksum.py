"""Fletcher mod-255 header checksum (generate / verify)."""

from __future__ import annotations

import enum
from itertools import accumulate

# 0-indexed positions of the two checksum octets in the header.
CSUM_POS = 7
MIN_HEADER = 9


class ChecksumVerdict(enum.Enum):
    VALID = "Valid"
    NOT_USED = "NotUsed"
    INVALID = "Invalid"


class HeaderTooShort(ValueError):
    pass


def _sums(header: bytes) -> tuple[int, int]:
    # ISO 8473 Annex C: c1 sums the running c0 after each octet. Reducing
    # mod 255 once at the end gives the same residues.
    return sum(header) % 255, sum(accumulate(header)) % 255


def verify_checksum(header: bytes) -> ChecksumVerdict:
    """Check the checksum octets of an encoded header.

    Both octets zero means the checksum function is not in use (accepted);
    exactly one zero octet is always invalid.
    """
    if len(header) < MIN_HEADER:
        raise HeaderTooShort(f"header length {len(header)} < {MIN_HEADER}")
    x, y = header[CSUM_POS], header[CSUM_POS + 1]
    if x == 0 and y == 0:
        return ChecksumVerdict.NOT_USED
    if x == 0 or y == 0:
        return ChecksumVerdict.INVALID
    c0, c1 = _sums(header)
    if c0 == 0 and c1 == 0:
        return ChecksumVerdict.VALID
    return ChecksumVerdict.INVALID


def generate_checksum(header: bytes) -> bytes:
    """Return the header with its two checksum octets filled in.

    Values are chosen so re-running the accumulation over the whole header
    yields c0 == c1 == 0 (mod 255); a zero result is stored as 255, which is
    congruent mod 255 but avoids the reserved not-in-use encoding.
    """
    if len(header) < MIN_HEADER:
        raise HeaderTooShort(f"header length {len(header)} < {MIN_HEADER}")
    out = bytearray(header)
    out[CSUM_POS] = 0
    out[CSUM_POS + 1] = 0
    c0, c1 = _sums(bytes(out))
    length = len(out)
    # 1-indexed position of the first checksum octet.
    n = CSUM_POS + 1
    x = ((length - n) * c0 - c1) % 255
    y = (c1 - (length - n + 1) * c0) % 255
    out[CSUM_POS] = x or 255
    out[CSUM_POS + 1] = y or 255
    return bytes(out)
