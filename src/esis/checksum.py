"""Fletcher mod-255 header checksum of ISO 8473 Annex C (generate / verify).

For an L-octet header h, s = sum(h), c0 = s and c1 = s + Q, both mod 255, where
Q = sum(h[i] * (L-1-i)). Both sums come from two readings of the header as an integer,
each one C-level pass with no loop over octets: N = int.from_bytes(h, "big") and
M = int.from_bytes(h, "little"). Since 256 = 1 + 255, 256**k = 1 + 255*k mod 255**2, so
N = s + 255*Q and M = s + 255*P mod 255**2, with P = sum(h[i] * i) and P + Q = (L-1)*s.
So c0 = N mod 255, and (N - M) mod 255**2 is 255 * D with D = Q - P = 2Q - (L-1)*s mod
255; as 2 * 128 = 1 mod 255, Q = 128 * (D + (L-1)*c0) mod 255. This holds at every
length, including the whole inputs past 255 octets that `esis decode` checksums.
"""

from __future__ import annotations

import enum

# 0-indexed positions of the two checksum octets in the header.
CSUM_POS = 7
MIN_HEADER = 9


class ChecksumVerdict(enum.Enum):
    VALID = "Valid"
    NOT_USED = "NotUsed"
    INVALID = "Invalid"


# verify_checksum returns these names: reading an Enum member off its class
# costs about 0.1 us on Python 3.11, a tenth of a whole verification.
_VALID, _NOT_USED, _INVALID = ChecksumVerdict


class HeaderTooShort(ValueError):
    pass


def _sums(header: bytes | bytearray) -> tuple[int, int]:
    n = int.from_bytes(header, "big")
    c0 = n % 255
    q = 128 * ((n - int.from_bytes(header, "little")) % 65025 // 255 + (len(header) - 1) * c0)
    return c0, (c0 + q) % 255


def verify_checksum(header: bytes) -> ChecksumVerdict:
    """Check the checksum octets of an encoded header.

    Both octets zero means the checksum function is not in use (accepted);
    exactly one zero octet is always invalid.
    """
    if len(header) < MIN_HEADER:
        raise HeaderTooShort(f"header length {len(header)} < {MIN_HEADER}")
    x, y = header[CSUM_POS], header[CSUM_POS + 1]
    if x == 0 and y == 0:
        return _NOT_USED
    if x == 0 or y == 0:
        return _INVALID
    # _sums(header) == (0, 0) in one step: c0 = 0 means 255 divides N, and
    # then Q = 128 * D, so c1 = 0 means D = 0, by the module docstring.
    n = int.from_bytes(header, "big")
    if n % 255 == 0 and (n - int.from_bytes(header, "little")) % 65025 == 0:
        return _VALID
    return _INVALID


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
    c0, c1 = _sums(out)
    # Octets from the first checksum octet (1-indexed CSUM_POS + 1) to the end.
    k = len(out) - CSUM_POS
    x = ((k - 1) * c0 - c1) % 255
    y = (c1 - k * c0) % 255
    out[CSUM_POS] = x or 255
    out[CSUM_POS + 1] = y or 255
    return bytes(out)
