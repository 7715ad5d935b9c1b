"""Shared test utilities: random valid PDU generation, ISO 8473 Annex C's
running sums one octet at a time, the exhaustive checksum-pair search
oracle built on them, and a check of RIB values' rendered lines. Like the
package, the suite uses only the standard library, pytest and hypothesis."""

from __future__ import annotations

import random

from esis.pdu import (AaBody, EshBody, IshBody, Option, OptionCode, Pdu,
                      PduType, RaBody, RdBody, encode)
from esis.rib import RedirectEntry

_BODY_KINDS = ("esh", "ish", "rd", "ra", "aa")

_LEGAL_OPTIONS = {
    "esh": [OptionCode.SECURITY, OptionCode.PRIORITY],
    "ish": [OptionCode.SECURITY, OptionCode.PRIORITY, OptionCode.ESCT],
    "rd": [OptionCode.SECURITY, OptionCode.PRIORITY,
           OptionCode.ADDRESS_MASK, OptionCode.SNPA_MASK],
    "ra": [OptionCode.SECURITY, OptionCode.PRIORITY],
    "aa": [OptionCode.SECURITY, OptionCode.PRIORITY],
}


def random_nsap(rng: random.Random, length: int | None = None) -> bytes:
    n = length if length is not None else rng.randint(1, 20)
    return bytes(rng.randrange(256) for _ in range(n))


def random_option(rng: random.Random, code: OptionCode) -> Option:
    if code is OptionCode.PRIORITY:
        return Option(int(code), bytes([rng.randint(0, 14)]))
    if code is OptionCode.ESCT:
        return Option(int(code), rng.randint(1, 0xFFFF).to_bytes(2, "big"))
    return Option(int(code), bytes(rng.randrange(256)
                                   for _ in range(rng.randint(1, 16))))


def random_pdu(rng: random.Random) -> Pdu:
    """A random PDU satisfying every encode invariant (total length <= 255)."""
    kind = rng.choice(_BODY_KINDS)
    if kind == "esh":
        body = EshBody(tuple(random_nsap(rng) for _ in range(rng.randint(1, 8))))
    elif kind == "ish":
        body = IshBody(random_nsap(rng))
    elif kind == "aa":
        body = AaBody(random_nsap(rng))
    elif kind == "rd":
        net = random_nsap(rng) if rng.random() < 0.5 else None
        body = RdBody(random_nsap(rng), bytes(rng.randrange(256) for _ in range(6)), net)
    else:
        body = RaBody()
    legal = _LEGAL_OPTIONS[kind]
    codes = rng.sample(legal, k=rng.randint(0, min(3, len(legal))))
    options = tuple(random_option(rng, c) for c in codes)
    return Pdu(body, holding_time=rng.randint(0, 0xFFFF), options=options)


def random_header(rng: random.Random, min_len: int = 9, max_len: int = 40) -> bytes:
    """Arbitrary octets shaped like a header (only the length matters)."""
    return bytes(rng.randrange(256) for _ in range(rng.randint(min_len, max_len)))


def iterative_sums(header: bytes) -> tuple[int, int]:
    """Annex C's c0 and c1, accumulated literally one octet at a time."""
    c0 = c1 = 0
    for b in header:
        c0 = (c0 + b) % 255
        c1 = (c1 + c0) % 255
    return c0, c1


def exhaustive_checksum_pairs(header: bytes) -> list[tuple[int, int]]:
    """Every (X, Y) in 1..255 x 1..255 that makes the header verify when
    written as octets 8 and 9 (offsets 7 and 8), in order.

    Both sums are linear in each octet, and an octet at offset i is added
    into c1 once for each of the L - i octets from it to the end of the
    L-octet header. So `iterative_sums` runs once, over the header with
    octets 8 and 9 set to 0, and each pair adds to its result: X adds X to
    c0 and (L - 7) * X to c1, and Y adds Y to c0 and (L - 8) * Y to c1.
    """
    c0, c1 = iterative_sums(header[:7] + b"\x00\x00" + header[9:])
    wx, wy = len(header) - 7, len(header) - 8
    return [(x, y) for x in range(1, 256) for y in range(1, 256)
            if (c0 + x + y) % 255 == 0 and (c1 + wx * x + wy * y) % 255 == 0]


def rendered_line(value) -> str:
    """A RIB value's dump line, rendered here from its other fields."""
    if type(value) is RedirectEntry:
        net = f" net {value.redirect_net.hex()}" if value.redirect_net else ""
        return (f"RD {value.destination.hex()} -> {value.better_snpa.hex()}{net} "
                f"expires {value.expiry}")
    return f"{value.kind.value} {value.address.hex()} via {value.snpa.hex()} expires {value.expiry}"


def misrendered_rib_values(sim) -> list:
    """Each value in the simulator's entry pool or in a node's three RIB
    tables whose `line` is not the one its other fields render."""
    values = list(sim.rib_entries.values())
    for name in sim.nodes:
        rib = sim.node(name).rib
        values += [*rib.es_neighbors.values(), *rib.is_neighbors.values(),
                   *rib.redirects.values()]
    return [v for v in values if v.line != rendered_line(v)]
