"""Shared test utilities: random valid PDU generation, ISO 8473 Annex C's
running sums one octet at a time, the exhaustive checksum-pair search
oracle built on them, a check of RIB values' rendered lines, a node's
receive step as the simulator takes it, and the RIB dump rebuilt from a
log alone, whose lines are checked to come in the order the simulator's
steps log them. Like the package, the suite uses only the standard
library, pytest and hypothesis."""

from __future__ import annotations

import random

from esis.engine import ALL_ES, ALL_IS, decode_payload
from esis.pdu import AaBody, EshBody, IshBody, Option, OptionCode, Pdu, RaBody, RdBody
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


def receive(node, frame, now: int) -> list:
    """`node`'s events for `frame` at `now`, as the simulator hands it over:
    `Node.handle_frame` of the payload's decode under the node's profile."""
    return node.handle_frame(decode_payload(frame.payload, node.config.validation_profile),
                             frame.source, now)


def _expiry(line: str) -> int:
    return int(line.rsplit(" ", 1)[1])


def replayed_ribs(log: list[str], names: list[str], until: int) -> list[str]:
    """`Simulator.dump_ribs(until)` rebuilt from the log lines alone; `names`,
    the scenario's nodes in order, only orders the sections.

    Each `RIB` line upserts its entry into that node's table for its kind
    (ES, IS or RD), keyed on the address or destination; a replaced key
    keeps its place. A `TIMER` line is a fire of that node's configuration
    timer, which first dropped the node's entries whose expiry is <= t.
    This assumes no `TIMER` line comes from an ESCT option, which re-arms
    the timer without a flush: no scenario reaches one, as no node sends an
    option. A dump lists each node's live entries, expiry past `until`: its
    ES, IS and RD tables, each in insertion order.
    """
    tables = {name: {"ES": {}, "IS": {}, "RD": {}} for name in names}
    for line in log:
        t, node, event, details = line.split(" ", 3)
        if event == "RIB":
            kind, key, _ = details.split(" ", 2)
            tables[node[5:]][kind][key] = details
        elif event == "TIMER":
            now = int(t[2:])
            for table in tables[node[5:]].values():
                for key in [k for k, entry in table.items() if _expiry(entry) <= now]:
                    del table[key]
    dump = []
    for name in names:
        dump.append(f"-- rib {name} --")
        dump += [entry for table in tables[name].values() for entry in table.values()
                 if _expiry(entry) > until]
    return dump


_HELLO_GROUPS = (ALL_ES.hex(), ALL_IS.hex())  # where a timer fire sends its hellos


def misordered_lines(log: list[str]) -> list[str]:
    """Each place where `log` leaves the order the simulator's steps log in.

    A step is a reception, a timer fire or a `sendclnp`, all of one node at
    one time. A reception is a RECV line, then what the node did, with no
    other node's line between: ASSIGN, DISCARD, REDIRECT, RIB and SEND
    lines, and a TIMER for an ESCT option. A timer fire is SEND lines to the
    all-ES or all-IS group, closed by its TIMER line. A `sendclnp` is one
    SEND to any other destination; this assumes no node's SNPA is a group
    address, as a send goes to the SNPA a frame came from or to broadcast.
    """
    found = []
    step = None  # (kind, t, node) of the step the last line belongs to
    for line in log:
        t, node, event, details = line.split(" ", 3)
        hello = event == "SEND" and details[4:16] in _HELLO_GROUPS
        if step is not None and step[0] == "FIRE" and (
                step[1:] != (t, node) or not (hello or event == "TIMER")):
            found.append(f"{step[1]} {step[2]}: timer fire not closed by its TIMER")
        if event == "RECV":
            step = ("RECV", t, node)
        elif step == ("RECV", t, node):
            continue
        elif event == "SEND":
            step = ("FIRE" if hello else "SEND", t, node)
        elif event == "TIMER" and step == ("FIRE", t, node):
            step = None
        else:
            found.append(f"{line}: not part of a RECV of its node at its time"
                         + (" or a timer fire" if event == "TIMER" else ""))
            step = None
    if step is not None and step[0] == "FIRE":
        found.append(f"{step[1]} {step[2]}: timer fire not closed by its TIMER")
    return found
