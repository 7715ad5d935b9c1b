"""Per-node protocol engine: hello emission, input dispatch, redirects.

An engine is a pure state machine: timer fires and received frames go in,
EngineEvent values come out, each the value it reports: a RIB change is the
RIB value the table now holds, a discard its `DiscardReason`. All I/O is
the simulator's. Input is two steps: `decode_payload` reads a payload under
a validation profile, and `Node.handle_pdu` acts on what it read, so one
decode can serve every receiver that shares the profile.
`Node.handle_frame` does both. A stub CLNP's addresses are read by
`pdu.read_parts`, as ES-IS ones are. `handle_pdu` finds the handler in one
lookup, in its role's table (`_ES_INPUT`, `_IS_INPUT`), keyed on the body's
type for a `Pdu`, else on the type of what was read.
Every frame out is a `Frame`, the event itself: hellos, replies and RDs
from `Node._send`, the stub from `clnp_frame`, and the IS forward. `_send`
is keyed on what fixes a PDU's octets: its body class, holding time and
fields. It encodes and checksums each distinct PDU once per node, and a
repeated hello or reply builds no `Pdu`, only its frame.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from . import pdu as pdu_mod
from .checksum import generate_checksum
from .pdu import (AaBody, DiscardReason, EshBody, FIXED_LEN, IshBody, LENIENT, NLPID_CLNP,
                  NLPID_ESIS, OptionCode, Part, Pdu, RaBody, RdBody, SNPA_LEN,
                  ValidationProfile, address_fault)
from .rib import EntryKind, EntryPool, InsertResult, RedirectEntry, Rib, RibEntry

ALL_ES = bytes.fromhex("09002b000004")
ALL_IS = bytes.fromhex("09002b000005")
BROADCAST = b"\xff" * 6
_GROUP_ADDRESSES = (BROADCAST, ALL_ES, ALL_IS)


class Role(enum.Enum):
    END_SYSTEM = "es"
    INTERMEDIATE_SYSTEM = "is"


# Every value built per frame or event, here or in the RIB, is a NamedTuple:
# hashed and compared in C, and built in C by `_new`, past each class's
# Python-level __new__.
_new = tuple.__new__


class Frame(NamedTuple):
    destination: bytes
    source: bytes
    payload: bytes


class MinimalClnpPdu(NamedTuple):
    source: bytes
    destination: bytes


def encode_clnp(source: bytes, destination: bytes) -> bytes:
    """Two-address CLNP stub: NLPID, {len, src}, {len, dst}. An address of
    256 octets or more raises OverflowError."""
    return b"%c%c%b%c%b" % (NLPID_CLNP, len(source), source, len(destination), destination)


_CLNP_PARTS = (("source", Part.NSAP), ("destination", Part.NSAP))


def decode_clnp(payload: bytes) -> MinimalClnpPdu | None:
    """The stub in `payload`, or None for a wrong NLPID, a field past the end
    or an address outside 1..20 octets. ATN rules are for ES-IS decode only."""
    if not payload or payload[0] != NLPID_CLNP:
        return None
    read = pdu_mod.read_parts(payload, 1, len(payload), _CLNP_PARTS, LENIENT)
    return None if type(read) is DiscardReason else _new(MinimalClnpPdu, read[0])


def decode_payload(payload: bytes, profile: ValidationProfile
                   ) -> Pdu | DiscardReason | MinimalClnpPdu | None:
    """An ES-IS PDU or its discard reason, a stub CLNP PDU, or None to ignore."""
    if payload and payload[0] == NLPID_ESIS:
        return pdu_mod.decode(payload, profile)
    return decode_clnp(payload)


@dataclass(frozen=True, slots=True)
class ForwardingEntry:
    """A static route of an IS. It refuses a prefix that could never match,
    one neither empty (a default route) nor of 1..20 octets, and what an RD
    could not carry: an SNPA not of 6 octets, or a NET neither empty nor of
    1..20 octets."""
    prefix: bytes
    next_is_net: bytes
    next_is_snpa: bytes

    def __post_init__(self) -> None:
        if address_fault(_NSAP_OR_EMPTY, self.prefix, LENIENT) is not None:
            raise ValueError(f"a forwarding prefix must be {_NSAP_OR_EMPTY.value}, "
                             f"got {self.prefix.hex()!r}")
        if len(self.next_is_snpa) != SNPA_LEN:
            raise ValueError(f"a forwarding SNPA must be {SNPA_LEN} octets, "
                             f"got {self.next_is_snpa.hex()!r}")
        if address_fault(_NSAP_OR_EMPTY, self.next_is_net, LENIENT) is not None:
            raise ValueError(f"a forwarding NET must be {_NSAP_OR_EMPTY.value}, "
                             f"got {self.next_is_net.hex()!r}")


@dataclass
class NodeConfig:
    role: Role
    snpa: bytes
    local_nsaps: tuple[bytes, ...] = ()
    local_net: bytes | None = None
    configuration_timer: int = 30
    holding_multiplier: int = 2
    validation_profile: ValidationProfile = LENIENT
    forwarding_table: tuple[ForwardingEntry, ...] = ()


# Engine events -------------------------------------------------------------

class AddressAssigned(NamedTuple):
    net: bytes


class RedirectIssued(NamedTuple):
    destination: bytes
    snpa: bytes


class TimerSet(NamedTuple):
    at: int


EngineEvent = (Frame | RibEntry | RedirectEntry | DiscardReason | AddressAssigned
               | RedirectIssued | TimerSet)

_ROLE_MISMATCH = DiscardReason.ROLE_MISMATCH
_ESCT = OptionCode.ESCT
_NSAP, _NSAP_OR_EMPTY = Part.NSAP, Part.NSAP_OR_EMPTY
_INTERMEDIATE_SYSTEM = Role.INTERMEDIATE_SYSTEM
_ES_NEIGHBOR, _IS_NEIGHBOR = EntryKind
_INSERTED = InsertResult.INSERTED


class Node:
    __slots__ = ("config", "rib", "ct", "acquired_net", "_payloads", "_on_input")

    def __init__(self, config: NodeConfig, pool: EntryPool | None = None) -> None:
        if config.role is _INTERMEDIATE_SYSTEM and config.local_net is None:
            raise ValueError("an intermediate system needs a local NET")
        if config.holding_multiplier < 2:
            raise ValueError("holding multiplier must be ≥ 2")
        if config.configuration_timer <= 0:
            raise ValueError("configuration timer must be > 0")
        # A node must be able to send its hello, so its addresses pass the
        # codec's rules and its ESH (the fixed part, a count octet, then
        # {length, NSAP} each) fits the length indicator's 255 octets.
        if len(config.snpa) != SNPA_LEN:
            raise ValueError(f"snpa must be {SNPA_LEN} octets, got {config.snpa.hex()!r}")
        nsaps = config.local_nsaps
        for addr in nsaps if config.local_net is None else (*nsaps, config.local_net):
            if address_fault(_NSAP, addr, LENIENT) is not None:
                raise ValueError(f"a local NSAP or NET must be {_NSAP.value}, got {addr.hex()!r}")
        esh_length = FIXED_LEN + 1 + len(nsaps) + sum(map(len, nsaps))
        if esh_length > 255:
            raise ValueError(f"an ESH of {len(nsaps)} NSAPs would be {esh_length} octets, "
                             "over 255")
        self.config = config
        self.rib = Rib(pool)
        self.ct = config.configuration_timer
        self.acquired_net: bytes | None = None
        self._payloads: dict[tuple, bytes] = {}  # see _send
        self._on_input = _IS_INPUT if config.role is _INTERMEDIATE_SYSTEM else _ES_INPUT

    @property
    def holding_time(self) -> int:
        return min(self.config.holding_multiplier * self.ct, 0xFFFF)

    def local_addresses(self) -> tuple[bytes, ...]:
        if self.config.local_nsaps:
            return self.config.local_nsaps
        if self.acquired_net is not None:
            return (self.acquired_net,)
        return ()

    def listens_to(self) -> tuple[bytes, ...]:
        """The destination SNPAs this node receives: broadcast, its role's group, its own."""
        group = ALL_IS if self.config.role is _INTERMEDIATE_SYSTEM else ALL_ES
        # An SNPA equal to a group address joins no group: membership follows role.
        unicast = () if self.config.snpa in _GROUP_ADDRESSES else (self.config.snpa,)
        return (BROADCAST, group, *unicast)

    # Output path ------------------------------------------------------

    def clnp_frame(self, source: bytes, destination: bytes, now: int) -> Frame:
        """A stub CLNP frame to the RIB's next hop, or broadcast when it has none."""
        snpa = self.rib.next_hop(destination, now).snpa
        return _new(Frame, (snpa if snpa is not None else BROADCAST, self.config.snpa,
                            encode_clnp(source, destination)))

    def _send(self, destination: bytes, holding_time: int, body_cls: type,
              *fields: object) -> Frame:
        """A frame to `destination` of `Pdu(body_cls(*fields), holding_time)`.

        The body class, holding time and fields fix the octets, so they are
        the key: nothing is ever invalidated, the PDU is encoded and
        checksummed only on a miss, and a hit builds no `Pdu`. The class
        keeps an ISH and an AA of one NET apart. The dict grows with the
        distinct PDUs this node emits: its hello variants, one AA per
        requester and one RD per destination and next hop.
        """
        key = body_cls, holding_time, fields
        payload = self._payloads.get(key)
        if payload is None:
            p = Pdu(body_cls(*fields), holding_time)
            payload = self._payloads[key] = generate_checksum(pdu_mod.encode(p))
        return _new(Frame, (destination, self.config.snpa, payload))

    def on_config_timer(self, now: int) -> list[EngineEvent]:
        """Periodic hello: ESH or ISH, or an RA while addressless."""
        self.rib.flush_expired(now)
        if self.config.role is _INTERMEDIATE_SYSTEM:
            events: list[EngineEvent] = [
                self._send(ALL_ES, self.holding_time, IshBody, self.config.local_net)]
        elif addresses := self.local_addresses():
            events = [self._send(ALL_IS, self.holding_time, EshBody, addresses)]
            if not self.rib.has_live_is(now):
                events.append(self._send(ALL_ES, self.holding_time, EshBody, addresses))
        else:
            events = [self._send(ALL_IS, 0, RaBody)]
        events.append(_new(TimerSet, (now + self.ct,)))
        return events

    # Input path -------------------------------------------------------

    def handle_frame(self, frame: Frame, now: int) -> list[EngineEvent]:
        """`handle_pdu` of the decoded payload; ignored unless from a 6-octet
        SNPA. Source and payload are read as `bytes`, whose slices hash."""
        source = bytes(frame.source)
        if len(source) != SNPA_LEN:
            return []
        payload = bytes(frame.payload)
        return self.handle_pdu(decode_payload(payload, self.config.validation_profile),
                               source, now)

    def handle_pdu(self, decoded: Pdu | DiscardReason | MinimalClnpPdu | None,
                   source_snpa: bytes, now: int) -> list[EngineEvent]:
        """Act on `decode_payload`'s result under this node's profile for a
        frame from `source_snpa`, which must be 6 octets; a frame from this
        node's own SNPA is ignored. The handler is one lookup in the input
        table of this node's role, `_ES_INPUT` or `_IS_INPUT`."""
        if source_snpa == self.config.snpa or decoded is None:
            return []
        kind = type(decoded)
        return self._on_input[type(decoded.body) if kind is Pdu else kind](
            self, decoded, source_snpa, now)

    def handle_esh(self, p: Pdu, source_snpa: bytes, now: int) -> list[EngineEvent]:
        """Record the sender's NSAPs; an IS answers a new ES with one ISH."""
        body: EshBody = p.body
        events: list[EngineEvent] = []
        newly_available = False
        table = self.rib.es_neighbors
        for addr in body.source_addresses:
            result = self.rib.insert_entry(_ES_NEIGHBOR, addr,
                                           source_snpa, p.holding_time, now)
            newly_available |= result is _INSERTED
            events.append(table[addr])
        if newly_available and self.config.role is _INTERMEDIATE_SYSTEM:
            events.append(self._send(source_snpa, self.holding_time, IshBody,
                                     self.config.local_net))
        return events

    def handle_ish(self, p: Pdu, source_snpa: bytes, now: int) -> list[EngineEvent]:
        """Record the {NET, SNPA} pair; answer a new IS with one ESH."""
        body: IshBody = p.body
        result = self.rib.insert_entry(_IS_NEIGHBOR, body.net,
                                       source_snpa, p.holding_time, now)
        events: list[EngineEvent] = [self.rib.is_neighbors[body.net]]
        if result is _INSERTED and (addresses := self.local_addresses()):
            events.append(self._send(source_snpa, self.holding_time, EshBody, addresses))
        for opt in p.options:
            if opt.code == _ESCT:
                self.ct = (opt.value[0] << 8) | opt.value[1]
                events.append(_new(TimerSet, (now + self.ct,)))
        return events

    def handle_ra(self, p: Pdu, source_snpa: bytes, now: int) -> list[EngineEvent]:
        net = self.assign_temporary_net(source_snpa)
        return [self._send(source_snpa, self.holding_time, AaBody, net)]

    def handle_aa(self, p: Pdu, source_snpa: bytes, now: int) -> list[EngineEvent]:
        body: AaBody = p.body
        self.acquired_net = body.net
        return [_new(AddressAssigned, (body.net,))]

    def handle_rd(self, p: Pdu, source_snpa: bytes, now: int) -> list[EngineEvent]:
        body: RdBody = p.body
        self.rib.record_redirect(body.destination, body.better_snpa,
                                 body.redirect_net, p.holding_time, now)
        return [self.rib.redirects[body.destination]]

    def handle_clnp_at_is(self, clnp: MinimalClnpPdu, source_snpa: bytes,
                          now: int) -> list[EngineEvent]:
        """Forward the stub CLNP and redirect the sender to a better hop."""
        entry = self.rib.lookup(clnp.destination, now)
        if entry is not None and entry.kind is _ES_NEIGHBOR:
            forward_to, net = entry.snpa, None
        else:
            match = self._longest_prefix(clnp.destination)
            if match is None:
                return []
            forward_to, net = match.next_is_snpa, match.next_is_net
        payload = encode_clnp(clnp.source, clnp.destination)
        return [_new(RedirectIssued, (clnp.destination, forward_to)),
                self._send(source_snpa, self.holding_time, RdBody, clnp.destination,
                           forward_to, net),
                _new(Frame, (forward_to, self.config.snpa, payload))]

    def _longest_prefix(self, destination: bytes) -> ForwardingEntry | None:
        return max((fe for fe in self.config.forwarding_table
                    if destination.startswith(fe.prefix)),
                   key=lambda fe: len(fe.prefix), default=None)

    def handle_clnp_at_es(self, clnp: MinimalClnpPdu, source_snpa: bytes,
                          now: int) -> list[EngineEvent]:
        """Reverse traffic over the redirected path keeps the redirect alive."""
        if self.rib.refresh_redirect(clnp.source, source_snpa, now):
            return [self.rib.redirects[clnp.source]]
        return []

    def assign_temporary_net(self, requester_snpa: bytes) -> bytes:
        """Deterministic 20-octet NET: 13 octets of our NET prefix, the
        requester SNPA, then a zero selector."""
        prefix = (self.config.local_net + b"\x00" * 13)[:13]
        return prefix + requester_snpa + b"\x00"


def _role_mismatch(node: Node, p: Pdu, source_snpa: bytes, now: int) -> list[EngineEvent]:
    return [_ROLE_MISMATCH]


def _discarded(node: Node, reason: DiscardReason, source_snpa: bytes,
               now: int) -> list[EngineEvent]:
    return [reason]


# What `handle_pdu` does at a node of each role with each kind of
# `decode_payload` result: a `Pdu` is looked up by its body's class, anything
# else by its own class. A body the role never accepts is a ROLE_MISMATCH.
_ES_INPUT: dict[type, Callable] = {
    EshBody: Node.handle_esh,
    IshBody: Node.handle_ish,
    RdBody: Node.handle_rd,
    RaBody: _role_mismatch,
    AaBody: Node.handle_aa,
    DiscardReason: _discarded,
    MinimalClnpPdu: Node.handle_clnp_at_es,
}
_IS_INPUT: dict[type, Callable] = {
    EshBody: Node.handle_esh,
    IshBody: _role_mismatch,
    RdBody: _role_mismatch,
    RaBody: Node.handle_ra,
    AaBody: _role_mismatch,
    DiscardReason: _discarded,
    MinimalClnpPdu: Node.handle_clnp_at_is,
}
