"""Per-node protocol engine: hello emission, input dispatch, redirects.

An engine is a pure state machine: timer fires and received frames go in,
EngineEvent values come out. All I/O belongs to the simulator. Input is two
steps: `decode_payload` reads a payload under a validation profile, and
`Node.handle_pdu` acts on what it read, so one decode can serve every
receiver that shares the profile. `Node.handle_frame` does both.
`handle_pdu` finds the handler in one lookup, in a table built per role
and keyed on the type of what was read, the body's type for a `Pdu`.
Output is one path, `Node._emit`, which encodes and checksums each
distinct `Pdu` once per node and reuses the octets for every later send.
A periodic hello also reuses its `SendFrame`: `on_config_timer` keeps one
per destination, holding time and addresses (or NET), so a hello that has
not changed builds nothing.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

from . import pdu as pdu_mod
from .checksum import generate_checksum
from .pdu import (AaBody, DiscardReason, EshBody, IshBody, LENIENT, NLPID_CLNP,
                  NLPID_ESIS, OptionCode, Pdu, ProtocolDetail, RaBody, RdBody,
                  ValidationProfile, protocol_error)
from .rib import EntryKind, InsertResult, Rib

ALL_ES = bytes.fromhex("09002b000004")
ALL_IS = bytes.fromhex("09002b000005")
BROADCAST = b"\xff" * 6
_GROUP_ADDRESSES = (BROADCAST, ALL_ES, ALL_IS)


class Role(enum.Enum):
    END_SYSTEM = "es"
    INTERMEDIATE_SYSTEM = "is"


@dataclass(frozen=True, slots=True)
class Frame:
    destination: bytes
    source: bytes
    payload: bytes


@dataclass(frozen=True, slots=True)
class MinimalClnpPdu:
    source: bytes
    destination: bytes


def encode_clnp(source: bytes, destination: bytes) -> bytes:
    """Two-address CLNP stub: NLPID, {len, src}, {len, dst}."""
    return bytes([NLPID_CLNP, len(source)]) + source \
        + bytes([len(destination)]) + destination


def decode_clnp(payload: bytes) -> MinimalClnpPdu | None:
    if len(payload) < 2 or payload[0] != NLPID_CLNP:
        return None
    off = 1
    slen = payload[off]
    off += 1
    if off + slen + 1 > len(payload):
        return None
    src = payload[off:off + slen]
    off += slen
    dlen = payload[off]
    off += 1
    if off + dlen > len(payload):
        return None
    return MinimalClnpPdu(src, payload[off:off + dlen])


def decode_payload(payload: bytes, profile: ValidationProfile
                   ) -> Pdu | DiscardReason | MinimalClnpPdu | None:
    """An ES-IS PDU or its discard reason, a stub CLNP PDU, or None to ignore."""
    nlpid = payload[0] if payload else None
    if nlpid == NLPID_ESIS:
        return pdu_mod.decode(payload, profile)
    return decode_clnp(payload) if nlpid == NLPID_CLNP else None


@dataclass(frozen=True, slots=True)
class ForwardingEntry:
    prefix: bytes
    next_is_net: bytes
    next_is_snpa: bytes


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

@dataclass(frozen=True, slots=True)
class SendFrame:
    frame: Frame


@dataclass(frozen=True, slots=True)
class RibChanged:
    line: str


@dataclass(frozen=True, slots=True)
class Discarded:
    reason: DiscardReason


@dataclass(frozen=True, slots=True)
class AddressAssigned:
    net: bytes


@dataclass(frozen=True, slots=True)
class RedirectIssued:
    destination: bytes
    snpa: bytes


@dataclass(frozen=True, slots=True)
class TimerSet:
    at: int


EngineEvent = SendFrame | RibChanged | Discarded | AddressAssigned | RedirectIssued | TimerSet

_ROLE_MISMATCH = Discarded(protocol_error(ProtocolDetail.ROLE_MISMATCH))
_END_SYSTEM, _INTERMEDIATE_SYSTEM = Role
_ES_NEIGHBOR, _IS_NEIGHBOR = EntryKind
_INSERTED = InsertResult.INSERTED


class Node:
    __slots__ = ("config", "rib", "ct", "acquired_net", "_encoded", "_hellos", "_on_input")

    def __init__(self, config: NodeConfig) -> None:
        if config.role is _INTERMEDIATE_SYSTEM and config.local_net is None:
            raise ValueError("an intermediate system needs a local NET")
        if config.holding_multiplier < 2:
            raise ValueError("holding multiplier must be ≥ 2")
        if config.configuration_timer <= 0:
            raise ValueError("configuration timer must be > 0")
        self.config = config
        self.rib = Rib()
        self.ct = config.configuration_timer
        self.acquired_net: bytes | None = None
        self._encoded: dict[Pdu, bytes] = {}  # see _emit
        self._hellos: dict[tuple, SendFrame] = {}  # see _hello
        self._on_input = _IS_INPUT if config.role is _INTERMEDIATE_SYSTEM else _ES_INPUT

    @property
    def is_intermediate(self) -> bool:
        return self.config.role is _INTERMEDIATE_SYSTEM

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
        group = ALL_IS if self.is_intermediate else ALL_ES
        # An SNPA equal to a group address joins no group: membership follows role.
        unicast = () if self.config.snpa in _GROUP_ADDRESSES else (self.config.snpa,)
        return (BROADCAST, group, *unicast)

    # Output path ------------------------------------------------------

    def clnp_frame(self, source: bytes, destination: bytes, now: int) -> Frame:
        """A stub CLNP frame to the RIB's next hop, or broadcast when it has none."""
        snpa = self.rib.next_hop(destination, now).snpa
        return Frame(snpa if snpa is not None else BROADCAST, self.config.snpa,
                     encode_clnp(source, destination))

    def _emit(self, p: Pdu, destination: bytes) -> SendFrame:
        """Send `p`, encoded and checksummed once per distinct value.

        `Pdu` is frozen and hashes by value, so a new holding time, option
        or address is a new key and nothing is ever invalidated. The dict
        grows with the distinct PDUs this node emits: its hello variants,
        one AA per requester and one RD per destination and next hop.
        """
        payload = self._encoded.get(p)
        if payload is None:
            payload = self._encoded[p] = generate_checksum(pdu_mod.encode(p))
        return SendFrame(Frame(destination, self.config.snpa, payload))

    def _esh(self) -> Pdu:
        return Pdu(EshBody(self.local_addresses()), holding_time=self.holding_time)

    def _ish(self) -> Pdu:
        return Pdu(IshBody(self.config.local_net), holding_time=self.holding_time)

    def _hello(self, destination: bytes, names: bytes | tuple[bytes, ...],
               make: Callable[[], Pdu]) -> SendFrame:
        """The hello `make` builds, sent to `destination`, once per value.

        `names` is what the hello says of this node: its NET in an ISH, its
        addresses in an ESH, () in an RA. With the destination and the
        holding time it fixes the whole frame this node sends, so the key
        is a value, nothing is invalidated, and `_emit` runs only on a miss.
        """
        key = destination, self.holding_time, names
        send = self._hellos.get(key)
        if send is None:
            send = self._hellos[key] = self._emit(make(), destination)
        return send

    def on_config_timer(self, now: int) -> list[EngineEvent]:
        """Periodic hello: ESH or ISH, or an RA while addressless."""
        self.rib.flush_expired(now)
        if self.config.role is _INTERMEDIATE_SYSTEM:
            events: list[EngineEvent] = [self._hello(ALL_ES, self.config.local_net, self._ish)]
        elif addresses := self.local_addresses():
            events = [self._hello(ALL_IS, addresses, self._esh)]
            if not self.rib.has_live_is(now):
                events.append(self._hello(ALL_ES, addresses, self._esh))
        else:
            events = [self._hello(ALL_IS, (), lambda: Pdu(RaBody(), holding_time=0))]
        events.append(TimerSet(now + self.ct))
        return events

    # Input path -------------------------------------------------------

    def handle_frame(self, frame: Frame, now: int) -> list[EngineEvent]:
        return self.handle_pdu(decode_payload(frame.payload, self.config.validation_profile),
                               frame.source, now)

    def handle_pdu(self, decoded: Pdu | DiscardReason | MinimalClnpPdu | None,
                   source_snpa: bytes, now: int) -> list[EngineEvent]:
        """Act on `decode_payload`'s result under this node's profile; a frame
        from this node's own SNPA is ignored. The handler is one lookup in
        the input table of this node's role (see `_input_table`)."""
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
            events.append(RibChanged(table[addr].dump_line()))
        if newly_available and self.config.role is _INTERMEDIATE_SYSTEM:
            events.append(self._emit(self._ish(), source_snpa))
        return events

    def handle_ish(self, p: Pdu, source_snpa: bytes, now: int) -> list[EngineEvent]:
        """Record the {NET, SNPA} pair; answer a new IS with one ESH."""
        body: IshBody = p.body
        result = self.rib.insert_entry(_IS_NEIGHBOR, body.net,
                                       source_snpa, p.holding_time, now)
        events: list[EngineEvent] = [
            RibChanged(self.rib.is_neighbors[body.net].dump_line())]
        if result is _INSERTED and self.local_addresses():
            events.append(self._emit(self._esh(), source_snpa))
        for opt in p.options:
            if opt.code == OptionCode.ESCT:
                self.ct = (opt.value[0] << 8) | opt.value[1]
                events.append(TimerSet(now + self.ct))
        return events

    def handle_ra(self, p: Pdu, source_snpa: bytes, now: int) -> list[EngineEvent]:
        net = self.assign_temporary_net(source_snpa)
        aa = Pdu(AaBody(net), holding_time=self.holding_time)
        return [self._emit(aa, source_snpa)]

    def handle_aa(self, p: Pdu, source_snpa: bytes, now: int) -> list[EngineEvent]:
        body: AaBody = p.body
        self.acquired_net = body.net
        return [AddressAssigned(body.net)]

    def handle_rd(self, p: Pdu, source_snpa: bytes, now: int) -> list[EngineEvent]:
        body: RdBody = p.body
        self.rib.record_redirect(body.destination, body.better_snpa,
                                 body.redirect_net, p.holding_time, now)
        entry = self.rib.lookup_redirect(body.destination, now)
        return [RibChanged(entry.dump_line())]

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
        rd = Pdu(RdBody(clnp.destination, forward_to, net), holding_time=self.holding_time)
        payload = encode_clnp(clnp.source, clnp.destination)
        return [RedirectIssued(clnp.destination, forward_to), self._emit(rd, source_snpa),
                SendFrame(Frame(forward_to, self.config.snpa, payload))]

    def _longest_prefix(self, destination: bytes) -> ForwardingEntry | None:
        best: ForwardingEntry | None = None
        for fe in self.config.forwarding_table:
            if destination.startswith(fe.prefix):
                if best is None or len(fe.prefix) > len(best.prefix):
                    best = fe
        return best

    def handle_clnp_at_es(self, clnp: MinimalClnpPdu, source_snpa: bytes,
                          now: int) -> list[EngineEvent]:
        """Reverse traffic over the redirected path keeps the redirect alive."""
        entry = self.rib.lookup_redirect(clnp.source, now)
        if entry is None or entry.better_snpa != source_snpa:
            return []
        self.rib.refresh_redirect(clnp.source, source_snpa, now, entry.holding_time)
        return [RibChanged(entry.dump_line())]

    def assign_temporary_net(self, requester_snpa: bytes) -> bytes:
        """Deterministic 20-octet NET: 13 octets of our NET prefix, the
        requester SNPA, then a zero selector."""
        prefix = (self.config.local_net + b"\x00" * 13)[:13]
        return prefix + requester_snpa + b"\x00"


# Body class -> (the one role that accepts it, or None for any, handler).
# Any other role discards it with ROLE_MISMATCH.
_HANDLERS: dict[type, tuple[Role | None, Callable]] = {
    EshBody: (None, Node.handle_esh),
    IshBody: (_END_SYSTEM, Node.handle_ish),
    RdBody: (_END_SYSTEM, Node.handle_rd),
    RaBody: (_INTERMEDIATE_SYSTEM, Node.handle_ra),
    AaBody: (_END_SYSTEM, Node.handle_aa),
}


def _role_mismatch(node: Node, p: Pdu, source_snpa: bytes, now: int) -> list[EngineEvent]:
    return [_ROLE_MISMATCH]


def _discarded(node: Node, reason: DiscardReason, source_snpa: bytes,
               now: int) -> list[EngineEvent]:
    return [Discarded(reason)]


def _input_table(role: Role) -> dict[type, Callable]:
    """What `handle_pdu` does at a node of `role` with each kind of
    `decode_payload` result: a `Pdu` is looked up by its body's class,
    anything else by its own class."""
    return {
        **{body: handler if accepts in (None, role) else _role_mismatch
           for body, (accepts, handler) in _HANDLERS.items()},
        DiscardReason: _discarded,
        MinimalClnpPdu: (Node.handle_clnp_at_is if role is _INTERMEDIATE_SYSTEM
                         else Node.handle_clnp_at_es),
    }


_ES_INPUT, _IS_INPUT = _input_table(_END_SYSTEM), _input_table(_INTERMEDIATE_SYSTEM)
