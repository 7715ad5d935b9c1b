"""Deterministic discrete-event broadcast subnetwork.

Timer fires, frame deliveries and scripted actions are queued in one list
per virtual time, in the order they were scheduled, under a heap of those
times; an event for the time being run starts a new list that runs next.
Each entry carries the method that runs it, its target and one argument. A
delivery map takes each destination SNPA that `Node.listens_to` names to its
receivers in add order. A frame to a destination with receivers is one
event, holding a tuple of them copied at `transmit`, that delivers to them
in that order. `transmit` takes no time: it stamps the frame with the
simulator's own `now`. The delivery skips the sender by name, and nothing
else tests the sender, so a frame only its sender hears queues a delivery
that logs nothing. Each receiver's one input step is `Node.handle_frame`,
after `decode_payload`: it acts on the decode of the payload in its own
table, the one for its profile's NSAP rule, lenient or ATN. The table is
found when the node is added, as the role and SNPA that place it in the
delivery map are. A simulator decodes each
distinct (payload, NSAP rule) pair once. The simulator owns the `EntryPool`
of every node's RIB, so the receivers of a hello share one frozen RIB entry,
rendered once, and the pool holds one time step's entries. A RIB event is
the entry itself, and one renderer logs either entry class by its `line`.
Time never runs backwards: a negative latency is refused, and scheduling
before `now` is an error. Up front, the constructor refuses a fault plan
with a drop or corrupt ordinal below 1, a corrupt index below 0 or a corrupt
value outside 0..255, `add_node` a taken SNPA and `inject_clnp` an address
outside 1..20 octets. The log is a pure function of the scenario and seed.
`Simulator.log` is a list, but only its `append` is ever called, so any
object with one, such as a writer to a stream, can stand in. Log line shape:
  t=<int> node=<name> <EVENT> <details>
with EVENT in SEND, RECV, DISCARD, RIB, TIMER, ASSIGN, REDIRECT.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .engine import (AddressAssigned, Frame, Node, NodeConfig, RedirectIssued, TimerSet,
                     decode_payload)
from .pdu import MAX_NSAP_LEN, SNPA_LEN, DiscardReason, Part, ValidationProfile, address_fault
from .rib import EntryPool, RedirectEntry, RibEntry

_NSAP = Part.NSAP


class _Decodes(dict):
    """`decode_payload` results under `profile` by payload, each made on first lookup."""
    def __init__(self, profile: ValidationProfile) -> None:
        self.profile = profile

    def __missing__(self, payload: bytes) -> object:
        return self.setdefault(payload, decode_payload(payload, self.profile))


@dataclass
class FaultPlan:
    """Frame-ordinal keyed faults. Ordinals count transmit calls from 1.

    A corruption index or value of None means "pick with the seeded RNG".
    """
    drops: set[int] = field(default_factory=set)
    corruptions: dict[int, tuple[int | None, int | None]] = field(default_factory=dict)


class UnknownNode(KeyError):
    pass


@dataclass(slots=True)
class _SimNode:
    name: str
    node: Node
    decodes: _Decodes  # the decode table of the node's profile; see _deliver
    down: bool = False
    timer_token: int = 0


class Simulator:
    def __init__(self, latency: int = 1, seed: int = 0,
                 faults: FaultPlan | None = None) -> None:
        if latency < 0:
            raise ValueError(f"latency must be ≥ 0, got {latency}")
        faults = faults or FaultPlan()
        if (first := min((*faults.drops, *faults.corruptions), default=1)) < 1:
            raise ValueError(f"fault ordinals count frames from 1, got {first}")
        for ordinal, (idx, val) in faults.corruptions.items():
            if idx is not None and idx < 0:
                raise ValueError(f"corrupt rule for frame {ordinal}: octet index must be ≥ 0, "
                                 f"got {idx}")
            if val is not None and not 0 <= val <= 0xFF:
                raise ValueError(f"corrupt rule for frame {ordinal}: value must be one octet, "
                                 f"0..255, got {val}")
        self.latency = latency
        self.rng = random.Random(seed)
        self.faults = faults
        self._queue: dict[int, list[tuple[Callable, object, object]]] = {}
        self._times: list[int] = []  # heap of the keys of _queue
        self._tx_count = 0
        self.now = 0
        self.log: list[str] = []
        self.nodes: dict[str, _SimNode] = {}
        self._snpas: set[bytes] = set()  # the SNPA of each node in `nodes`
        self._groups: dict[bytes, list[_SimNode]] = {}
        self._decoded: dict[tuple[int, int | None], _Decodes] = {}  # see _deliver
        self.rib_entries = EntryPool()  # shared by every node's RIB

    # Setup --------------------------------------------------------------

    def add_node(self, name: str, config: NodeConfig, start: int = 0) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name}")
        if config.snpa in self._snpas:
            raise ValueError(f"duplicate snpa {config.snpa.hex()}")
        profile = config.validation_profile
        if (decodes := self._decoded.get(profile.nsap_rule)) is None:
            decodes = self._decoded[profile.nsap_rule] = _Decodes(profile)
        sn = _SimNode(name, Node(config, self.rib_entries), decodes)
        self._set_timer(sn, start)
        self.nodes[name] = sn
        self._snpas.add(config.snpa)
        for destination in sn.node.listens_to():
            self._groups.setdefault(destination, []).append(sn)
        return sn.node

    def _require_node(self, name: str) -> _SimNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise UnknownNode(name) from None

    def node(self, name: str) -> Node:
        return self._require_node(name).node

    # Scheduling -----------------------------------------------------------

    def _schedule(self, at: int, run: Callable, target: object, arg: object = None) -> None:
        if at < self.now:
            raise ValueError(f"cannot schedule an event at t={at} before now t={self.now}")
        events = self._queue.get(at)
        if events is None:
            events = self._queue[at] = []
            heapq.heappush(self._times, at)
        events.append((run, target, arg))

    def _set_timer(self, sn: _SimNode, at: int) -> None:
        sn.timer_token += 1
        self._schedule(at, Simulator._fire_timer, sn, sn.timer_token)

    def inject_clnp(self, at: int, from_node: str, source_nsap: bytes,
                    dest_nsap: bytes) -> None:
        if (address_fault(_NSAP, source_nsap) is not None
                or address_fault(_NSAP, dest_nsap) is not None):
            raise ValueError(f"CLNP addresses must be NSAPs of length 1..{MAX_NSAP_LEN}, got "
                             f"source {source_nsap.hex()!r} and destination {dest_nsap.hex()!r}")
        self._schedule(at, Simulator._send_clnp, self._require_node(from_node),
                       (source_nsap, dest_nsap))

    def inject_down(self, at: int, name: str) -> None:
        self._schedule(at, Simulator._go_down, self._require_node(name))

    def inject_up(self, at: int, name: str) -> None:
        self._schedule(at, Simulator._go_up, self._require_node(name))

    # Transmission ---------------------------------------------------------

    def transmit(self, frame: Frame, sender: str) -> None:
        destination, source, payload = frame
        # Delivery keys on the destination and decode on the payload, so each
        # field is read as `bytes`.
        if not type(destination) is type(source) is type(payload) is bytes:
            destination, source, payload = map(bytes, frame)
        if len(source) != SNPA_LEN:
            raise ValueError(f"frame source {source.hex()} is not an SNPA of {SNPA_LEN} octets")
        self._tx_count += 1
        ordinal = self._tx_count
        if ordinal in self.faults.corruptions:
            idx, val = self.faults.corruptions[ordinal]
            if idx is None and payload:
                idx = self.rng.randrange(len(payload))
            if idx is None or not 0 <= idx < len(payload):
                raise ValueError(f"corrupt rule for frame {ordinal}: octet index "
                                 f"{'random' if idx is None else idx} is outside its "
                                 f"{len(payload)}-octet payload")
            if val is None:
                # Guaranteed to differ from the original octet.
                val = (payload[idx] + self.rng.randrange(1, 256)) % 256
            payload = payload[:idx] + bytes((val,)) + payload[idx + 1:]
        payload_hex = payload.hex()
        self.log.append(f"t={self.now} node={sender} SEND dst={destination.hex()} "
                        f"payload={payload_hex}")
        if ordinal in self.faults.drops:
            return
        group = self._groups.get(destination)
        if group:
            self._schedule(self.now + self.latency, Simulator._deliver, tuple(group),
                           (source, payload, sender,
                            f" RECV src={source.hex()} payload={payload_hex}"))

    # Event loop -------------------------------------------------------------

    def run_until(self, t_end: int) -> list[str]:
        """Run every event up to and including `t_end`; return the log. When an
        event raises, the rest of that time's events are dropped, and the
        simulator is not meant to be resumed."""
        if t_end < self.now:
            raise ValueError("cannot run backwards")
        while self._times and self._times[0] <= t_end:
            at = heapq.heappop(self._times)
            self.now = at
            for run, target, arg in self._queue.pop(at):
                run(self, target, arg, at)
        self.now = t_end
        return self.log

    def _fire_timer(self, sn: _SimNode, token: int, at: int) -> None:
        if token == sn.timer_token:
            for ev in sn.node.on_config_timer(at):
                _ON_EVENT[type(ev)](self, sn, ev, at)

    def _deliver(self, receivers: tuple[_SimNode, ...], delivery: tuple, at: int) -> None:
        """Hand the frame's source and payload, from `delivery`, to each
        receiver in add order that is up and is not the frame's sender.

        Each receiver reads the decode from its own table in `_decoded`,
        found by its profile's NSAP rule when it was added, so nodes of one
        rule share decodes. The table is keyed on the payload alone
        and decodes only a payload not seen before. Decode results are frozen,
        so receivers and later frames share them.
        """
        source, payload, sender, recv = delivery
        for sn in receivers:
            if not sn.down and sn.name != sender:
                self.log.append(f"t={at} node={sn.name}{recv}")
                for ev in sn.node.handle_frame(sn.decodes[payload], source, at):
                    _ON_EVENT[type(ev)](self, sn, ev, at)

    def _send_clnp(self, sn: _SimNode, addresses: tuple[bytes, bytes], at: int) -> None:
        if not sn.down:
            source, destination = addresses
            self.transmit(sn.node.clnp_frame(source, destination, at), sn.name)

    def _go_down(self, sn: _SimNode, _: None, at: int) -> None:
        sn.down = True
        sn.timer_token += 1  # cancel any pending fire

    def _go_up(self, sn: _SimNode, _: None, at: int) -> None:
        if sn.down:
            sn.down = False
            self._set_timer(sn, at)

    def dump_ribs(self, now: int | None = None) -> list[str]:
        now = self.now if now is None else now
        lines: list[str] = []
        for sn in self.nodes.values():
            lines.append(f"-- rib {sn.name} --")
            lines.extend(sn.node.rib.dump(now))
        return lines


def _on_timer_set(sim: Simulator, sn: _SimNode, ev: TimerSet, at: int) -> None:
    sim.log.append(f"t={at} node={sn.name} TIMER at={ev.at}")
    sim._set_timer(sn, ev.at)


# What the simulator does with each engine event class: a Frame is put on the
# wire, and every other event is logged; a TimerSet also re-arms the timer.
_ON_EVENT: dict[type, Callable] = {
    Frame: lambda sim, sn, ev, at: sim.transmit(ev, sn.name),
    **dict.fromkeys((RibEntry, RedirectEntry), lambda sim, sn, ev, at: sim.log.append(
        f"t={at} node={sn.name} RIB {ev.line}")),
    DiscardReason: lambda sim, sn, ev, at: sim.log.append(f"t={at} node={sn.name} DISCARD {ev}"),
    AddressAssigned: lambda sim, sn, ev, at: sim.log.append(
        f"t={at} node={sn.name} ASSIGN net={ev.net.hex()}"),
    RedirectIssued: lambda sim, sn, ev, at: sim.log.append(
        f"t={at} node={sn.name} REDIRECT dest={ev.destination.hex()} via={ev.snpa.hex()}"),
    TimerSet: _on_timer_set,
}
