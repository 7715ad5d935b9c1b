"""Deterministic discrete-event broadcast subnetwork.

Timer fires, frame deliveries and scripted actions are queued in one list
per virtual time, in the order they were scheduled, under a heap of those
times; an event for the time being run starts a new list that runs next.
Each entry carries the method that runs it, its target and one argument.
A delivery map takes each destination SNPA that `Node.listens_to` names to
its receivers in add order, and a frame is one event that delivers to them
in that order. Each receiver acts through `Node.handle_pdu` on the decode
of the payload under its validation profile, and a simulator decodes each
distinct (payload, profile) pair once, so a hello repeated every period is
decoded once. Time never runs backwards: scheduling before `now` is an
error. The log is a pure function of the scenario and seed.
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

from .engine import (AddressAssigned, Discarded, Frame, Node, NodeConfig, RedirectIssued,
                     RibChanged, SendFrame, TimerSet, decode_payload)
from .pdu import ValidationProfile

# `_deliver`'s marker for a pair not decoded yet: None is a decode result.
_UNSEEN = object()


@dataclass
class FaultPlan:
    """Frame-ordinal keyed faults. Ordinals count transmit calls from 1.

    A corruption index or value of None means "pick with the seeded RNG".
    """
    drops: set[int] = field(default_factory=set)
    corruptions: dict[int, tuple[int | None, int | None]] = field(default_factory=dict)


class UnknownNode(KeyError):
    pass


@dataclass
class _SimNode:
    name: str
    node: Node
    down: bool = False
    timer_token: int = 0


class Simulator:
    def __init__(self, latency: int = 1, seed: int = 0,
                 faults: FaultPlan | None = None) -> None:
        self.latency = latency
        self.rng = random.Random(seed)
        self.faults = faults or FaultPlan()
        self._queue: dict[int, list[tuple[Callable, object, object]]] = {}
        self._times: list[int] = []  # heap of the keys of _queue
        self._tx_count = 0
        self.now = 0
        self.log: list[str] = []
        self.nodes: dict[str, _SimNode] = {}
        self._groups: dict[bytes, list[_SimNode]] = {}
        self._decoded: dict[tuple[bytes, ValidationProfile], object] = {}  # see _deliver

    # Setup --------------------------------------------------------------

    def add_node(self, name: str, config: NodeConfig, start: int = 0) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name}")
        sn = _SimNode(name, Node(config))
        self._set_timer(sn, start)
        self.nodes[name] = sn
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
        events = self._queue.setdefault(at, [])
        if not events:
            heapq.heappush(self._times, at)
        events.append((run, target, arg))

    def _set_timer(self, sn: _SimNode, at: int) -> None:
        sn.timer_token += 1
        self._schedule(at, Simulator._fire_timer, sn, sn.timer_token)

    def inject_clnp(self, at: int, from_node: str, source_nsap: bytes,
                    dest_nsap: bytes) -> None:
        self._schedule(at, Simulator._send_clnp, self._require_node(from_node),
                       (source_nsap, dest_nsap))

    def inject_down(self, at: int, name: str) -> None:
        self._schedule(at, Simulator._go_down, self._require_node(name))

    def inject_up(self, at: int, name: str) -> None:
        self._schedule(at, Simulator._go_up, self._require_node(name))

    # Transmission ---------------------------------------------------------

    def transmit(self, frame: Frame, now: int, sender: str) -> None:
        self._tx_count += 1
        ordinal = self._tx_count
        if ordinal in self.faults.corruptions:
            idx, val = self.faults.corruptions[ordinal]
            payload = bytearray(frame.payload)
            if idx is None:
                idx = self.rng.randrange(len(payload))
            if not 0 <= idx < len(payload):
                raise ValueError(f"corrupt rule for frame {ordinal}: octet index {idx} "
                                 f"is outside its {len(payload)}-octet payload")
            if val is None:
                # Guaranteed to differ from the original octet.
                val = (payload[idx] + self.rng.randrange(1, 256)) % 256
            payload[idx] = val
            frame = Frame(frame.destination, frame.source, bytes(payload))
        payload_hex = frame.payload.hex()
        self.log.append(f"t={now} node={sender} SEND dst={frame.destination.hex()} "
                        f"payload={payload_hex}")
        if ordinal in self.faults.drops:
            return
        receivers = [sn for sn in self._groups.get(frame.destination, ()) if sn.name != sender]
        if receivers:
            self._schedule(now + self.latency, Simulator._deliver, receivers,
                           (frame, f" RECV src={frame.source.hex()} payload={payload_hex}"))

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
        if not sn.down and token == sn.timer_token:
            for ev in sn.node.on_config_timer(at):
                _ON_EVENT[type(ev)](self, sn, ev, at)

    def _deliver(self, receivers: list[_SimNode], delivery: tuple[Frame, str], at: int) -> None:
        """Hand the frame to each receiver that is up, in add order.

        When a receiver's profile differs from the last one's, the decode is
        read from `_decoded`, keyed on the payload and the profile by value,
        and made only for a pair not seen before. Decode results are frozen,
        so receivers and later frames share them. The dict grows with the
        distinct payloads sent and the profiles that read them.
        """
        frame, recv = delivery
        profile = decoded = None  # the last decode and the profile it was made under
        for sn in receivers:
            if not sn.down:
                self.log.append(f"t={at} node={sn.name}{recv}")
                node = sn.node
                # Scenario nodes with equal settings share one profile object;
                # a library caller's equal copies still compare equal by value.
                if node.config.validation_profile is not profile and (
                        profile is None or node.config.validation_profile != profile):
                    profile = node.config.validation_profile
                    key = frame.payload, profile
                    decoded = self._decoded.get(key, _UNSEEN)
                    if decoded is _UNSEEN:
                        decoded = self._decoded[key] = decode_payload(frame.payload, profile)
                for ev in node.handle_pdu(decoded, frame.source, at):
                    _ON_EVENT[type(ev)](self, sn, ev, at)

    def _send_clnp(self, sn: _SimNode, addresses: tuple[bytes, bytes], at: int) -> None:
        if not sn.down:
            self.transmit(sn.node.clnp_frame(*addresses, at), at, sn.name)

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


# What the simulator does with each engine event class: a SendFrame is put on
# the wire, and every other event is logged; a TimerSet also re-arms the timer.
_ON_EVENT: dict[type, Callable] = {
    SendFrame: lambda sim, sn, ev, at: sim.transmit(ev.frame, at, sn.name),
    RibChanged: lambda sim, sn, ev, at: sim.log.append(f"t={at} node={sn.name} RIB {ev.line}"),
    Discarded: lambda sim, sn, ev, at: sim.log.append(
        f"t={at} node={sn.name} DISCARD {ev.reason}"),
    AddressAssigned: lambda sim, sn, ev, at: sim.log.append(
        f"t={at} node={sn.name} ASSIGN net={ev.net.hex()}"),
    RedirectIssued: lambda sim, sn, ev, at: sim.log.append(
        f"t={at} node={sn.name} REDIRECT dest={ev.destination.hex()} via={ev.snpa.hex()}"),
    TimerSet: _on_timer_set,
}
