"""Span tracer for the traced run.

It wraps the public functions at each layer boundary of `esis`, where
their callers look them up, and restores the originals on exit. Nothing
under `src/` changes. Spans (name, parent, start, end) go into flat arrays
in memory and are written out once at the end. A span's self time is its
duration minus the durations of its child spans. Times come from
`time.perf_counter_ns`: the traced code is single-threaded and does no I/O,
and the process CPU clock costs a system call per read.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

from esis import checksum, cli, engine, pdu, scenario
from esis.engine import Node
from esis.pdu import DiscardReason
from esis.rib import Rib
from esis.sim import Simulator


def _octets(args) -> int:
    return len(args[0])


def _entries(args) -> int:
    return len(args[0].entries)


def _redirects(args) -> int:
    return len(args[0].redirects)


def _is_discard(result) -> int:
    return isinstance(result, DiscardReason)


# (owner, attribute, span name, (sum name, measure of args) or None,
#  (sum name, measure of result) or None)
PATCHES = [
    (checksum, "generate_checksum", "checksum.generate",
     ("checksum.generate.octets", _octets), None),
    (engine, "generate_checksum", "checksum.generate",
     ("checksum.generate.octets", _octets), None),
    (pdu, "verify_checksum", "checksum.verify",
     ("checksum.verify.octets", _octets), None),
    (pdu, "decode", "pdu.decode", None, ("pdu.decode.discards", _is_discard)),
    (pdu, "encode", "pdu.encode", None, None),
    (Rib, "insert_entry", "rib.insert_entry", ("rib.entries_at_call", _entries), None),
    (Rib, "lookup", "rib.lookup", None, None),
    (Rib, "next_hop", "rib.next_hop", None, None),
    (Rib, "lookup_redirect", "rib.lookup_redirect",
     ("rib.redirects_at_call", _redirects), None),
    (Rib, "record_redirect", "rib.record_redirect",
     ("rib.redirects_at_call", _redirects), None),
    (Rib, "refresh_redirect", "rib.refresh_redirect", None, None),
    (Rib, "flush_expired", "rib.flush_expired", None, ("rib.flush_expired.removed", int)),
    (Rib, "has_live_is", "rib.has_live_is", None, None),
    (Node, "handle_frame", "engine.handle_frame", None, ("engine.events_out", len)),
    (Node, "on_config_timer", "engine.on_config_timer", None, ("engine.events_out", len)),
    (Simulator, "run_until", "sim.run_until", None, None),
    (Simulator, "transmit", "sim.transmit", None, None),
    (scenario, "parse_scenario", "scenario.parse", None, None),
    (scenario, "build_simulator", "scenario.build", None, None),
    (cli, "build_simulator", "scenario.build", None, None),
    (cli, "main", "cli.main", None, None),
]


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self) -> None:
        self.names = list(dict.fromkeys(patch[2] for patch in PATCHES))
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        # Summed measures and how many calls contributed to each.
        self.sums: Counter[str] = Counter()
        self.samples: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, pre, post in PATCHES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, pre, post))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, pre, post):
        nid = self.names.index(name)
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack, sums, samples = self._stack, self.sums, self.samples
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            if pre is not None:
                sums[pre[0]] += pre[1](args)
                samples[pre[0]] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                sums[post[0]] += post[1](result)
                samples[post[0]] += 1
            return result

        return traced

    # Results ------------------------------------------------------------

    def _durations(self) -> tuple[list[int], list[int]]:
        """Duration and self time of every span, in ns."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = dur[:]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def totals(self, first: int = 0, last: int | None = None) -> dict[str, list[int]]:
        """Per span name, over spans [first, last): [calls, total ns, self ns].

        The range must hold whole top-level calls."""
        dur, own = self._durations()
        last = len(self.ids) if last is None else last
        out: dict[str, list[int]] = {name: [0, 0, 0] for name in self.names}
        for i in range(first, last):
            row = out[self.names[self.ids[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += own[i]
        return out

    def under(self, root: str, last: int | None = None) -> tuple[int, int]:
        """(summed duration of the outermost `root` spans, summed self time
        of every span inside them, roots included), over spans [0, last)."""
        dur, own = self._durations()
        rid = self.names.index(root)
        inside = [False] * len(dur)
        root_ns = self_ns = 0
        for i, p in enumerate(self.parents[:last]):
            outer = p < 0 or not inside[p]
            inside[i] = not outer or self.ids[i] == rid
            if inside[i]:
                self_ns += own[i]
                if outer:
                    root_ns += dur[i]
        return root_ns, self_ns

    def child_ns(self, parent: int, skip: str) -> int:
        """Summed duration of the direct children of span `parent`, leaving
        out those named `skip`."""
        sid = self.names.index(skip)
        return sum(self.ends[i] - self.starts[i] for i, p in enumerate(self.parents)
                   if p == parent and self.ids[i] != sid)

    def write(self, path: Path) -> None:
        """One JSON header line, then the four arrays as raw native-endian
        values: int32 name index, int32 parent span (-1 for none), int64
        start ns, int64 end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            head = {"names": self.names, "spans": len(self.ids),
                    "clock": "perf_counter_ns",
                    "arrays": ["name:int32", "parent:int32", "start:int64", "end:int64"]}
            f.write(json.dumps(head).encode() + b"\n")
            for a in (self.ids, self.parents, self.starts, self.ends):
                a.tofile(f)
