"""The machine's speed of the moment, to restate CPU times at a fixed speed.

On a shared virtual machine the CPU time of fixed work moves by up to 2x
for tens of seconds at a time (measured on a 2-vCPU Intel Xeon VM that
reports no steal time), so that whole runs of the same input differed by
up to 70%. The benchmark therefore runs `reference_work` between its timed
pieces, about once every INTERVAL_S, and divides every CPU time of a run by
the run's speed factor: the median CPU time of those pieces over
NOMINAL_S. The results are CPU times at the speed at which the reference
work takes NOMINAL_S. On ten runs of lan_hello in such a spell, this took
the IQR/median spread of events_per_s from 66% to 4%.

`reference_work` never changes and does not call the program: a change to
the program moves the scaled times, a change of the machine's speed moves
the factor.
"""

from __future__ import annotations

import time
from statistics import median

NOMINAL_S = 0.005
INTERVAL_S = 0.05
_OCTETS = bytes(range(256)) * 2


def reference_work() -> int:
    """Fixed work with the program's mix of operations: octet loops,
    slicing, int.from_bytes, dict and list operations and f-strings."""
    table: dict[int, tuple] = {}
    lines = []
    total = 0
    for i in range(600):
        chunk = _OCTETS[i % 200:i % 200 + 40]
        c0 = c1 = 0
        for octet in chunk:
            c0 = (c0 + octet) % 255
            c1 = (c1 + c0) % 255
        key = int.from_bytes(chunk[2:8], "big")
        table[key & 4095] = (c0, c1, chunk[:6])
        hit = table.get((key >> 3) & 4095)
        lines.append(f"t={i} {chunk[:6].hex()} {c0:02x}{c1:02x}")
        total += len(lines[-1]) + (hit[0] if hit else 0)
    return total


class Speed:
    """CPU times of reference pieces taken between the timed pieces."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._next = 0.0

    def between(self) -> None:
        """Call between two timed pieces: runs a reference piece when
        INTERVAL_S of wall time has passed since the last one."""
        if time.perf_counter() < self._next:
            return
        c0 = time.process_time()
        reference_work()
        self.times.append(time.process_time() - c0)
        self._next = time.perf_counter() + INTERVAL_S

    def factor(self) -> float:
        """The run's CPU times over those at nominal speed (median)."""
        return median(self.times) / NOMINAL_S
