"""One cold codec pass in a fresh interpreter: the set-up cost of the codec.

    python3 bench/cold.py <frames file>

run.py starts it for the codec_corpus workload's `setup_s` and
`peak_rss_mib`. The frames file holds, per frame, one mode octet (0: only
decoded, 1: also encoded, 2: also encoded and checksummed), a two-octet
big-endian length and the frame. On the process CPU clock it times the
import of `esis` from `src/`, the decode of every frame and the encode of
every frame whose mode asks for it. Nothing from `esis` is loaded before
the clock starts, so import-time tables and first-call caches are counted.
It prints one JSON line: the CPU seconds, the growth of peak RSS in KiB
over the timed part, the sha256 of the verdict list and the number of
frames whose encoding differs from the frame.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_kib() -> int:
    """The process's peak resident set (VmHWM). Unlike ru_maxrss, it starts
    afresh at exec, so it does not inherit the peak of the parent."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def read_frames(path: str) -> list[tuple[int, bytes]]:
    data = Path(path).read_bytes()
    frames, i = [], 0
    while i < len(data):
        n = int.from_bytes(data[i + 1:i + 3], "big")
        frames.append((data[i], data[i + 3:i + 3 + n]))
        i += 3 + n
    return frames


def write_frames(path: Path, frames: list[tuple[int, bytes]]) -> None:
    path.write_bytes(b"".join(bytes([mode]) + len(raw).to_bytes(2, "big") + raw
                              for mode, raw in frames))


def main(path: str) -> None:
    frames = read_frames(path)
    sys.path.insert(0, str(ROOT / "src"))
    rss0 = peak_rss_kib()
    c0 = time.process_time()
    from esis import checksum, pdu
    results = [pdu.decode(raw) for _, raw in frames]
    cpu_s = time.process_time() - c0
    todo = [(replace(r, checksum=(0, 0)), mode) for (mode, _), r in zip(frames, results) if mode]
    c0 = time.process_time()
    encoded = [checksum.generate_checksum(pdu.encode(p)) if mode == 2 else pdu.encode(p)
               for p, mode in todo]
    cpu_s += time.process_time() - c0
    rss_kib = peak_rss_kib() - rss0
    verdicts = [f"OK {r.pdu_type.name}" if isinstance(r, pdu.Pdu) else str(r) for r in results]
    expected = [raw for mode, raw in frames if mode]
    print(json.dumps({
        "cpu_s": cpu_s,
        "rss_growth_kib": rss_kib,
        "verdicts": hashlib.sha256("\n".join(verdicts).encode()).hexdigest(),
        "encode_mismatches": sum(a != b for a, b in zip(encoded, expected)),
    }))


if __name__ == "__main__":
    main(sys.argv[1])
