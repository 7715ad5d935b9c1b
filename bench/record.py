"""Record the digests that bench/run.py checks every run against.

    python3 bench/record.py

For each workload, on seeds 0..15 and the held-out seed, it makes the
traced run (which also checks the output against an untraced run) and
stores the sha256 of the output, of the event counts and of the
per-function call counts, with the sha256 of each shipped scenario's
`esis run --dump-ribs` output. It records every seed afresh, so the file
never mixes program versions. Re-record only for a change that is meant
to alter the program's output, and say so.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = range(16)


def main() -> int:
    digests = run.load_digests()
    seeds = [*SEEDS, digests["held_out_seed"]]
    digests["workloads"] = {}
    run.OUT.mkdir(parents=True, exist_ok=True)
    for workload in run.WORKLOADS:
        for seed in seeds:
            checks = run.Checks()
            tracer, _, _, shipped, found = run.traced_run(workload, seed, checks)
            if checks.failed:
                print(f"{workload} seed {seed}: {checks.failed} checks failed", file=sys.stderr)
                return 1
            digests["workloads"].setdefault(workload, {})[str(seed)] = run.fingerprint(found)
            digests["shipped"] = {scn: run.sha256(text) for scn, text in shipped.items()}
            print(f"{workload} seed {seed}: {found['counts']}", flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
