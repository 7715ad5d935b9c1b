"""esis benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload lan_hello --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from `src/` next to
this directory, never from an installed copy; without it the command exits
with code 2. Standard library only, single-threaded; the only other
processes are codec_corpus's cold passes (`cold.py`), run one at a time.

--trace 0 times the workload and prints the end-to-end metrics. Timings use
the process CPU clock (`time.process_time`): the run phases do no I/O, since
the log stays in memory, and on a shared 2-CPU machine CPU time moves far
less between processes than wall time. The reported times and rates are
restated at the nominal speed of `speed.py`, from reference pieces run
between the timed pieces; the printed notes keep the values as measured.
--trace 1 runs the workload once
under the span tracer of `tracer.py` and prints the per-layer metrics.

Every run checks the program's outputs. A failed check counts one failed
operation, and any failure makes the command exit 1. See README.md for the
workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import replace
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

# Share of a sim workload's time spent on codec passes over its own frames.
CODEC_SHARE = 0.2
MIN_SIM_REPS = 3
MIN_SETUPS = 10
MIN_CODEC_PASSES = 5
COLD_PASSES = 9
# Traced layer self times inside run_until must add up to the run_until
# time read off the benchmark's own clock.
SELF_TIME_TOLERANCE = 0.05


def import_program():
    """Import `esis` from ROOT/src; exit 2 if it is not there."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    try:
        import esis
    except ImportError as exc:
        print(f"error: cannot import esis from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(esis.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: esis imported from {esis.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)


import_program()

from esis import checksum, cli, pdu, scenario  # noqa: E402
from esis.pdu import Pdu  # noqa: E402

import cold  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

SIM_WORKLOADS = {"lan_hello": gen.lan_hello, "clnp_redirect": gen.clnp_redirect}
WORKLOADS = [*SIM_WORKLOADS, "codec_corpus"]
# Reference pieces of this run, taken between its timed pieces.
SPEED = speed.Speed()


class Checks:
    """Counts checked operations; each failed one is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def p95(values) -> float:
    return quantiles(values, n=20, method="inclusive")[18]


def per_index_median(rows: list[list[float]]) -> list[float]:
    """Median over repetitions of each position, e.g. of each tick."""
    return [median(col) for col in zip(*rows)]


# Sim workloads -----------------------------------------------------------------

def output_text(log: list[str], dump: list[str]) -> str:
    """The text `esis run --dump-ribs` writes."""
    lines = log + dump
    return "\n".join(lines) + ("\n" if lines else "")


def log_counts(text: str) -> dict[str, int]:
    """Log lines by event type and DISCARD lines by reason. SEND counts the
    frames sent, RECV the deliveries."""
    counts: Counter[str] = Counter()
    for line in text.splitlines():
        if not line.startswith("t="):
            continue
        parts = line.split(" ", 3)
        counts[parts[2]] += 1
        if parts[2] == "DISCARD":
            counts[f"DISCARD {parts[3]}"] += 1
    return dict(sorted(counts.items()))


def check_log(log: list[str], dump: list[str], latency: int, until: int,
              checks: Checks) -> None:
    """Invariants that hold for every scenario: time never goes backwards,
    every RECV has a SEND of the same payload one latency earlier, and every
    dumped entry outlives the horizon."""
    sent = set()
    last_t = 0
    monotone = matched = True
    for line in log:
        t_field, _, event, rest = line.split(" ", 3)
        t = int(t_field[2:])
        monotone &= t >= last_t
        last_t = t
        if event == "SEND":
            sent.add((t, rest.split(" ", 1)[1]))
        elif event == "RECV":
            matched &= (t - latency, rest.split(" ", 1)[1]) in sent
    checks.expect(monotone, "log time never decreases")
    checks.expect(matched, "every RECV matches a SEND one latency earlier")
    checks.expect(all(int(line.rsplit(" ", 1)[1]) > until
                      for line in dump if not line.startswith("--")),
                  "dumped entries expire after the horizon")


def run_cli(scn: Path, log: Path) -> tuple[str, int]:
    """Output of `esis run --dump-ribs`, and the perf_counter ns of cli.main."""
    w0 = time.perf_counter_ns()
    code = cli.main(["run", str(scn), "--dump-ribs", "--log", str(log)])
    wall_ns = time.perf_counter_ns() - w0
    if code != 0:
        raise RuntimeError(f"esis run {scn.name} exited {code}")
    return log.read_text(encoding="utf-8"), wall_ns


def run_shipped() -> dict[str, str]:
    """`esis run --dump-ribs` output of every shipped scenario, by file name."""
    found = sorted((ROOT / "scenarios").glob("*.scn"))
    if not found:
        raise FileNotFoundError(f"no scenarios under {ROOT / 'scenarios'}")
    return {scn.name: run_cli(scn, OUT / f"{scn.stem}.log")[0] for scn in found}


def wire_corpus(log: list[str]) -> list:
    """Every ES-IS frame the run put on the wire, in send order. Its verdict
    is unknown, since only decode gives it; the frames that decode must
    encode back to themselves."""
    corpus = []
    for line in log:
        _, _, event, rest = line.split(" ", 3)
        if event == "SEND" and "payload=82" in rest:
            raw = bytes.fromhex(rest.rsplit("payload=", 1)[1])
            got = pdu.decode(raw)
            corpus.append(gen.CorpusFrame(raw, None, got if isinstance(got, Pdu) else None,
                                          checksummed=raw[7:9] != b"\0\0"))
    return corpus


def sim_timed(text: str, seconds: float, checks: Checks):
    """Reps of set-up plus a run stepped one virtual second at a time. After
    each rep, codec passes over the frames the run sent take CODEC_SHARE of
    the time, so both sample the machine over the whole run."""
    start = time.perf_counter()
    setups, ticks = [], []
    reference = codec = None
    lap_s = 0.0
    rss_before = cold.peak_rss_kib()
    while len(ticks) < MIN_SIM_REPS or time.perf_counter() - start + lap_s < seconds:
        lap_start = time.perf_counter()
        gc.collect()
        SPEED.between()
        c0 = time.process_time()
        sc = scenario.parse_scenario(text)
        sim = scenario.build_simulator(sc)
        setups.append(time.process_time() - c0)
        rep_ticks = []
        for t in range(sc.until + 1):
            SPEED.between()
            c0 = time.process_time()
            sim.run_until(t)
            rep_ticks.append(time.process_time() - c0)
        ticks.append(rep_ticks)
        dump = sim.dump_ribs(sc.until)
        if reference is None:
            rss_after = cold.peak_rss_kib()
            check_log(sim.log, dump, sc.latency, sc.until, checks)
            reference = output_text(sim.log, dump)
            lines = len(sim.log)
            codec = CodecBench(wire_corpus(sim.log), checks, built=False)
        else:
            checks.expect(output_text(sim.log, dump) == reference,
                          "every rep gives the same output")
        del sim, sc, dump
        rep_s = time.perf_counter() - lap_start
        codec.run(time.perf_counter() + rep_s * CODEC_SHARE / (1 - CODEC_SHARE))
        lap_s = time.perf_counter() - lap_start
    codec.run(0, MIN_CODEC_PASSES)
    while len(setups) < MIN_SETUPS:
        gc.collect()
        SPEED.between()
        c0 = time.process_time()
        scenario.build_simulator(scenario.parse_scenario(text))
        setups.append(time.process_time() - c0)
    tick_ms = [1e3 * t for t in per_index_median(ticks)]
    metrics = {
        "events_per_s": (lines / sum(tick_ms) * 1e3, "1/s",
                         f"{lines} log lines over the sum of the tick medians"),
        "tick_p50_ms": (median(tick_ms), "ms",
                        f"{len(tick_ms)} virtual seconds, each the median of {len(ticks)} reps"),
        "tick_p95_ms": (p95(tick_ms), "ms", f"same {len(tick_ms)} samples"),
        **{k: v for k, v in codec.metrics().items() if k != "events_per_s"},
        "setup_s": (median(setups), "s",
                    f"parse_scenario + build_simulator, median of {len(setups)}"),
        "peak_rss_mib": ((rss_after - rss_before) / 1024, "MiB",
                         f"peak RSS growth over the first rep, {rss_before} KiB before, "
                         f"{rss_after} KiB after it"),
    }
    return metrics, reference


def sim_guard(text: str, reference: str, name: str, checks: Checks) -> dict:
    """The in-process CLI run must give the timed runs' output: this also
    checks one run_until(until) against one-second steps."""
    scn = OUT / f"{name}.scn"
    scn.write_text(text, encoding="utf-8")
    got, _ = run_cli(scn, OUT / f"{name}.log")
    checks.expect(got == reference, "esis run --dump-ribs output equals the stepped run's")
    return {"output": sha256(reference), "counts": log_counts(reference)}


def sim_traced(text: str, name: str, checks: Checks):
    """One untraced library run, then the same scenario through the CLI and
    the shipped scenarios under the tracer."""
    gc.collect()
    sc = scenario.parse_scenario(text)
    sim = scenario.build_simulator(sc)
    w0 = time.perf_counter_ns()
    sim.run_until(sc.until)
    untraced_ns = time.perf_counter_ns() - w0
    reference = output_text(sim.log, sim.dump_ribs(sc.until))
    del sim, sc
    scn = OUT / f"{name}.scn"
    scn.write_text(text, encoding="utf-8")
    gc.collect()
    with Tracer() as tracer:
        got, cli_ns = run_cli(scn, OUT / f"{name}.log")
        workload_spans = len(tracer.ids)
        shipped = run_shipped()
    checks.expect(got == reference, "traced CLI output equals the untraced run's")
    checks.expect(log_counts(got) == log_counts(reference),
                  "traced and untraced log counts are equal")
    # Span 0 is cli.main. On the benchmark's own clock, run_until took
    # cli.main's time less the traced spans beside it (parse, build); the
    # rest is cli's own untraced work, which must be small.
    root_ns, self_ns = tracer.under("sim.run_until", workload_spans)
    clocked_ns = cli_ns - tracer.child_ns(0, "sim.run_until")
    print(f"run_until: layer self times inside it sum to {self_ns / 1e9:.6f} s; "
          f"cli.main took {cli_ns / 1e9:.6f} s, {clocked_ns / 1e9:.6f} s without "
          f"the traced spans outside run_until")
    checks.expect(abs(self_ns - clocked_ns) <= SELF_TIME_TOLERANCE * clocked_ns,
                  f"layer self times {self_ns} ns add up to run_until {clocked_ns} ns "
                  "on the benchmark's clock")
    logs = [got] + list(shipped.values())
    return tracer, root_ns / untraced_ns, logs, shipped, \
        {"output": sha256(reference), "counts": log_counts(reference)}


# Codec workload ------------------------------------------------------------------

def verdict(result) -> str:
    return f"OK {result.pdu_type.name}" if isinstance(result, Pdu) else str(result)


def check_corpus(corpus, results, checks: Checks) -> None:
    """Every frame gets the verdict it was built for, and every valid frame
    decodes to exactly the PDU it was encoded from."""
    for i, (frame, got) in enumerate(zip(corpus, results)):
        checks.expect(verdict(got) == frame.verdict and
                      (frame.pdu is None or got == frame.pdu),
                      f"corpus frame {i}: {verdict(got)}, expected {frame.verdict}")


def batched(items: list) -> list[list]:
    return [items[i:i + gen.CODEC_BATCH] for i in range(0, len(items), gen.CODEC_BATCH)]


class CodecBench:
    """Timed decode and encode passes over a corpus, batch by batch.

    Every pass is checked: each frame gets its verdict, each valid frame
    decodes to exactly its PDU, each valid PDU encodes back to its frame,
    and each pass repeats the first."""

    def __init__(self, corpus: list, checks: Checks, built: bool = True) -> None:
        """`built`: the corpus carries the verdict each frame was built
        for. A sim run's own frames do not, and get no verdict check."""
        self.corpus = corpus
        self.checks = checks
        self.built = built
        self.decode_batches = batched([f.raw for f in corpus])
        valid = [f for f in corpus if f.pdu is not None]
        self.encode_batches = batched([(replace(f.pdu, checksum=(0, 0)), f.checksummed)
                                       for f in valid])
        self.expected = [f.raw for f in valid]
        self.decode_rows: list[list[float]] = []
        self.encode_rows: list[list[float]] = []
        self.results = None

    def one_pass(self) -> None:
        decode, encode, generate = pdu.decode, pdu.encode, checksum.generate_checksum
        gc.collect()
        decode_s, results = [], []
        for batch in self.decode_batches:
            SPEED.between()
            c0 = time.process_time()
            got = [decode(f) for f in batch]
            decode_s.append(time.process_time() - c0)
            results += got
        encode_s, out = [], []
        for batch in self.encode_batches:
            SPEED.between()
            c0 = time.process_time()
            got = [generate(encode(p)) if cs else encode(p) for p, cs in batch]
            encode_s.append(time.process_time() - c0)
            out += got
        if self.results is None:
            if self.built:
                check_corpus(self.corpus, results, self.checks)
            self.results = results
        else:
            self.checks.expect(results == self.results, "decode gives the same result every pass")
        self.checks.expect(out == self.expected, "every valid PDU encodes to its frame")
        self.decode_rows.append(decode_s)
        self.encode_rows.append(encode_s)

    def run(self, deadline: float, min_passes: int = 0) -> None:
        """Passes until `deadline` (perf_counter), and at least `min_passes`
        in all."""
        while len(self.decode_rows) < min_passes or time.perf_counter() < deadline:
            self.one_pass()

    def metrics(self) -> dict:
        """Each batch's time is its median over the passes; rates divide the
        work of one pass by the sum of those medians."""
        n_dec = len(self.corpus)
        n_enc = len(self.expected)
        passes = len(self.decode_rows)
        decode_s = sum(per_index_median(self.decode_rows))
        encode_s = sum(per_index_median(self.encode_rows))
        return {
            "decode_per_s": (n_dec / decode_s, "1/s",
                             f"{n_dec} frames, batch medians of {passes} passes"),
            "encode_per_s": (n_enc / encode_s, "1/s",
                             f"{n_enc} valid PDUs, batch medians of {passes} passes"),
            "events_per_s": ((n_dec + n_enc) / (decode_s + encode_s), "1/s",
                             "decodes + encodes per CPU-second"),
        }

    def verdicts(self) -> dict:
        verdicts = [verdict(r) for r in self.results]
        return {"output": sha256("\n".join(verdicts)),
                "counts": dict(sorted(Counter(verdicts).items()))}


def write_frames(corpus: list, name: str) -> Path:
    """The corpus as cold.py reads it."""
    path = OUT / f"{name}.frames"
    cold.write_frames(path, [(0 if f.pdu is None else 2 if f.checksummed else 1, f.raw)
                             for f in corpus])
    return path


def cold_pass(frames: Path) -> dict:
    """One run of cold.py, waited for."""
    done = subprocess.run([sys.executable, str(HERE / "cold.py"), str(frames)],
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"cold.py exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout)


def codec_timed(seed: int, seconds: float, checks: Checks):
    """Warm passes for `seconds`, with COLD_PASSES cold passes spread over
    them, so both sample the machine over the whole run."""
    start = time.perf_counter()
    corpus = gen.codec_corpus(seed)
    frames = write_frames(corpus, f"codec_corpus-{seed}")
    bench = CodecBench(corpus, checks)
    colds = []
    for k in range(1, COLD_PASSES + 1):
        colds.append(cold_pass(frames))
        bench.run(start + seconds * k / COLD_PASSES)
    bench.run(0, MIN_CODEC_PASSES)
    found = bench.verdicts()
    for c in colds:
        checks.expect(c["verdicts"] == found["output"] and c["encode_mismatches"] == 0,
                      "a cold pass gives the warm verdicts and encodings")
    batch_ms = [1e3 * t for t in per_index_median(bench.decode_rows)]
    metrics = {
        **bench.metrics(),
        "tick_p50_ms": (median(batch_ms), "ms",
                        f"{len(batch_ms)} batches of {gen.CODEC_BATCH} decodes, "
                        f"each the median of {len(bench.decode_rows)} passes"),
        "tick_p95_ms": (p95(batch_ms), "ms", f"same {len(batch_ms)} samples"),
        "setup_s": (median(c["cpu_s"] for c in colds), "s",
                    f"import esis + first decode and encode pass in a fresh "
                    f"interpreter, median of {len(colds)}"),
        "peak_rss_mib": (median(c["rss_growth_kib"] for c in colds) / 1024, "MiB",
                         f"peak RSS growth over the same, median of {len(colds)}"),
    }
    return metrics, found


def codec_traced(seed: int, checks: Checks):
    bench = CodecBench(gen.codec_corpus(seed), checks)
    bench.one_pass()
    with Tracer() as tracer:
        bench.one_pass()
        shipped = run_shipped()
    untraced, traced = (sum(d) + sum(e) for d, e in zip(bench.decode_rows, bench.encode_rows))
    return tracer, traced / untraced, list(shipped.values()), shipped, bench.verdicts()


# Per-layer metrics ---------------------------------------------------------------

def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, overhead: float, logs: list[str]) -> dict:
    totals = tracer.totals()
    sums, samples = tracer.sums, tracer.samples
    counts: Counter[str] = Counter()
    for text in logs:
        counts.update(log_counts(text))
    m: dict[str, tuple[float, str]] = {}

    def calls(name):
        m[f"{name}.calls"] = (totals[name][0], "count")

    def us(name, key="us", col=1):
        m[f"{name}.{key}"] = (totals[name][col] / 1e3, "us")

    for name in ("checksum.verify", "checksum.generate"):
        calls(name)
        m[f"{name}.ns_per_octet"] = (_div(totals[name][1], sums[f"{name}.octets"]), "ns/octet")
    m["checksum.octets"] = (sums["checksum.verify.octets"] + sums["checksum.generate.octets"],
                            "count")
    calls("pdu.decode")
    us("pdu.decode", "self_us", 2)
    m["pdu.decode.discard_ratio"] = (_div(sums["pdu.decode.discards"],
                                          totals["pdu.decode"][0]), "ratio")
    calls("pdu.encode")
    us("pdu.encode")
    for name in ("rib.insert_entry", "rib.lookup", "rib.next_hop", "rib.lookup_redirect",
                 "rib.record_redirect", "rib.refresh_redirect", "rib.flush_expired",
                 "rib.has_live_is"):
        calls(name)
        us(name)
    m["rib.entries_at_call"] = (_div(sums["rib.entries_at_call"],
                                     samples["rib.entries_at_call"]), "entries")
    m["rib.redirects_at_call"] = (_div(sums["rib.redirects_at_call"],
                                       samples["rib.redirects_at_call"]), "entries")
    m["rib.flush_expired.removed"] = (sums["rib.flush_expired.removed"], "count")
    for name in ("engine.handle_frame", "engine.on_config_timer"):
        calls(name)
        us(name, "self_us", 2)
    m["engine.events_out"] = (sums["engine.events_out"], "count")
    m["sim.self_s"] = (totals["sim.run_until"][2] / 1e9, "s")
    calls("sim.transmit")
    us("sim.transmit")
    m["sim.deliveries"] = (counts["RECV"], "count")
    m["sim.fanout"] = (_div(counts["RECV"], counts["SEND"]), "ratio")
    m["scenario.parse_s"] = (totals["scenario.parse"][1] / 1e9, "s")
    m["scenario.build_s"] = (totals["scenario.build"][1] / 1e9, "s")
    m["cli.run_s"] = (totals["cli.main"][1] / 1e9, "s")
    m["cli.self_s"] = (totals["cli.main"][2] / 1e9, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["trace.spans"] = (len(tracer.ids), "count")
    return m


def traced_run(workload: str, seed: int, checks: Checks):
    """The traced run of one workload; its fingerprint includes the call
    count of every traced function."""
    name = f"{workload}-{seed}"
    if workload in SIM_WORKLOADS:
        traced = sim_traced(SIM_WORKLOADS[workload](seed), name, checks)
    else:
        traced = codec_traced(seed, checks)
    tracer, overhead, logs, shipped, found = traced
    found["calls"] = {name: row[0] for name, row in tracer.totals().items()}
    return traced


# Command line --------------------------------------------------------------------

def provenance(args) -> dict:
    src = sorted((ROOT / "src" / "esis").glob("*.py"))
    blob = b"".join(p.read_bytes() for p in src)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "git_commit": git_commit(),
        "src_sha256": hashlib.sha256(blob).hexdigest(),
        "src_lines": blob.count(b"\n"),
        "clock": "time.perf_counter_ns (spans)" if args.trace
                 else "time.process_time (CLOCK_PROCESS_CPUTIME_ID)",
        "run_seconds": args.seconds,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f)


def compare_recorded(recorded: dict | None, found: dict, what: str, checks: Checks) -> None:
    """Compare with the digests recorded for this seed; print which are new."""
    for key, value in found.items():
        if recorded is None or key not in recorded:
            print(f"unrecorded: {what} {key}")
            continue
        checks.expect(value == recorded[key], f"{what} {key} matches the recorded value")


def fingerprint(found: dict) -> dict:
    """Counts are stored by sha256 of their canonical JSON."""
    return {k: v if isinstance(v, str) else sha256(json.dumps(v, sort_keys=True))
            for k, v in found.items()}


def at_nominal_speed(metrics: dict) -> None:
    """Restate every CPU time and rate of the run at the nominal speed of
    speed.py; each note keeps the value as measured."""
    factor = SPEED.factor()
    print(f"speed factor {factor:.6f}: median of {len(SPEED.times)} reference pieces, "
          f"{1e3 * factor * speed.NOMINAL_S:.6f} ms against {1e3 * speed.NOMINAL_S} ms nominal")
    for name, (value, unit, note) in metrics.items():
        if unit in ("s", "ms"):
            metrics[name] = (value / factor, unit, f"{note}; {value:.6f} at the run's speed")
        elif unit == "1/s":
            metrics[name] = (value * factor, unit, f"{note}; {value:.6f} at the run's speed")


def run(args, checks: Checks) -> dict:
    """Run the workload and check its outputs; returns its metrics."""
    OUT.mkdir(parents=True, exist_ok=True)
    digests = load_digests()
    recorded = digests["workloads"].get(args.workload, {}).get(str(args.seed))
    name = f"{args.workload}-{args.seed}"
    if args.trace:
        tracer, overhead, logs, shipped, found = traced_run(args.workload, args.seed, checks)
        tracer.write(OUT / f"{name}.spans")
        metrics = layer_metrics(tracer, overhead, logs)
    else:
        if args.workload in SIM_WORKLOADS:
            text = SIM_WORKLOADS[args.workload](args.seed)
            metrics, reference = sim_timed(text, args.seconds, checks)
            found = sim_guard(text, reference, name, checks)
        else:
            metrics, found = codec_timed(args.seed, args.seconds, checks)
        at_nominal_speed(metrics)
        shipped = run_shipped()
    for scn, out in shipped.items():
        checks.expect(sha256(out) == digests["shipped"].get(scn),
                      f"scenarios/{scn} output matches the recorded digest")
    print("counts " + json.dumps(found["counts"], sort_keys=True))
    compare_recorded(recorded, fingerprint(found), name, checks)
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checks = Checks()
    print("provenance " + json.dumps(provenance(args)))
    try:
        metrics = run(args, checks)
    except Exception:
        traceback.print_exc()
        checks.expect(False, "the workload ran without an exception")
        metrics = {}
    for name, (value, unit, *note) in metrics.items():
        print(f"{name:<28} {value:>16.6f} {unit:<8} {' '.join(note)}")
    print(f"failed_ratio {checks.failed / max(checks.attempted, 1):.6f} "
          f"({checks.failed} of {checks.attempted} checked operations)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
