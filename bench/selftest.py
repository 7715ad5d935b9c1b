"""Self-tests of the benchmark's generators, checks and tracer.

    python3 -m pytest -q bench/selftest.py

Not named test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on the path first)
import gen  # noqa: E402
import speed  # noqa: E402
from esis import pdu, scenario  # noqa: E402
from tracer import PATCHES, Tracer  # noqa: E402

SIM_GENERATORS = [gen.lan_hello, gen.clnp_redirect]


def test_same_seed_same_inputs_other_seed_other_inputs():
    for make in SIM_GENERATORS:
        assert make(7) == make(7)
        assert make(7) != make(8)
    assert gen.codec_corpus(7) == gen.codec_corpus(7)
    assert gen.codec_corpus(7) != gen.codec_corpus(8)


def test_scenarios_use_only_values_the_parser_will_keep_accepting():
    """No negative `latency`/`at`, no `afi`, no explicit corrupt index or
    value: those are the values the parser is due to start rejecting."""
    for make in SIM_GENERATORS:
        for seed in (0, 1, run.load_digests()["held_out_seed"]):
            for line in make(seed).splitlines():
                stmt, *args = line.split()
                assert "afi=" not in line
                if stmt in ("latency", "until", "seed", "drop"):
                    assert int(args[0]) >= (1 if stmt == "drop" else 0)
                elif stmt == "at":
                    assert int(args[0]) >= 0
                elif stmt == "corrupt":
                    assert int(args[0]) >= 1 and args[1:] == ["random", "random"]
                else:
                    assert stmt == "node"
                    assert re.fullmatch(r"node \w+ role=(es|is) snpa=[0-9a-f]{12} "
                                        r"(nsap|net)=[0-9a-f]{40} ct=\d+ "
                                        r"(multiplier=\d+ )?start=\d+", line)


def test_lan_faults_land_on_frames_that_are_sent():
    """Every fault ordinal is below the frame count of the run."""
    sc = scenario.parse_scenario(gen.lan_hello(0))
    sim = scenario.build_simulator(sc)
    sim.run_until(sc.until)
    sends = sum(" SEND " in line for line in sim.log)
    assert max(sc.faults.drops | set(sc.faults.corruptions)) <= sends


def test_stepped_run_matches_one_run_until():
    """run_until one virtual second at a time gives the log of one call."""
    for make in SIM_GENERATORS:
        sc = scenario.parse_scenario(make(3))
        stepped = scenario.build_simulator(sc)
        for t in range(sc.until + 1):
            stepped.run_until(t)
        whole = scenario.build_simulator(scenario.parse_scenario(make(3)))
        whole.run_until(sc.until)
        assert stepped.log == whole.log
        assert stepped.dump_ribs() == whole.dump_ribs()


def test_corpus_frames_get_their_built_verdicts():
    corpus = gen.codec_corpus(0)
    checks = run.Checks()
    run.check_corpus(corpus, [pdu.decode(f.raw) for f in corpus], checks)
    assert checks.failed == 0
    lengths = {len(f.raw) for f in corpus}
    assert min(lengths) == 9 and max(lengths) >= 240


def test_cold_pass_gives_the_warm_verdicts():
    corpus = gen.codec_corpus(0)[:256]
    bench = run.CodecBench(corpus, run.Checks())
    bench.one_pass()
    run.OUT.mkdir(parents=True, exist_ok=True)
    cold = run.cold_pass(run.write_frames(corpus, "selftest"))
    assert cold["verdicts"] == bench.verdicts()["output"]
    assert cold["encode_mismatches"] == 0
    assert cold["cpu_s"] > 0 and cold["rss_growth_kib"] > 0


def test_wire_frames_get_no_verdict_check():
    """A sim run's frames are checked by their encode roundtrip only."""
    sc = scenario.parse_scenario((run.ROOT / "scenarios" / "discovery.scn").read_text())
    sim = scenario.build_simulator(sc)
    sim.run_until(sc.until)
    checks = run.Checks()
    bench = run.CodecBench(run.wire_corpus(sim.log), checks, built=False)
    bench.one_pass()
    assert (checks.attempted, checks.failed) == (1, 0)


def test_speed_takes_one_reference_piece_per_interval():
    s = speed.Speed()
    s.between()
    s.between()
    assert len(s.times) == 1 and s.factor() > 0


def test_tracer_restores_every_patched_name():
    def current():
        return [vars(owner)[attr] for owner, attr, *_ in PATCHES]

    before = current()
    with Tracer():
        during = current()
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(current(), before))


def test_traced_output_and_self_times():
    """Tracing changes no output; self times inside run_until add up to it,
    by construction."""
    text = (run.ROOT / "scenarios" / "redirect.scn").read_text()
    sc = scenario.parse_scenario(text)
    plain = scenario.build_simulator(sc)
    plain.run_until(sc.until)
    with Tracer() as tracer:
        sc = scenario.parse_scenario(text)
        traced = scenario.build_simulator(sc)
        traced.run_until(sc.until)
    assert traced.log == plain.log
    root_ns, self_ns = tracer.under("sim.run_until")
    assert root_ns == self_ns > 0
    totals = tracer.totals()
    assert totals["sim.run_until"][0] == 1
    assert totals["rib.record_redirect"][0] >= 1


def test_held_out_seed_is_recorded():
    digests = run.load_digests()
    held_out = str(digests["held_out_seed"])
    for workload in run.WORKLOADS:
        assert held_out in digests["workloads"][workload]
