"""Every shipped scenario's `esis run --dump-ribs` output is byte for byte
the one recorded in bench/digests.json (which this test only reads)."""

import hashlib
import json
from pathlib import Path

import pytest

from esis.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.scn"))
SHIPPED = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))["shipped"]


def test_every_shipped_scenario_has_a_digest():
    assert [p.name for p in SCENARIOS] == sorted(SHIPPED)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_shipped_scenario_output_matches_recorded_digest(path, tmp_path):
    log = tmp_path / "out.log"
    assert main(["run", str(path), "--dump-ribs", "--log", str(log)]) == 0
    text = log.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode()).hexdigest() == SHIPPED[path.name]
