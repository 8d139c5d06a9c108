"""Per-benchmark detection golden records (``tests/fixtures/golden``).

Every benchmark is fitted and scanned at reduced scale with the paper's
configuration, and the integer outcome -- candidates, flagged clips
before and after feedback, reports, hits, extras and the digest of the
report cores -- must equal the committed record.  A change that trades
detection quality for speed, or moves a single reported core, fails
here.  ``tests/fixtures/golden/generate.py`` rebuilds the records.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "fixtures" / "golden"

_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

RECORDS = json.loads(generate.OUTCOMES.read_text())


def test_records_cover_every_benchmark():
    assert RECORDS["scale"] == generate.SCALE
    assert sorted(RECORDS["benchmarks"]) == sorted(generate.NAMES)
    assert len(generate.NAMES) == 6


@pytest.mark.parametrize("name", generate.NAMES)
def test_outcome_matches_record(name):
    assert generate.outcome(name) == RECORDS["benchmarks"][name]
