"""Regenerate the per-benchmark detection golden records.

For each of the six synthetic benchmarks (benchmark1-5 and ``blind``) the
generator builds the benchmark pair at :data:`SCALE`, fits a detector
with ``DetectorConfig.ours()``, scores the testing layout and writes the
integer outcome of that scan to ``outcomes.json``: candidates, clips
flagged before and after the feedback kernel, reports, hits, extras, and
the sha256 of the sorted report cores.  ``tests/test_golden.py``
recomputes each record and compares it field for field.

Only integers and digests are pinned.  Margins and model fingerprints are
floating-point results that may move in the last bit across numpy
versions; the hotspot set they decide must not.

Run from the repo root to rebuild::

    PYTHONPATH=src python tests/fixtures/golden/generate.py

The benchmarks are generated from their fixed per-benchmark seeds (no
wall clock, no entropy), so a rebuild is byte-identical to the committed
file unless detection itself changed -- CI rebuilds it and fails on any
diff.
"""

import hashlib
import json
from pathlib import Path

from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.data.benchmarks import BENCHMARKS, generate_benchmark

HERE = Path(__file__).parent
OUTCOMES = HERE / "outcomes.json"

#: Reduced scale: every benchmark keeps its motif mix and feedback stage,
#: and all six fit and scan in a few seconds.
SCALE = 0.3

NAMES = [config.name for config in BENCHMARKS]


def report_digest(reports):
    """sha256 of the sorted report cores: the identity of a hotspot set."""
    cores = sorted((c.core.x0, c.core.y0, c.core.x1, c.core.y1) for c in reports)
    return hashlib.sha256(json.dumps(cores).encode()).hexdigest()


def outcome(name):
    """Fit and scan benchmark ``name`` at :data:`SCALE`; its integer record."""
    benchmark = generate_benchmark(name, scale=SCALE)
    detector = HotspotDetector(DetectorConfig.ours())
    detector.fit(benchmark.training)
    report = detector.score(benchmark.testing)
    return {
        "candidates": len(report.extraction.clips),
        "flagged_before_feedback": report.flagged_before_feedback,
        "flagged_after_feedback": report.flagged_after_feedback,
        "reports": report.report_count,
        "hits": report.score.hits,
        "extras": report.score.extras,
        "digest": report_digest(report.reports),
    }


def main():
    records = {"scale": SCALE, "benchmarks": {name: outcome(name) for name in NAMES}}
    OUTCOMES.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTCOMES.name}")


if __name__ == "__main__":
    main()
