"""Hybrid pattern-matching + machine-learning detection (category 4).

The paper's related work ([10]-[12], e.g. EPIC) unites pattern matching
and machine learning "to enhance accuracy and reduce false alarm but may
consume longer runtimes".  This baseline implements the two classic
combination rules over this repository's engines:

- ``union``: flag when either engine flags — maximises hits (EPIC-style
  meta-classification with an OR vote), pays in extras and runtime;
- ``intersection``: flag only when both agree — minimises extras, pays
  in hits.

Redundant clip removal runs on the combined report list either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.baselines.pattern_match import PatternMatchConfig, PatternMatcher
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.extraction import extract_candidate_clips
from repro.core.metrics import DetectionScore, score_reports
from repro.core.removal import remove_redundant_clips
from repro.data.synth import TestingLayout
from repro.errors import ConfigError
from repro.layout.clip import Clip, ClipLabel, ClipSet
from repro.layout.layout import Layout


@dataclass
class HybridReport:
    """Evaluation outcome with per-engine attribution."""

    reports: list[Clip]
    candidate_count: int
    pm_flags: int
    ml_flags: int
    eval_seconds: float
    score: Optional[DetectionScore] = None


@dataclass
class HybridDetector:
    """PM + ML combination detector.

    ``mode`` is ``"union"`` or ``"intersection"``.  Both engines are
    trained on the same clip set; at evaluation each candidate is judged
    by both and the votes are combined.
    """

    mode: str = "union"
    ml_config: DetectorConfig = field(default_factory=DetectorConfig.ours)
    pm_config: PatternMatchConfig = field(default_factory=PatternMatchConfig)

    def __post_init__(self) -> None:
        if self.mode not in ("union", "intersection"):
            raise ConfigError(f"mode must be 'union' or 'intersection', got {self.mode!r}")
        self._ml = HotspotDetector(self.ml_config)
        self._pm = PatternMatcher(self.pm_config)

    def fit(self, training: ClipSet) -> None:
        self._ml.fit(training)
        self._pm.fit(training)

    def detect(self, layout: Layout, layer: int = 1) -> HybridReport:
        started = time.perf_counter()
        config = self.ml_config
        extraction = extract_candidate_clips(
            layout, config.spec, config.extraction, layer
        )
        candidates = extraction.clips

        ml_flags = self._ml.predict_clips(candidates)
        pm_flags = np.array([self._pm.matches(clip) for clip in candidates])
        if self.mode == "union":
            combined = ml_flags | pm_flags
        else:
            combined = ml_flags & pm_flags
        flagged = [clip for clip, keep in zip(candidates, combined) if keep]

        if self.ml_config.use_removal and flagged:
            def clip_factory(core):
                return layout.cut_clip_at_core(self.ml_config.spec, core, layer)

            reports = remove_redundant_clips(
                flagged, self.ml_config.spec, self.ml_config.removal, clip_factory
            )
        else:
            reports = flagged
        return HybridReport(
            reports=[r.with_label(ClipLabel.HOTSPOT) for r in reports],
            candidate_count=len(candidates),
            pm_flags=int(pm_flags.sum()),
            ml_flags=int(ml_flags.sum()),
            eval_seconds=time.perf_counter() - started,
        )

    def score(self, testing: TestingLayout, layer: int = 1) -> HybridReport:
        report = self.detect(testing.layout, layer)
        report.score = score_reports(
            report.reports, testing.hotspot_cores(), testing.area_um2
        )
        return report
