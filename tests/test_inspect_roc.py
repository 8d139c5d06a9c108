"""Tests for model introspection and operating-curve utilities."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.inspect import explain_clip
from repro.core.roc import CurvePoint, area_under_curve, knee_point, sweep_thresholds
from repro.core.metrics import DetectionScore
from repro.errors import NotFittedError


@pytest.fixture(scope="module")
def fitted(small_benchmark):
    detector = HotspotDetector(DetectorConfig.ours())
    detector.fit(small_benchmark.training)
    return detector


@pytest.fixture(scope="module")
def ambit_fitted(ambit_benchmark):
    detector = HotspotDetector(DetectorConfig.ours())
    detector.fit(ambit_benchmark.training)
    return detector


class TestExplain:
    def test_unfitted_raises(self, small_benchmark):
        with pytest.raises(NotFittedError):
            explain_clip(HotspotDetector(), small_benchmark.training.hotspots()[0])

    def test_training_hotspot_explained(self, fitted, small_benchmark):
        clip = small_benchmark.training.hotspots()[0]
        explanation = explain_clip(fitted, clip)
        assert explanation.admitted_anywhere
        assert explanation.flagged
        assert "hotspot" in explanation.verdict
        assert explanation.best_margin >= 0

    def test_alien_clip_gated_out(self, fitted, small_benchmark):
        from repro.geometry.rect import Rect
        from repro.layout.clip import Clip

        spec = fitted.config.spec
        window = spec.clip_at(0, 0)
        core = spec.core_of(window)
        weird = [
            Rect(core.x0 + 50, core.y0 + 50, core.x0 + 250, core.y1 - 50),
            Rect(core.x0 + 400, core.y0 + 50, core.x1 - 50, core.y0 + 250),
            Rect(core.x0 + 600, core.y0 + 500, core.x0 + 800, core.y0 + 900),
        ]
        explanation = explain_clip(fitted, Clip.build(window, spec, weird))
        assert not explanation.admitted_anywhere
        assert "gated out" in explanation.verdict
        assert not explanation.flagged

    def test_summary_lines_nonempty(self, fitted, small_benchmark):
        clip = small_benchmark.training.non_hotspots()[0]
        lines = explain_clip(fitted, clip).summary_lines()
        assert lines and lines[0].startswith("verdict")

    def test_margins_agree_with_detector(self, fitted, small_benchmark):
        clips = small_benchmark.training.hotspots()[:5]
        margins = fitted.margins(clips)
        for clip, margin in zip(clips, margins):
            explanation = explain_clip(fitted, clip)
            assert explanation.best_margin == pytest.approx(margin)


class TestSweep:
    def test_monotone_in_threshold(self, fitted, small_benchmark):
        points = sweep_thresholds(
            fitted, small_benchmark.testing, thresholds=(-0.5, 0.0, 0.5, 1.0)
        )
        hits = [p.score.hits for p in points]
        assert hits == sorted(hits, reverse=True)

    def test_unfitted_raises(self, small_benchmark):
        with pytest.raises(NotFittedError):
            sweep_thresholds(HotspotDetector(), small_benchmark.testing)

    def test_point_at_detector_threshold_matches_detect(
        self, ambit_fitted, ambit_benchmark
    ):
        # The feedback kernel refines the flag set; the sweep must apply
        # it exactly as detect() does, or its points disagree with scans.
        detector = ambit_fitted
        assert detector.feedback_ is not None
        threshold = detector.config.decision_threshold
        (point,) = sweep_thresholds(
            detector, ambit_benchmark.testing, thresholds=(threshold,)
        )
        score = detector.score(ambit_benchmark.testing).score
        assert (point.score.hits, point.score.extras) == (score.hits, score.extras)

    def test_shard_verdicts_equal_feedback_on_the_flagged_clips(
        self, ambit_fitted, ambit_benchmark
    ):
        # The shards judge every gated candidate once; at any threshold
        # the verdicts of the flagged ones must equal keep_mask over
        # just those clips, and every sweep point must equal detect.
        detector = ambit_fitted
        testing = ambit_benchmark.testing
        thresholds = (-0.5, 0.0, 0.5)
        points = sweep_thresholds(detector, testing, thresholds=thresholds)
        scan = detector.detect(testing.layout).extraction
        assert not scan.verdicts.all()  # the kernel does reclaim clips here
        for threshold, point in zip(thresholds, points):
            report = detector.score(testing, threshold=threshold)
            assert (point.score.hits, point.score.extras) == (
                report.score.hits,
                report.score.extras,
            )
            flagged = np.flatnonzero(scan.margins >= threshold)
            keep = detector.feedback_.keep_mask(scan.cut(flagged))
            assert np.array_equal(scan.verdicts[flagged], keep)
            assert report.flagged_before_feedback == len(flagged)
            assert report.flagged_after_feedback == int(np.count_nonzero(keep))

    def test_knee_point_selection(self):
        def pt(threshold, hits, extras, actual=10):
            return CurvePoint(
                threshold, DetectionScore(hits, extras, actual, 100.0)
            )

        points = [pt(-0.5, 10, 20), pt(0.0, 9, 5), pt(0.5, 7, 1)]
        knee = knee_point(points, min_hit_rate=0.8)
        assert knee is not None and knee.threshold == 0.0
        assert knee_point(points, min_hit_rate=0.99).score.extras == 20
        assert knee_point([pt(0.0, 1, 0)], min_hit_rate=0.9) is None

    def test_auc_bounds(self):
        def pt(threshold, hits, extras):
            return CurvePoint(threshold, DetectionScore(hits, extras, 10, 100.0))

        perfect = [pt(0.0, 10, 0)]
        assert area_under_curve(perfect) == pytest.approx(1.0)
        assert area_under_curve([]) == 0.0
        mixed = [pt(-0.5, 10, 10), pt(0.0, 8, 5), pt(0.5, 4, 0)]
        value = area_under_curve(mixed)
        assert 0.0 <= value <= 1.0
