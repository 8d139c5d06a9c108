"""End-to-end tests of the HotspotDetector facade and training stages."""

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.feedback import train_feedback_kernel
from repro.core.training import core_string_key, train_multi_kernel
from repro.errors import NotFittedError, SvmError
from repro.layout.clip import ClipLabel, ClipSet, ClipSpec


class TestTraining:
    def test_multi_kernel_structure(self, small_benchmark):
        config = DetectorConfig.ours()
        model = train_multi_kernel(small_benchmark.training, config)
        assert len(model.kernels) == len(model.hotspot_clusters)
        assert len(model.kernels) >= 2
        # derivatives: 5x the original hotspot count
        assert len(model.hotspot_clips) == 5 * len(
            small_benchmark.training.hotspots()
        )
        # downsampling reduced the nonhotspot population
        assert len(model.nonhotspot_centroids) <= len(
            small_benchmark.training.non_hotspots()
        )

    def test_kernels_have_gates(self, small_benchmark):
        model = train_multi_kernel(small_benchmark.training, DetectorConfig.ours())
        for kernel in model.kernels:
            assert kernel.key_set
            # a kernel's own hotspots pass its gate
            cluster = model.hotspot_clusters[kernel.cluster_index]
            clip = model.hotspot_clips[cluster.members[0]]
            assert core_string_key(clip) in kernel.key_set

    def test_basic_has_single_ungated_kernel(self, small_benchmark):
        model = train_multi_kernel(small_benchmark.training, DetectorConfig.basic())
        assert len(model.kernels) == 1
        assert model.kernels[0].key_set is None

    def test_training_set_self_classification(self, small_benchmark):
        """Kernels classify (most of) their own training data correctly."""
        config = DetectorConfig.ours()
        model = train_multi_kernel(small_benchmark.training, config)
        hotspots = small_benchmark.training.hotspots()
        flags = model.predict(hotspots)
        assert flags.mean() >= 0.9

    def test_missing_class_rejected(self):
        spec = ClipSpec()
        empty = ClipSet(spec)
        with pytest.raises(SvmError):
            train_multi_kernel(empty, DetectorConfig.ours())


class TestFeedback:
    def test_feedback_trains_on_ambit_benchmark(self, ambit_benchmark):
        config = DetectorConfig.ours()
        model = train_multi_kernel(ambit_benchmark.training, config)
        feedback = train_feedback_kernel(model, config)
        assert feedback is not None
        assert feedback.extras_used > 0
        assert feedback.hotspots_used > 0

    def test_feedback_never_reclaims_unknowns(self, ambit_benchmark):
        config = DetectorConfig.ours()
        model = train_multi_kernel(ambit_benchmark.training, config)
        feedback = train_feedback_kernel(model, config)
        if feedback is None:
            pytest.skip("no extras in self-evaluation")
        # a pure-fabric clip is far from the feedback kernel's experience
        from repro.data.synth import build_fabric_clip

        rng = np.random.default_rng(99)
        unknown = build_fabric_clip(rng, config.spec)
        assert feedback.keep_mask([unknown])[0]


class _EveryOtherFeedback:
    """Stub feedback kernel: reclaims every second flagged clip."""

    def keep_mask(self, clips):
        return np.array([i % 2 == 0 for i in range(len(clips))], dtype=bool)


class TestFeedbackFiltering:
    """The feedback stage must filter flags without disturbing clip order."""

    @pytest.fixture(scope="class")
    def fitted(self, small_benchmark):
        detector = HotspotDetector(DetectorConfig.ours())
        detector.fit(small_benchmark.training)
        return detector

    def _reference_filter(self, flags, keep_of):
        """The pre-vectorization cursor loop, kept as the oracle."""
        flags = flags.copy()
        flagged = np.flatnonzero(flags)
        keep = keep_of(len(flagged))
        cursor = 0
        for index in flagged:
            if not keep[cursor]:
                flags[index] = False
            cursor += 1
        return flags

    def test_filtering_preserves_clip_order(self, fitted, small_benchmark):
        clips = (
            small_benchmark.training.hotspots()[:6]
            + small_benchmark.training.non_hotspots()[:6]
        )
        detector = HotspotDetector(fitted.config)
        detector.model_ = fitted.model_
        detector.feedback_ = _EveryOtherFeedback()

        raw = fitted.model_.margins(clips) >= fitted.config.decision_threshold
        expected = self._reference_filter(
            raw, lambda n: [i % 2 == 0 for i in range(n)]
        )
        flags = detector.predict_clips(clips)
        assert np.array_equal(flags, expected)
        # The i-th flag answers the i-th clip: reordering the inputs
        # reorders the flags identically.
        order = np.random.default_rng(7).permutation(len(clips))
        reordered = detector.predict_clips([clips[i] for i in order])
        raw_reordered = raw[order]
        expected_reordered = self._reference_filter(
            raw_reordered, lambda n: [i % 2 == 0 for i in range(n)]
        )
        assert np.array_equal(reordered, expected_reordered)

    def test_real_feedback_matches_reference_loop(self, ambit_benchmark):
        detector = HotspotDetector(DetectorConfig.ours())
        detector.fit(ambit_benchmark.training)
        if detector.feedback_ is None:
            pytest.skip("feedback did not train on this fixture")
        clips = (
            ambit_benchmark.training.hotspots()[:8]
            + ambit_benchmark.training.non_hotspots()[:8]
        )
        raw = detector.model_.margins(clips) >= detector.config.decision_threshold
        flagged = [clip for clip, f in zip(clips, raw) if f]
        keep = detector.feedback_.keep_mask(flagged)
        expected = self._reference_filter(raw, lambda n: keep)
        assert np.array_equal(detector.predict_clips(clips), expected)


class TestDetector:
    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            HotspotDetector().margins([])

    def test_fit_report(self, small_benchmark):
        detector = HotspotDetector(DetectorConfig.ours())
        report = detector.fit(small_benchmark.training)
        assert report.kernels == report.hotspot_clusters
        assert report.upsampled_hotspots == 5 * len(
            small_benchmark.training.hotspots()
        )
        assert report.train_seconds > 0

    def test_detects_planted_hotspots(self, small_benchmark):
        detector = HotspotDetector(DetectorConfig.ours())
        detector.fit(small_benchmark.training)
        result = detector.score(small_benchmark.testing)
        assert result.score is not None
        assert result.score.accuracy >= 0.7
        # extras stay well below the candidate count
        assert result.score.extras < result.extraction.candidate_count * 0.05

    def test_threshold_tradeoff(self, small_benchmark):
        """Higher thresholds cannot increase reports (Fig. 15 monotonicity)."""
        detector = HotspotDetector(DetectorConfig.ours())
        detector.fit(small_benchmark.training)
        low = detector.score(small_benchmark.testing, threshold=-0.25)
        high = detector.score(small_benchmark.testing, threshold=0.75)
        assert high.flagged_before_feedback <= low.flagged_before_feedback
        assert high.score.hits <= low.score.hits

    def test_predict_clips_matches_training_labels(self, small_benchmark):
        detector = HotspotDetector(DetectorConfig.ours())
        detector.fit(small_benchmark.training)
        hotspots = small_benchmark.training.hotspots()
        non_hotspots = small_benchmark.training.non_hotspots()
        assert detector.predict_clips(hotspots).mean() >= 0.9
        assert detector.predict_clips(non_hotspots).mean() <= 0.35

    def test_removal_never_loses_accuracy(self, small_benchmark):
        with_removal = HotspotDetector(DetectorConfig.with_removal())
        without = HotspotDetector(DetectorConfig.with_topology())
        with_removal.fit(small_benchmark.training)
        without.fit(small_benchmark.training)
        scored_with = with_removal.score(small_benchmark.testing)
        scored_without = without.score(small_benchmark.testing)
        assert scored_with.score.hits >= scored_without.score.hits - 1
        assert scored_with.report_count <= scored_without.report_count

    def test_ablation_shape(self, small_benchmark):
        """Table III shape: topology beats the single huge kernel."""
        basic = HotspotDetector(DetectorConfig.basic())
        ours = HotspotDetector(DetectorConfig.ours())
        basic.fit(small_benchmark.training)
        ours.fit(small_benchmark.training)
        basic_result = basic.score(small_benchmark.testing)
        ours_result = ours.score(small_benchmark.testing)
        assert ours_result.score.hit_extra_ratio > basic_result.score.hit_extra_ratio

    def test_empty_layout(self, small_benchmark):
        from repro.layout.layout import Layout

        detector = HotspotDetector(DetectorConfig.ours())
        detector.fit(small_benchmark.training)
        layout = Layout()
        layout.add_rect(1, __import__("repro.geometry.rect", fromlist=["Rect"]).Rect(0, 0, 100, 100))
        report = detector.detect(layout)
        assert report.report_count == 0

    def test_reports_labelled_hotspot(self, small_benchmark):
        detector = HotspotDetector(DetectorConfig.ours())
        detector.fit(small_benchmark.training)
        result = detector.score(small_benchmark.testing)
        assert all(r.label is ClipLabel.HOTSPOT for r in result.reports)
