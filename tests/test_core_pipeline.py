"""Tests for resampling, extraction, removal — the core pipeline stages."""

import pytest

from repro.core.config import DetectorConfig, ExtractionConfig, RemovalConfig
from repro.core.extraction import extract_candidate_clips
from repro.core.removal import (
    discard_redundant,
    merge_into_regions,
    reframe_region,
    region_frame,
    remove_redundant_clips,
    shift_to_gravity,
)
from repro.core.resample import (
    balancing_class_weights,
    downsample_to_centroids,
    shift_derivatives,
    upsample_hotspots,
)
from repro.errors import ConfigError
from repro.geometry.rect import Rect
from repro.layout.clip import Clip, ClipLabel, ClipSpec
from repro.layout.layout import Layout
from repro.topology.cluster import ClassifierConfig, TopologicalClassifier

SPEC = ClipSpec(core_side=1200, clip_side=4800)


class TestConfigs:
    def test_defaults_match_paper(self):
        config = DetectorConfig()
        assert config.svm.initial_c == 1000.0
        assert config.svm.initial_gamma == 0.01
        assert config.classifier.expected_cluster_count == 10
        assert config.shift_amount == 120  # lc / 10
        assert config.extraction.max_boundary_distance == 1440
        assert config.removal.min_merge_overlap == pytest.approx(0.20)
        assert config.removal.reframe_separation == 1150

    def test_named_operating_points(self):
        assert DetectorConfig.ours_low().decision_threshold > DetectorConfig.ours_med().decision_threshold
        assert DetectorConfig.basic().use_topology is False
        assert DetectorConfig.with_topology().use_removal is False
        assert DetectorConfig.with_removal().use_feedback is False
        assert DetectorConfig.with_removal().use_removal is True

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExtractionConfig(min_core_density=0.9, max_core_density=0.1)
        with pytest.raises(ConfigError):
            RemovalConfig(min_merge_overlap=0.0)
        with pytest.raises(ConfigError):
            RemovalConfig(reframe_separation=0)
        with pytest.raises(ConfigError):
            DetectorConfig(shift_amount=-1)

    def test_reframe_separation_must_beat_core(self):
        with pytest.raises(ConfigError):
            DetectorConfig(
                removal=RemovalConfig(reframe_separation=1300)
            )


class TestResample:
    def make_clip(self, label=ClipLabel.HOTSPOT):
        return Clip.build(
            SPEC.clip_at(0, 0), SPEC, [Rect(2000, 2000, 2400, 2600)], label
        )

    def test_shift_derivatives_count(self):
        assert len(shift_derivatives(self.make_clip(), 120)) == 5
        assert len(shift_derivatives(self.make_clip(), 0)) == 1

    def test_shift_directions(self):
        clip = self.make_clip()
        derivatives = shift_derivatives(clip, 120)
        windows = {d.window.lower_left for d in derivatives}
        assert len(windows) == 5  # original plus 4 distinct shifts

    def test_upsample(self):
        clips = [self.make_clip(), self.make_clip()]
        assert len(upsample_hotspots(clips, 120)) == 10

    def test_downsample_to_centroids(self):
        clips = [
            self.make_clip(ClipLabel.NON_HOTSPOT),
            self.make_clip(ClipLabel.NON_HOTSPOT),
        ]
        classifier = TopologicalClassifier(
            ClassifierConfig(grid_resolution=12, radius_threshold=100.0)
        )
        clusters = classifier.classify(clips)
        centroids = downsample_to_centroids(clips, clusters)
        assert len(centroids) == len(clusters) == 1

    def test_class_weights(self):
        assert balancing_class_weights(10, 100) == {1: 10.0}
        assert balancing_class_weights(100, 10) == {-1: 10.0}
        assert balancing_class_weights(0, 10) == {}


class TestExtraction:
    #: Permissive requirements for structural tests; the paper-default
    #: thresholds are exercised separately below.
    OPEN = ExtractionConfig(
        min_core_density=0.0, min_polygon_count=0, max_boundary_distance=10_000
    )

    def build_layout(self):
        layout = Layout()
        # A small cross of wires in an otherwise empty region.
        layout.add_rect(1, Rect(10000, 10000, 10100, 12000))
        layout.add_rect(1, Rect(9000, 10900, 12000, 11000))
        return layout

    def test_candidates_extracted(self):
        report = extract_candidate_clips(self.build_layout(), SPEC, self.OPEN)
        assert report.candidate_count > 0
        assert report.anchor_count >= report.candidate_count

    def test_anchors_at_rect_corners(self):
        report = extract_candidate_clips(self.build_layout(), SPEC, self.OPEN)
        anchors = {(c.core.x0, c.core.y0) for c in report.clips}
        assert (10000, 10000) in anchors

    def test_density_filter(self):
        config = ExtractionConfig(min_core_density=0.5)  # nothing this dense
        report = extract_candidate_clips(self.build_layout(), SPEC, config)
        assert report.candidate_count == 0
        assert report.rejected_density > 0

    def test_count_filter(self):
        config = ExtractionConfig(min_polygon_count=50)
        report = extract_candidate_clips(self.build_layout(), SPEC, config)
        assert report.candidate_count == 0
        assert report.rejected_count > 0

    def test_boundary_filter(self):
        # Geometry hugging one clip corner fails the bbox-proximity rule.
        layout = Layout()
        layout.add_rect(1, Rect(0, 0, 100, 100))
        layout.add_rect(1, Rect(150, 150, 220, 260))
        config = ExtractionConfig(
            min_core_density=0.0, min_polygon_count=0, max_boundary_distance=1000
        )
        report = extract_candidate_clips(layout, SPEC, config)
        assert report.rejected_boundary > 0


def report_clip(x, y, rects=()):
    core = Rect(x, y, x + 1200, y + 1200)
    return Clip.build(SPEC.clip_for_core(core), SPEC, rects)


class TestRemoval:
    def test_merge_regions_by_overlap(self):
        reports = [report_clip(0, 0), report_clip(200, 0), report_clip(5000, 5000)]
        regions = merge_into_regions(reports, 0.2)
        sizes = sorted(len(r) for r in regions)
        assert sizes == [1, 2]

    def test_merge_respects_threshold(self):
        # 200/1200 overlap = 83% in x, full y -> merged at 0.2; a 1100
        # offset leaves ~8% overlap -> not merged.
        reports = [report_clip(0, 0), report_clip(1100, 0)]
        assert len(merge_into_regions(reports, 0.2)) == 2

    def test_region_frame(self):
        reports = [report_clip(0, 0), report_clip(300, 300)]
        frame = region_frame(reports, [0, 1])
        assert frame == Rect(0, 0, 1500, 1500)

    def test_reframe_covers_region(self):
        """Any core-sized box inside the frame overlaps a reframed core."""
        frame = Rect(0, 0, 4000, 2600)
        clips = reframe_region(frame, SPEC, 1150, lambda core: report_clip(core.x0, core.y0))
        for x in range(0, 4000 - 1200, 137):
            for y in range(0, 2600 - 1200, 171):
                probe = Rect(x, y, x + 1200, y + 1200)
                assert any(c.core.overlaps(probe) for c in clips)

    def test_reframe_small_frame_single_core(self):
        frame = Rect(0, 0, 1200, 1200)
        clips = reframe_region(frame, SPEC, 1150, lambda core: report_clip(core.x0, core.y0))
        assert len(clips) == 1

    def test_discard_redundant_drops_covered(self):
        shared = [Rect(500, 500, 700, 700)]
        a = report_clip(0, 0, shared)
        b = report_clip(100, 0, shared)
        c = report_clip(50, 0, shared)  # corners and polygons covered by a+b
        kept = discard_redundant([a, b, c])
        assert len(kept) == 2

    def test_discard_keeps_sole_coverage(self):
        a = report_clip(0, 0, [Rect(10, 10, 100, 100)])
        b = report_clip(5000, 5000, [Rect(5100, 5100, 5200, 5200)])
        assert len(discard_redundant([a, b])) == 2

    def test_shift_to_gravity_recentres(self):
        # geometry crammed into one corner of the clip
        rects = [Rect(-1500, -1500, -1200, -1200)]
        clip = Clip.build(SPEC.clip_at(-1800, -1800), SPEC, rects)
        config = RemovalConfig(max_boundary_distance=500)
        factory = lambda core: Clip.build(SPEC.clip_for_core(core), SPEC, rects)
        moved = shift_to_gravity(clip, config, factory)
        assert moved.window.center.manhattan_distance(
            Rect(-1500, -1500, -1200, -1200).center
        ) < clip.window.center.manhattan_distance(
            Rect(-1500, -1500, -1200, -1200).center
        )

    def test_full_removal_reduces_dense_cluster(self):
        """> threshold strongly-overlapping reports collapse (Fig. 12)."""
        shared = [Rect(600, 600, 800, 800)]
        reports = [report_clip(60 * i, 40 * i, shared) for i in range(8)]
        config = RemovalConfig()
        factory = lambda core: Clip.build(SPEC.clip_for_core(core), SPEC, shared)
        kept = remove_redundant_clips(reports, SPEC, config, factory)
        assert 1 <= len(kept) < 8
        # coverage guarantee: the shared geometry is still inside some core
        assert any(k.core.contains_rect(shared[0]) for k in kept)

    def test_removal_empty_input(self):
        assert remove_redundant_clips([], SPEC, RemovalConfig(), lambda c: None) == []
