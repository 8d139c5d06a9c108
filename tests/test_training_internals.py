"""Focused tests for training internals: gating, margins, scaling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cache.keys import model_fingerprint
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.training import (
    GATED_OUT,
    core_string_key,
    train_multi_kernel,
)
from repro.data.benchmarks import benchmark_config, generate_training_set
from repro.features.vector import FeatureExtractor
from repro.geometry.rect import Rect
from repro.layout.clip import Clip, ClipLabel, ClipSet, ClipSpec
from repro.svm.scaling import MinMaxScaler
from tests import extraction_oracles as oracle

SPEC = ClipSpec(core_side=1200, clip_side=4800)


def clip_with(rects, label=ClipLabel.HOTSPOT, origin=(0, 0)):
    window = SPEC.clip_at(*origin)
    core = SPEC.core_of(window)
    placed = [r.translated(core.x0, core.y0) for r in rects]
    return Clip.build(window, SPEC, placed, label)


def tiny_training_set():
    """Two hotspot families plus nonhotspots, all structurally distinct."""
    training = ClipSet(SPEC)
    # family A: two horizontal bars with a tight gap
    for gap in (50, 60, 70):
        training.add(
            clip_with([Rect(0, 500, 550, 580), Rect(550 + gap, 500, 1100, 580)])
        )
    # family B: vertical bar pair
    for gap in (50, 60, 70):
        training.add(
            clip_with([Rect(500, 0, 580, 550), Rect(500, 550 + gap, 580, 1100)])
        )
    # nonhotspots: same families, safe gaps, plus a plain grid
    for gap in (200, 260, 300, 240):
        training.add(
            clip_with(
                [Rect(0, 500, 500, 580), Rect(500 + gap, 500, 1100, 580)],
                ClipLabel.NON_HOTSPOT,
            )
        )
        training.add(
            clip_with(
                [Rect(500, 0, 580, 500), Rect(500, 500 + gap, 580, 1100)],
                ClipLabel.NON_HOTSPOT,
            )
        )
    for rows in (3, 4):
        training.add(
            clip_with(
                [Rect(0, i * 300, 1100, i * 300 + 90) for i in range(rows)],
                ClipLabel.NON_HOTSPOT,
            )
        )
    return training


class TestGating:
    @pytest.fixture(scope="class")
    def model(self):
        return train_multi_kernel(tiny_training_set(), DetectorConfig.ours())

    def test_alien_topology_gets_gated_out(self, model):
        alien = clip_with(
            [Rect(100, 100, 300, 1000), Rect(500, 100, 1000, 300), Rect(700, 600, 900, 1000)]
        )
        margins = model.kernel_margins([alien])
        assert np.all(margins == GATED_OUT)

    def test_known_topology_gets_judged(self, model):
        known = clip_with([Rect(0, 500, 540, 580), Rect(610, 500, 1100, 580)])
        margins = model.kernel_margins([known])
        assert (margins > GATED_OUT).any()

    def test_margins_empty_input(self, model):
        assert model.margins([]).shape == (0,)

    def test_kernel_own_hotspots_positive(self, model):
        for kernel in model.kernels:
            cluster = model.hotspot_clusters[kernel.cluster_index]
            members = [model.hotspot_clips[i] for i in cluster.members]
            margins = model.margins(members)
            assert (margins >= 0).mean() >= 0.8

    def test_core_string_key_translation_invariant(self):
        a = clip_with([Rect(100, 100, 400, 200)])
        b = clip_with([Rect(100, 100, 400, 200)], origin=(7000, 9000))
        assert core_string_key(a) == core_string_key(b)


class TestMinMaxScaler:
    def test_maps_to_unit_interval(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5, 20, (50, 4))
        scaled = MinMaxScaler().fit_transform(x)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        assert np.allclose(scaled.min(axis=0), 0.0)
        assert np.allclose(scaled.max(axis=0), 1.0)

    def test_constant_column(self):
        x = np.array([[1.0, 7.0], [2.0, 7.0]])
        scaled = MinMaxScaler().fit_transform(x)
        assert np.allclose(scaled[:, 1], 0.0)

    def test_out_of_range_extrapolates(self):
        scaler = MinMaxScaler().fit(np.array([[0.0], [10.0]]))
        assert scaler.transform(np.array([[20.0]]))[0, 0] == pytest.approx(2.0)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_transform_is_affine_monotone(self, values):
        x = np.array(values)[:, None]
        scaled = MinMaxScaler().fit_transform(x)
        order = np.argsort(x[:, 0])
        assert np.all(np.diff(scaled[order, 0]) >= -1e-12)


class TestBasicVariant:
    def test_basic_judges_everything(self):
        model = train_multi_kernel(tiny_training_set(), DetectorConfig.basic())
        alien = clip_with(
            [Rect(100, 100, 300, 1000), Rect(500, 100, 1000, 300), Rect(700, 600, 900, 1000)]
        )
        margins = model.kernel_margins([alien])
        assert np.all(margins > GATED_OUT)

    def test_basic_no_upsampling(self):
        training = tiny_training_set()
        model = train_multi_kernel(training, DetectorConfig.basic())
        assert len(model.hotspot_clips) == len(training.hotspots())


class TestFitExtraction:
    """A fit extracts each training clip once, with the one-pass extraction."""

    @pytest.fixture(scope="class")
    def traced_fit(self):
        training = generate_training_set(benchmark_config("benchmark4"), 0.3)
        tracer = obs.set_tracer(obs.Tracer(max_spans=100_000))
        try:
            detector = HotspotDetector(DetectorConfig.ours())
            detector.fit(training)
        finally:
            obs.set_tracer(None)
        return training, detector, tracer

    def test_each_training_clip_extracted_once(self, traced_fit):
        # Every kernel shares the centroid extractions, and the feedback
        # self-evaluation reuses them: one extraction per upsampled
        # hotspot and centroid, plus the feedback kernel's own clips.
        _, detector, tracer = traced_fit
        model, feedback = detector.model_, detector.feedback_
        assert feedback is not None and len(model.kernels) > 1
        expected = (
            len(model.hotspot_clips)
            + len(model.nonhotspot_centroids)
            + feedback.hotspots_used
            + feedback.extras_used
        )
        assert tracer.stage_totals()["mtcg.features"]["count"] == expected

    def test_reference_primitives_fit_the_same_model(self, traced_fit, monkeypatch):
        training, detector, _ = traced_fit
        monkeypatch.setattr(FeatureExtractor, "_extract_uncached", oracle.extract_uncached)
        reference = HotspotDetector(DetectorConfig.ours())
        reference.fit(training)
        probe = reference.model_.nonhotspot_centroids + reference.model_.hotspot_clips
        expected = reference.feedback_.margins(probe)
        monkeypatch.undo()
        assert model_fingerprint(detector.model_) == model_fingerprint(reference.model_)
        assert np.array_equal(detector.feedback_.margins(probe), expected)

