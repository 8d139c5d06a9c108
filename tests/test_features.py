"""Tests for nontopological features and the vectorization pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FeatureError
from repro.features.nontopo import (
    NONTOPO_SLOTS,
    corner_and_touch_counts,
    extract_nontopo_features,
    min_spacing_from_tilings,
    nontopo_features_from_tilings,
)
from repro.features.vector import (
    TYPE_ORDER,
    FeatureConfig,
    FeatureExtractor,
    FeatureSchema,
)
from repro.mtcg.rules import RULE_RECT_SLOTS, FeatureType
from repro.mtcg.tiles import window_tilings
from repro.geometry.rect import Rect
from repro.layout.clip import Clip, ClipLabel, ClipSpec
from tests import extraction_oracles as oracle
from tests.test_mtcg import tile_sets
from tests.test_topology import messy_patterns

WINDOW = Rect(0, 0, 12, 12)
SPEC = ClipSpec(core_side=12, clip_side=36)


def make_clip(core_rects, ambit_rects=(), label=ClipLabel.HOTSPOT):
    window = SPEC.clip_at(0, 0)
    core = SPEC.core_of(window)
    placed = [r.translated(core.x0, core.y0) for r in core_rects]
    return Clip.build(window, SPEC, list(placed) + list(ambit_rects), label)


class TestNonTopoFeatures:
    def test_single_rect(self):
        features = extract_nontopo_features([Rect(2, 2, 8, 5)], WINDOW)
        assert features.corner_count == 4
        assert features.touch_count == 0
        assert features.min_internal == 3  # the narrow dimension
        assert features.density == pytest.approx(18 / 144)

    def test_l_union_corner_count(self):
        rects = [Rect(0, 0, 4, 2), Rect(0, 2, 2, 4)]  # an L of two rects
        corners, touches = corner_and_touch_counts(rects, Rect(-1, -1, 13, 13))
        assert corners == 6
        assert touches == 0

    def test_touch_point_detected(self):
        rects = [Rect(0, 0, 4, 4), Rect(4, 4, 8, 8)]
        corners, touches = corner_and_touch_counts(rects, Rect(-1, -1, 13, 13))
        assert touches == 1

    def test_window_boundary_vertices_ignored(self):
        corners, touches = corner_and_touch_counts([Rect(0, 0, 12, 12)], WINDOW)
        assert corners == 0 and touches == 0

    def test_min_external_spacing(self):
        features = extract_nontopo_features(
            [Rect(0, 4, 5, 8), Rect(8, 4, 12, 8)], WINDOW
        )
        assert features.min_external == 3

    def test_empty_window_defaults(self):
        features = extract_nontopo_features([], WINDOW)
        assert features.min_internal == 12
        assert features.min_external == 12
        assert features.density == 0.0

    def test_as_list_length(self):
        features = extract_nontopo_features([Rect(1, 1, 4, 4)], WINDOW)
        assert len(features.as_list()) == NONTOPO_SLOTS


class TestNonTopoAgainstReference:
    """Lattice lookups and edge buckets equal the rescanning references."""

    @given(messy_patterns())
    @settings(max_examples=400, deadline=None)
    def test_corner_and_touch_counts(self, pattern):
        rects, window = pattern
        assert corner_and_touch_counts(rects, window) == oracle.corner_and_touch_counts(
            rects, window
        )
        assert corner_and_touch_counts(rects) == oracle.corner_and_touch_counts(rects)

    @given(messy_patterns())
    @settings(max_examples=300, deadline=None)
    def test_min_spacing_on_tilings(self, pattern):
        rects, window = pattern
        h_tiling, v_tiling = window_tilings(rects, window)
        assert min_spacing_from_tilings(h_tiling, v_tiling, -1) == (
            oracle.min_spacing_from_tilings(h_tiling, v_tiling, -1)
        )

    @given(tile_sets(), tile_sets())
    @settings(max_examples=300, deadline=None)
    def test_min_spacing_on_arbitrary_tile_sets(self, h_tiling, v_tiling):
        assert min_spacing_from_tilings(h_tiling, v_tiling, -1) == (
            oracle.min_spacing_from_tilings(h_tiling, v_tiling, -1)
        )

    @given(messy_patterns())
    @settings(max_examples=300, deadline=None)
    def test_nontopo_extraction(self, pattern):
        rects, window = pattern
        expected = oracle.extract_nontopo_features(rects, window)
        assert extract_nontopo_features(rects, window) == expected
        clipped = [r for r in (rect.intersection(window) for rect in rects) if r]
        shared = nontopo_features_from_tilings(
            clipped, window, *window_tilings(clipped, window)
        )
        assert shared == expected


class TestFeatureConfig:
    def test_bad_region_rejected(self):
        with pytest.raises(FeatureError):
            FeatureConfig(region="nope")

    def test_bad_resolution_rejected(self):
        with pytest.raises(FeatureError):
            FeatureConfig(density_resolution=0)

    def test_negative_context_margin_rejected(self):
        with pytest.raises(FeatureError):
            FeatureConfig(context_margin=-1)


class TestExtractor:
    def test_extract_core_region(self):
        clip = make_clip([Rect(2, 2, 6, 6)], ambit_rects=[Rect(0, 0, 3, 3)])
        extractor = FeatureExtractor(FeatureConfig(region="core"))
        extraction = extractor.extract(clip)
        # the ambit rect must not affect core density
        assert extraction.nontopo.density == pytest.approx(16 / 144)

    def test_extract_clip_region_sees_ambit(self):
        clip = make_clip([Rect(2, 2, 6, 6)], ambit_rects=[Rect(0, 0, 3, 3)])
        core_only = FeatureExtractor(FeatureConfig(region="core")).extract(clip)
        whole = FeatureExtractor(FeatureConfig(region="clip")).extract(clip)
        assert whole.nontopo.density != core_only.nontopo.density

    def test_context_region_between(self):
        clip = make_clip([Rect(2, 2, 6, 6)], ambit_rects=[Rect(0, 0, 3, 3)])
        context = FeatureExtractor(
            FeatureConfig(region="context", context_margin=6)
        ).extract(clip)
        # context window is core expanded by 6: covers the ambit rect fully
        assert context.nontopo.density > 0

    def test_canonical_orientation_makes_congruent_equal(self):
        from repro.geometry.transform import Orientation

        clip = make_clip([Rect(0, 0, 3, 12), Rect(5, 4, 11, 6)])
        rotated = clip.oriented(Orientation.R90)
        extractor = FeatureExtractor(FeatureConfig(canonical_orientation=True))
        a = extractor.extract(clip)
        b = extractor.extract(rotated)
        assert a.rules == b.rules

    def test_without_canonical_orientation_differs(self):
        from repro.geometry.transform import Orientation

        clip = make_clip([Rect(0, 0, 3, 12), Rect(5, 4, 11, 6)])
        rotated = clip.oriented(Orientation.R90)
        extractor = FeatureExtractor(FeatureConfig(canonical_orientation=False))
        assert extractor.extract(clip).rules != extractor.extract(rotated).rules


class TestSchemaAndVectorize:
    def test_schema_from_extractions_takes_max(self):
        extractor = FeatureExtractor(FeatureConfig())
        one = extractor.extract(make_clip([Rect(4, 4, 8, 8)]))
        many = extractor.extract(
            make_clip([Rect(1, 1, 3, 5), Rect(5, 1, 7, 9), Rect(9, 1, 11, 5)])
        )
        schema = FeatureSchema.from_extractions([one, many])
        for ftype in TYPE_ORDER:
            assert schema.counts[ftype] >= one.count_of(ftype)
            assert schema.counts[ftype] >= many.count_of(ftype)

    def test_vector_length_matches_schema(self):
        extractor = FeatureExtractor(FeatureConfig())
        clip = make_clip([Rect(4, 4, 8, 8)])
        matrix, schema = extractor.build_matrix([extractor.extract(clip)])
        assert matrix.shape == (1, schema.vector_length(extractor.config))

    def test_padding_for_sparse_patterns(self):
        extractor = FeatureExtractor(FeatureConfig())
        rich = make_clip([Rect(1, 1, 3, 5), Rect(5, 1, 7, 9), Rect(9, 1, 11, 5)])
        sparse = make_clip([Rect(4, 4, 8, 8)])
        matrix, schema = extractor.build_matrix(
            [extractor.extract(rich), extractor.extract(sparse)]
        )
        assert matrix.shape[0] == 2
        assert matrix.shape[1] == schema.vector_length(extractor.config)

    def test_truncation_beyond_schema(self):
        extractor = FeatureExtractor(FeatureConfig())
        rich = make_clip([Rect(1, 1, 3, 5), Rect(5, 1, 7, 9), Rect(9, 1, 11, 5)])
        small_schema = FeatureSchema({ftype: 1 for ftype in TYPE_ORDER})
        vector = extractor.vectorize_clip(rich, small_schema)
        assert len(vector) == 4 * RULE_RECT_SLOTS + NONTOPO_SLOTS

    def test_density_grid_block_appended(self):
        config = FeatureConfig(include_density_grid=True, density_resolution=6)
        extractor = FeatureExtractor(config)
        clip = make_clip([Rect(4, 4, 8, 8)])
        matrix, schema = extractor.build_matrix([extractor.extract(clip)])
        assert matrix.shape[1] == schema.vector_length(config)
        assert matrix.shape[1] >= 36

    def test_empty_population(self):
        extractor = FeatureExtractor(FeatureConfig())
        matrix, schema = extractor.build_matrix([])
        assert matrix.shape[0] == 0

    def test_identical_clips_identical_vectors(self):
        extractor = FeatureExtractor(FeatureConfig())
        clip = make_clip([Rect(2, 2, 6, 10)])
        matrix, _ = extractor.build_matrix(
            [extractor.extract(clip), extractor.extract(clip)]
        )
        assert np.array_equal(matrix[0], matrix[1])


def messy_clips():
    """Clips whose rects overlap, touch and cross the core and clip edges."""
    coordinate = st.integers(-4, 40)
    box = st.tuples(coordinate, coordinate, st.integers(1, 14), st.integers(1, 14))
    return st.lists(box, max_size=10).map(
        lambda raw: Clip.build(
            SPEC.clip_at(0, 0), SPEC, [Rect(x, y, x + w, y + h) for x, y, w, h in raw]
        )
    )


class TestExtractorAgainstReference:
    """One clip, one window clip, one pair of tilings: the same features as
    tiling once per feature set with the reference primitives."""

    @pytest.mark.parametrize(
        "config",
        [
            FeatureConfig(),
            FeatureConfig(region="context", context_margin=6, diagonal_max_gap=4),
            FeatureConfig(region="clip", canonical_orientation=False, diagonal_max_gap=None),
        ],
        ids=["core", "context", "clip"],
    )
    @given(clip=messy_clips())
    @settings(max_examples=150, deadline=None)
    def test_extraction_matches_reference(self, config, clip):
        extractor = FeatureExtractor(config)
        assert extractor._extract_uncached(clip) == oracle.extract_uncached(extractor, clip)
