"""Tests for the layout model: clips, spatial index, layout, serialisation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LayoutError
from repro.geometry.dissect import disjoint_cover
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.transform import Orientation
from repro.layout.clip import Clip, ClipLabel, ClipSet, ClipSpec
from repro.layout.io import (
    clipset_from_json,
    clipset_to_json,
    clipset_to_library,
    layout_to_library,
    library_to_clipset,
    library_to_layout,
)
from repro.layout.layout import Layout
from repro.layout.spatial import RectIndex

SPEC = ClipSpec(core_side=4, clip_side=12)


class TestClipSpec:
    def test_iccad_defaults(self):
        spec = ClipSpec()
        assert spec.core_side == 1200
        assert spec.clip_side == 4800
        assert spec.ambit_margin == 1800

    def test_core_centred(self):
        window = SPEC.clip_at(0, 0)
        assert SPEC.core_of(window) == Rect(4, 4, 8, 8)

    def test_clip_for_core_roundtrip(self):
        core = Rect(100, 200, 104, 204)
        assert SPEC.core_of(SPEC.clip_for_core(core)) == core

    def test_clip_for_wrong_core_size(self):
        with pytest.raises(LayoutError):
            SPEC.clip_for_core(Rect(0, 0, 5, 4))

    def test_odd_margin_rejected(self):
        with pytest.raises(LayoutError):
            ClipSpec(core_side=4, clip_side=11)

    def test_core_bigger_than_clip_rejected(self):
        with pytest.raises(LayoutError):
            ClipSpec(core_side=20, clip_side=12)


class TestClip:
    def make(self, rects, label=ClipLabel.UNKNOWN):
        return Clip.build(SPEC.clip_at(0, 0), SPEC, rects, label)

    def test_build_clips_geometry_to_window(self):
        clip = self.make([Rect(-5, -5, 5, 5)])
        assert clip.rects == (Rect(0, 0, 5, 5),)

    def test_wrong_window_size_rejected(self):
        with pytest.raises(LayoutError):
            Clip.build(Rect(0, 0, 10, 10), SPEC, [])

    def test_core_and_ambit_partition(self):
        clip = self.make([Rect(2, 2, 10, 10)])
        core_area = sum(r.area for r in clip.core_rects())
        ambit_area = sum(r.area for r in clip.ambit_rects())
        assert core_area + ambit_area == 64
        assert core_area == 16  # the core is fully covered

    def test_ambit_pieces_disjoint_from_core(self):
        clip = self.make([Rect(2, 2, 10, 10)])
        core = clip.core
        for piece in clip.ambit_rects():
            assert not piece.overlaps(core)

    def test_density(self):
        clip = self.make([Rect(0, 0, 6, 12)])
        assert clip.clip_density() == pytest.approx(0.5)

    def test_core_density_grid_shape(self):
        clip = self.make([Rect(4, 4, 6, 8)])
        grid = clip.core_density_grid(2)
        assert grid.shape == (2, 2)
        assert grid.sum() > 0

    def test_overlapping_input_resolved(self):
        clip = self.make([Rect(0, 0, 6, 6), Rect(3, 3, 9, 9)])
        for i, a in enumerate(clip.rects):
            for b in clip.rects[i + 1 :]:
                assert not a.overlaps(b)
        assert sum(r.area for r in clip.rects) == 36 + 36 - 9

    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 14), st.integers(-3, 14),
                st.integers(1, 8), st.integers(1, 8),
            ),
            max_size=10,
        ).flatmap(st.permutations)
    )
    @settings(max_examples=400, deadline=None)
    def test_build_matches_pairwise_reference(self, raw):
        # The replaced pairwise check, then the cover in input order, then
        # sorted: the sweep must give the same rects tuple on any order.
        rects = [Rect(x, y, x + w, y + h) for x, y, w, h in raw]
        window = SPEC.clip_at(0, 0)
        clipped = [r for r in (rect.intersection(window) for rect in rects) if r]
        if any(a.overlaps(b) for i, a in enumerate(clipped) for b in clipped[i + 1 :]):
            clipped = disjoint_cover(clipped)
        assert Clip.build(window, SPEC, rects).rects == tuple(sorted(clipped))

    def test_shifted_content_moves(self):
        clip = self.make([Rect(5, 5, 7, 7)])
        shifted = clip.shifted(2, 0)
        # content appears shifted +2 in x relative to the (moved) window
        normal = shifted.normalized()
        assert normal.rects == (Rect(7, 5, 9, 7),)

    def test_shift_clips_escaping_geometry(self):
        clip = self.make([Rect(11, 0, 12, 1)])
        shifted = clip.shifted(5, 0)
        assert shifted.rects == ()

    def test_oriented_preserves_area(self):
        clip = self.make([Rect(0, 0, 3, 2), Rect(8, 9, 11, 12)])
        for orientation in Orientation:
            oriented = clip.oriented(orientation)
            assert sum(r.area for r in oriented.rects) == 15

    def test_content_key_position_independent(self):
        a = Clip.build(SPEC.clip_at(0, 0), SPEC, [Rect(1, 1, 3, 3)])
        b = Clip.build(SPEC.clip_at(100, 50), SPEC, [Rect(101, 51, 103, 53)])
        assert a.content_key() == b.content_key()

    def test_with_label(self):
        clip = self.make([Rect(1, 1, 2, 2)])
        assert clip.with_label(ClipLabel.HOTSPOT).label is ClipLabel.HOTSPOT


class TestClipSet:
    def test_split(self):
        cs = ClipSet(SPEC)
        cs.add(Clip.build(SPEC.clip_at(0, 0), SPEC, [Rect(1, 1, 2, 2)], ClipLabel.HOTSPOT))
        cs.add(Clip.build(SPEC.clip_at(0, 0), SPEC, [Rect(1, 1, 2, 2)], ClipLabel.NON_HOTSPOT))
        cs.add(Clip.build(SPEC.clip_at(0, 0), SPEC, [Rect(1, 1, 2, 2)]))
        hs, nhs = cs.split()
        assert len(hs) == 1 and len(nhs) == 1
        assert len(cs) == 3

    def test_mismatched_spec_rejected(self):
        cs = ClipSet(SPEC)
        other = ClipSpec(core_side=2, clip_side=12)
        with pytest.raises(LayoutError):
            cs.add(Clip.build(other.clip_at(0, 0), other, []))


class TestRectIndex:
    def test_query_finds_overlaps(self):
        index = RectIndex([Rect(0, 0, 10, 10), Rect(100, 100, 110, 110)], bucket_size=16)
        found = index.query(Rect(5, 5, 20, 20))
        assert found == [Rect(0, 0, 10, 10)]

    def test_query_touching(self):
        index = RectIndex([Rect(0, 0, 10, 10)], bucket_size=16)
        assert index.query(Rect(10, 0, 20, 10)) == []
        assert index.query_touching(Rect(10, 0, 20, 10)) == [Rect(0, 0, 10, 10)]

    def test_negative_coordinates(self):
        index = RectIndex([Rect(-50, -50, -40, -40)], bucket_size=16)
        assert index.query(Rect(-45, -45, -30, -30)) == [Rect(-50, -50, -40, -40)]

    def test_any_overlap(self):
        index = RectIndex([Rect(0, 0, 4, 4)], bucket_size=8)
        assert index.any_overlap(Rect(2, 2, 6, 6))
        assert not index.any_overlap(Rect(10, 10, 12, 12))

    def test_invalid_bucket_size(self):
        with pytest.raises(LayoutError):
            RectIndex([], bucket_size=0)

    @given(
        st.lists(
            st.tuples(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 20), st.integers(1, 20)),
            max_size=20,
        ),
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    )
    def test_matches_linear_scan(self, raw, origin):
        rects = [Rect(x, y, x + w, y + h) for x, y, w, h in raw]
        index = RectIndex(rects, bucket_size=13)
        window = Rect(origin[0], origin[1], origin[0] + 25, origin[1] + 25)
        expected = sorted(r for r in rects if r.overlaps(window))
        assert sorted(index.query(window)) == expected


class TestLayout:
    def test_polygon_dissected(self):
        layout = Layout()
        layout.add_polygon(1, Polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)]))
        assert layout.rect_count(1) == 2
        assert layout.polygon_count(1) == 1

    def test_bbox(self):
        layout = Layout()
        layout.add_rect(1, Rect(0, 0, 5, 5))
        layout.add_rect(2, Rect(50, 50, 60, 60))
        assert layout.bbox(1) == Rect(0, 0, 5, 5)
        assert layout.bbox() == Rect(0, 0, 60, 60)

    def test_unknown_layer_raises(self):
        layout = Layout()
        with pytest.raises(LayoutError):
            layout.index(3)

    def test_index_invalidated_on_add(self):
        layout = Layout()
        layout.add_rect(1, Rect(0, 0, 5, 5))
        assert len(layout.rects_in_window(1, Rect(0, 0, 10, 10))) == 1
        layout.add_rect(1, Rect(6, 6, 8, 8))
        assert len(layout.rects_in_window(1, Rect(0, 0, 10, 10))) == 2

    def test_cut_clip(self):
        layout = Layout()
        layout.add_rect(1, Rect(5, 5, 7, 7))
        clip = layout.cut_clip(SPEC, SPEC.clip_at(0, 0), layer=1)
        assert clip.rects == (Rect(5, 5, 7, 7),)

    def test_cut_clip_at_core(self):
        layout = Layout()
        layout.add_rect(1, Rect(100, 100, 102, 102))
        clip = layout.cut_clip_at_core(SPEC, Rect(100, 100, 104, 104), layer=1)
        assert clip.core == Rect(100, 100, 104, 104)
        assert clip.rects == (Rect(100, 100, 102, 102),)


class TestSerialisation:
    def build_clipset(self):
        cs = ClipSet(SPEC)
        cs.add(
            Clip.build(SPEC.clip_at(0, 0), SPEC, [Rect(1, 1, 3, 3)], ClipLabel.HOTSPOT)
        )
        cs.add(
            Clip.build(
                SPEC.clip_at(20, 20), SPEC, [Rect(22, 21, 25, 28)], ClipLabel.NON_HOTSPOT
            )
        )
        return cs

    def test_json_roundtrip(self):
        cs = self.build_clipset()
        again = clipset_from_json(clipset_to_json(cs))
        assert again.spec == cs.spec
        assert [c.rects for c in again] == [c.rects for c in cs]
        assert [c.label for c in again] == [c.label for c in cs]

    def test_json_malformed_raises(self):
        with pytest.raises(LayoutError):
            clipset_from_json('{"nope": 1}')

    def test_gds_clipset_roundtrip(self):
        cs = self.build_clipset()
        library = clipset_to_library(cs)
        again = library_to_clipset(library, SPEC)
        assert [c.rects for c in again] == [c.rects for c in cs]
        assert [c.label for c in again] == [c.label for c in cs]
        assert [c.window for c in again] == [c.window for c in cs]

    def test_layout_gds_roundtrip(self):
        layout = Layout()
        layout.add_rect(1, Rect(0, 0, 10, 5))
        layout.add_rect(2, Rect(20, 20, 25, 40))
        library = layout_to_library(layout)
        again = library_to_layout(library)
        assert again.layer_numbers() == [1, 2]
        assert again.bbox() == layout.bbox()
        assert again.rect_count() == 2
