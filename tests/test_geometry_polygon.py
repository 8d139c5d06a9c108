"""Unit and property tests for polygons, dissection, and transforms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry.dissect import (
    cut_to_max_size,
    disjoint_cover,
    dissect_polygon,
    horizontal_slices,
    merge_vertical,
    rects_cover_polygon,
    subtract_rect,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.transform import (
    ALL_ORIENTATIONS,
    Orientation,
    canonical_form,
    compose,
    transform_rect_in_window,
    transform_rects_in_window,
)
from tests import extraction_oracles as oracle
from tests.test_topology import messy_patterns


L_SHAPE = Polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
T_SHAPE = Polygon([(0, 0), (6, 0), (6, 2), (4, 2), (4, 5), (2, 5), (2, 2), (0, 2)])


class TestPolygon:
    def test_area_l_shape(self):
        assert L_SHAPE.area == 12

    def test_area_rect(self):
        assert Polygon.from_rect(Rect(1, 1, 5, 4)).area == 12

    @given(
        st.integers(-10_000, 10_000),
        st.integers(-10_000, 10_000),
        st.integers(1, 5_000),
        st.integers(1, 5_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_rect_equals_checked_constructor(self, x, y, w, h):
        rect = Rect(x, y, x + w, y + h)
        built, checked = Polygon.from_rect(rect), Polygon(rect.corners())
        assert built == checked
        assert built.vertices == checked.vertices
        assert built.area == rect.area

    def test_clockwise_input_normalised(self):
        ccw = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        cw = Polygon([(0, 0), (0, 4), (4, 4), (4, 0)])
        assert ccw == cw
        assert cw.area == 16

    def test_collinear_vertices_dropped(self):
        p = Polygon([(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)])
        assert p.num_vertices == 4

    def test_non_rectilinear_raises(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (4, 1), (4, 4), (0, 4)])

    def test_too_few_vertices_raises(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (4, 0), (4, 4)])

    def test_contains_point(self):
        assert L_SHAPE.contains_point(Point(1, 1))
        assert L_SHAPE.contains_point(Point(3, 1))
        assert not L_SHAPE.contains_point(Point(3, 3))
        # boundary counts as inside
        assert L_SHAPE.contains_point(Point(0, 0))

    def test_translated(self):
        moved = L_SHAPE.translated(10, 20)
        assert moved.bbox() == Rect(10, 20, 14, 24)
        assert moved.area == L_SHAPE.area


class TestDissection:
    def test_rect_single_slice(self):
        poly = Polygon.from_rect(Rect(0, 0, 10, 4))
        assert dissect_polygon(poly) == [Rect(0, 0, 10, 4)]

    def test_l_shape_cover(self):
        rects = dissect_polygon(L_SHAPE)
        assert rects_cover_polygon(L_SHAPE, rects)

    def test_t_shape_cover(self):
        rects = dissect_polygon(T_SHAPE)
        assert rects_cover_polygon(T_SHAPE, rects)

    def test_horizontal_slices_are_slabs(self):
        slabs = horizontal_slices(T_SHAPE)
        ys = sorted({v.y for v in T_SHAPE.vertices})
        for slab in slabs:
            assert slab.y0 in ys and slab.y1 in ys

    def test_merge_vertical(self):
        stacked = [Rect(0, 0, 2, 1), Rect(0, 1, 2, 2), Rect(0, 3, 2, 4)]
        merged = merge_vertical(stacked)
        assert merged == [Rect(0, 0, 2, 2), Rect(0, 3, 2, 4)]

    def test_cut_to_max_size(self):
        pieces = cut_to_max_size([Rect(0, 0, 10, 3)], 4)
        assert sum(p.area for p in pieces) == 30
        assert all(p.width <= 4 and p.height <= 4 for p in pieces)

    def test_cut_to_max_size_invalid(self):
        with pytest.raises(ValueError):
            cut_to_max_size([Rect(0, 0, 2, 2)], 0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)),
            min_size=3,
            max_size=3,
        )
    )
    def test_staircase_property(self, steps):
        """Random staircase polygons dissect into exact covers."""
        # Build a monotone staircase from cumulative positive steps.
        xs, ys = [0], [0]
        for dx, dy in steps:
            xs.append(xs[-1] + dx + 1)
            ys.append(ys[-1] + dy + 1)
        vertices = []
        for i in range(len(xs) - 1):
            vertices.append((xs[i], ys[i + 1]))
            vertices.append((xs[i + 1], ys[i + 1]))
        vertices.append((xs[-1], 0))
        vertices.append((0, 0))
        poly = Polygon(vertices)
        rects = dissect_polygon(poly)
        assert rects_cover_polygon(poly, rects)


class TestSubtractAndCover:
    def test_subtract_inside(self):
        pieces = subtract_rect(Rect(0, 0, 10, 10), Rect(3, 3, 7, 7))
        assert sum(p.area for p in pieces) == 100 - 16
        for i, a in enumerate(pieces):
            for b in pieces[i + 1 :]:
                assert not a.overlaps(b)

    def test_subtract_disjoint(self):
        r = Rect(0, 0, 4, 4)
        assert subtract_rect(r, Rect(10, 10, 12, 12)) == [r]

    def test_subtract_covering(self):
        assert subtract_rect(Rect(2, 2, 4, 4), Rect(0, 0, 10, 10)) == []

    def test_disjoint_cover_area(self):
        rects = [Rect(0, 0, 4, 4), Rect(2, 2, 6, 6), Rect(2, 0, 3, 10)]
        cover = disjoint_cover(rects)
        for i, a in enumerate(cover):
            for b in cover[i + 1 :]:
                assert not a.overlaps(b)
        from repro.geometry.rect import union_area

        assert sum(r.area for r in cover) == union_area(rects)


class TestOrientations:
    def test_group_has_eight_elements(self):
        assert len(ALL_ORIENTATIONS) == 8

    def test_compose_rotations(self):
        assert compose(Orientation.R90, Orientation.R90) is Orientation.R180
        assert compose(Orientation.R90, Orientation.R270) is Orientation.R0

    def test_inverse_roundtrip(self):
        window = Rect(0, 0, 10, 10)
        rect = Rect(1, 2, 4, 7)
        for orientation in ALL_ORIENTATIONS:
            forward = transform_rect_in_window(rect, window, orientation)
            back = transform_rect_in_window(forward, window, orientation.inverse())
            assert back == rect

    def test_r90_action(self):
        window = Rect(0, 0, 10, 10)
        rect = Rect(0, 0, 2, 1)  # lower-left corner sliver
        rotated = transform_rect_in_window(rect, window, Orientation.R90)
        # CCW rotation moves the lower-left corner content to lower-right
        assert rotated == Rect(9, 0, 10, 2)

    def test_mirror_preserves_area(self):
        window = Rect(0, 0, 10, 10)
        rect = Rect(1, 2, 4, 7)
        for orientation in ALL_ORIENTATIONS:
            image = transform_rect_in_window(rect, window, orientation)
            assert image.area == rect.area
            assert window.contains_rect(image)

    def test_non_square_window_rejects_axis_swap(self):
        with pytest.raises(GeometryError):
            transform_rect_in_window(
                Rect(0, 0, 1, 1), Rect(0, 0, 10, 6), Orientation.R90
            )

    def test_non_square_window_allows_mirror(self):
        window = Rect(0, 0, 10, 6)
        image = transform_rect_in_window(Rect(0, 0, 2, 2), window, Orientation.MY)
        assert image == Rect(8, 0, 10, 2)

    def test_canonical_form_invariant(self):
        window = Rect(0, 0, 10, 10)
        rects = [Rect(0, 0, 3, 1), Rect(5, 5, 6, 9)]
        _, canonical = canonical_form(rects, window)
        for orientation in ALL_ORIENTATIONS:
            oriented = transform_rects_in_window(rects, window, orientation)
            _, canonical2 = canonical_form(oriented, window)
            assert canonical == canonical2


def square_patterns():
    return messy_patterns().filter(lambda pattern: pattern[1].width == pattern[1].height)


#: Subgroups of D8 whose orbits make patterns that tie between orientations.
SYMMETRIES = [
    ALL_ORIENTATIONS,
    (Orientation.R0, Orientation.R90, Orientation.R180, Orientation.R270),
    (Orientation.R0, Orientation.R180),
    (Orientation.R0, Orientation.MX),
    (Orientation.R0, Orientation.MXR90),
]


class TestCanonicalFormAgainstReference:
    """Integer tuples pick the same orientation and set as eight ``Rect`` lists."""

    @given(square_patterns())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, pattern):
        rects, window = pattern
        assert canonical_form(rects, window) == oracle.canonical_form(rects, window)

    @given(square_patterns(), st.sampled_from(SYMMETRIES))
    @settings(max_examples=300, deadline=None)
    def test_symmetric_ties_break_like_reference(self, pattern, group):
        rects, window = pattern
        orbit = sorted(
            {image for o in group for image in transform_rects_in_window(rects, window, o)}
        )
        assert canonical_form(orbit, window) == oracle.canonical_form(orbit, window)

    def test_fully_symmetric_pattern_keeps_r0(self):
        window = Rect(0, 0, 10, 10)
        rects = [Rect(4, 4, 6, 6), Rect(0, 0, 1, 1), Rect(9, 0, 10, 1), Rect(0, 9, 1, 10), Rect(9, 9, 10, 10)]
        assert canonical_form(rects, window) == (Orientation.R0, sorted(rects))

    def test_non_square_window(self):
        window = Rect(0, 0, 10, 6)
        with pytest.raises(GeometryError):
            canonical_form([Rect(0, 0, 2, 2)], window)
        with pytest.raises(GeometryError):
            oracle.canonical_form([Rect(0, 0, 2, 2)], window)
        assert canonical_form([], window) == oracle.canonical_form([], window)

