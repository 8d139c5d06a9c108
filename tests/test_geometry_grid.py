"""Tests for density grids, grid orientations, and spacing measurements."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry.grid import (
    all_orientation_grids,
    density_grid,
    orient_grid,
    window_density,
)
from repro.features.nontopo import corner_and_touch_counts, extract_nontopo_features
from repro.geometry.dissect import dissect_polygon
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect

WINDOW = Rect(0, 0, 12, 12)


class TestDensityGrid:
    def test_full_coverage(self):
        grid = density_grid([WINDOW], WINDOW, 3)
        assert np.allclose(grid, 1.0)

    def test_empty(self):
        grid = density_grid([], WINDOW, 3)
        assert np.allclose(grid, 0.0)

    def test_half_coverage_exact(self):
        grid = density_grid([Rect(0, 0, 12, 6)], WINDOW, 2)
        assert np.allclose(grid, [[1.0, 1.0], [0.0, 0.0]])

    def test_partial_cell(self):
        # one quarter of the single cell covered
        grid = density_grid([Rect(0, 0, 6, 6)], WINDOW, 1)
        assert grid[0, 0] == pytest.approx(0.25)

    def test_row_zero_is_bottom(self):
        grid = density_grid([Rect(0, 0, 12, 4)], WINDOW, 3)
        assert grid[0].sum() > 0
        assert grid[2].sum() == 0

    def test_out_of_window_clipped(self):
        grid = density_grid([Rect(-100, -100, 6, 6)], WINDOW, 2)
        assert grid[0, 0] == pytest.approx(1.0)
        assert grid[1, 1] == 0.0

    def test_indivisible_resolution_raises(self):
        with pytest.raises(GeometryError):
            density_grid([], WINDOW, 5)

    def test_zero_resolution_raises(self):
        with pytest.raises(GeometryError):
            density_grid([], WINDOW, 0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 10), st.integers(1, 4), st.integers(1, 4)),
            max_size=5,
        )
    )
    def test_grid_mean_equals_window_density(self, raw):
        rects = []
        for x0, y0, w, h in raw:
            r = Rect.maybe(x0, y0, min(12, x0 + w), min(12, y0 + h))
            if r and not any(r.overlaps(o) for o in rects):
                rects.append(r)
        grid = density_grid(rects, WINDOW, 4)
        assert grid.mean() == pytest.approx(window_density(rects, WINDOW))


class TestOrientGrid:
    def setup_method(self):
        self.grid = np.arange(9, dtype=float).reshape(3, 3)

    def test_r0_identity(self):
        assert np.array_equal(orient_grid(self.grid, "R0"), self.grid)

    def test_r180_is_double_r90(self):
        once = orient_grid(orient_grid(self.grid, "R90"), "R90")
        assert np.array_equal(once, orient_grid(self.grid, "R180"))

    def test_mirrors_are_involutions(self):
        for name in ("MX", "MY"):
            twice = orient_grid(orient_grid(self.grid, name), name)
            assert np.array_equal(twice, self.grid)

    def test_all_orientations_count(self):
        grids = all_orientation_grids(self.grid)
        assert len(grids) == 8

    def test_orientations_preserve_multiset(self):
        for oriented in all_orientation_grids(self.grid).values():
            assert sorted(oriented.ravel()) == sorted(self.grid.ravel())

    def test_unknown_orientation_raises(self):
        with pytest.raises(GeometryError):
            orient_grid(self.grid, "R45")

    def test_non_square_raises(self):
        with pytest.raises(GeometryError):
            orient_grid(np.zeros((2, 3)), "R90")

    def test_matches_geometric_transform(self):
        """Grid orientation must agree with geometric rect orientation."""
        from repro.geometry.transform import Orientation, transform_rects_in_window

        window = Rect(0, 0, 12, 12)
        rects = [Rect(0, 0, 4, 2), Rect(6, 8, 10, 12)]
        base = density_grid(rects, window, 6)
        for orientation in Orientation:
            moved = transform_rects_in_window(rects, window, orientation)
            direct = density_grid(moved, window, 6)
            via_grid = orient_grid(base, orientation.value)
            assert np.allclose(direct, via_grid), orientation


class TestMeasure:
    """Fig. 7(e)'s width, spacing, touch and corner measures, taken by the
    nontopological features (``min_internal``/``min_external`` fall back to
    the window side when nothing faces)."""

    def test_min_internal_is_polygon_width(self):
        assert extract_nontopo_features([Rect(0, 0, 10, 3)], WINDOW).min_internal == 3

    def test_min_external_between_polygons(self):
        rects = [Rect(0, 0, 4, 4), Rect(7, 0, 10, 4)]
        assert extract_nontopo_features(rects, WINDOW).min_external == 3

    def test_u_shape_notch_spacing(self):
        u = Polygon(
            [(0, 0), (10, 0), (10, 8), (7, 8), (7, 3), (3, 3), (3, 8), (0, 8)]
        )
        # the notch faces itself across 4 units
        assert extract_nontopo_features(dissect_polygon(u), WINDOW).min_external == 4

    def test_no_external_for_single_rect(self):
        features = extract_nontopo_features([Rect(0, 0, 4, 4)], WINDOW)
        assert features.min_external == WINDOW.width

    def test_touch_points(self):
        rects = [Rect(0, 0, 4, 4), Rect(4, 4, 8, 8)]
        assert corner_and_touch_counts(rects, Rect(-1, -1, 13, 13))[1] == 1

    def test_corner_count(self):
        l_shape = dissect_polygon(
            Polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
        )
        around = Rect(-1, -1, 13, 13)
        assert corner_and_touch_counts(l_shape, around)[0] == 6
        assert corner_and_touch_counts(l_shape + [Rect(10, 10, 12, 12)], around)[0] == 10

    def test_min_rect_spacing_facing(self):
        rects = [Rect(0, 0, 4, 4), Rect(6, 0, 10, 4), Rect(0, 9, 4, 12)]
        assert extract_nontopo_features(rects, WINDOW).min_external == 2

    def test_min_rect_spacing_ignores_diagonal(self):
        rects = [Rect(0, 0, 4, 4), Rect(5, 5, 8, 8)]
        assert extract_nontopo_features(rects, WINDOW).min_external == WINDOW.width
