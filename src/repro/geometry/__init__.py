"""Integer-lattice Manhattan geometry substrate.

Everything downstream — GDSII shapes, clips, tilings, directional strings,
density grids — is built from the primitives exported here.
"""

from repro.geometry.point import ORIGIN, Point
from repro.geometry.polygon import Edge, Polygon
from repro.geometry.rect import Rect, bounding_box, total_area, union_area
from repro.geometry.transform import (
    ALL_ORIENTATIONS,
    Orientation,
    canonical_form,
    compose,
    transform_point_in_window,
    transform_rect_in_window,
    transform_rects_in_window,
)
from repro.geometry.dissect import (
    cut_to_max_size,
    disjoint_cover,
    subtract_rect,
    dissect_polygon,
    horizontal_slices,
    merge_vertical,
    rects_cover_polygon,
)
from repro.geometry.grid import (
    all_orientation_grids,
    density_grid,
    orient_grid,
    window_density,
)

__all__ = [
    "ORIGIN",
    "Point",
    "Rect",
    "Polygon",
    "Edge",
    "Orientation",
    "ALL_ORIENTATIONS",
    "bounding_box",
    "total_area",
    "union_area",
    "canonical_form",
    "compose",
    "transform_point_in_window",
    "transform_rect_in_window",
    "transform_rects_in_window",
    "horizontal_slices",
    "merge_vertical",
    "cut_to_max_size",
    "dissect_polygon",
    "rects_cover_polygon",
    "disjoint_cover",
    "subtract_rect",
    "density_grid",
    "window_density",
    "orient_grid",
    "all_orientation_grids",
]
