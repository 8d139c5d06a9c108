"""Pixel-density grids over layout windows.

Density-based classification (Section III-B2) pixelates a core pattern and
compares per-pixel polygon densities (Eq. 1).  Clip extraction (Section
III-E) and the nontopological feature set both need window polygon density
too.  This module renders rectangle sets into small numpy density grids.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import GeometryError
from repro.geometry.rect import Rect


def density_grid(
    rects: Iterable[Rect],
    window: Rect,
    resolution: int,
) -> np.ndarray:
    """Render rectangles into a ``resolution x resolution`` density grid.

    Each grid cell holds the fraction of its area covered by the (assumed
    non-overlapping) rectangles, in ``[0, 1]``.  The grid is indexed
    ``[row, col]`` with row 0 at the *bottom* of the window so that grid
    coordinates match layout coordinates.

    Rendering is exact: rectangle/cell overlap areas are accumulated with
    integer arithmetic and divided once at the end, so equal patterns give
    bit-identical grids — a property the clustering cache relies on.
    """
    if resolution <= 0:
        raise GeometryError(f"resolution must be positive, got {resolution}")
    if window.width % resolution or window.height % resolution:
        # Non-divisible windows would make cells ragged; the callers always
        # choose resolutions dividing the clip size, so treat this as a bug.
        raise GeometryError(
            f"window {window.width}x{window.height} not divisible by resolution {resolution}"
        )
    cell_w = window.width // resolution
    cell_h = window.height // resolution
    cell_area = cell_w * cell_h
    accum = np.zeros((resolution, resolution), dtype=np.int64)
    for rect in rects:
        clipped = rect.intersection(window)
        if clipped is None:
            continue
        col_lo = (clipped.x0 - window.x0) // cell_w
        col_hi = (clipped.x1 - window.x0 - 1) // cell_w
        row_lo = (clipped.y0 - window.y0) // cell_h
        row_hi = (clipped.y1 - window.y0 - 1) // cell_h
        for row in range(row_lo, row_hi + 1):
            cell_y0 = window.y0 + row * cell_h
            overlap_h = min(clipped.y1, cell_y0 + cell_h) - max(clipped.y0, cell_y0)
            for col in range(col_lo, col_hi + 1):
                cell_x0 = window.x0 + col * cell_w
                overlap_w = min(clipped.x1, cell_x0 + cell_w) - max(clipped.x0, cell_x0)
                accum[row, col] += overlap_w * overlap_h
    return accum.astype(np.float64) / float(cell_area)


def window_density(rects: Iterable[Rect], window: Rect) -> float:
    """Fraction of ``window`` covered by non-overlapping rectangles."""
    covered = sum(rect.intersection_area(window) for rect in rects)
    return covered / window.area


def orient_grid(grid: np.ndarray, orientation_name: str) -> np.ndarray:
    """Apply a D8 orientation to a square density grid.

    Grid rows grow with layout y (row 0 is the window *bottom*), while
    ``np.rot90`` rotates in array-display terms — so the geometric
    counter-clockwise rotation R90 is ``np.rot90`` with ``k=3``.  Each
    action matches :class:`repro.geometry.transform.Orientation` exactly;
    the test suite cross-checks every orientation against the geometric
    rectangle transform.
    """
    if grid.shape[0] != grid.shape[1]:
        raise GeometryError(f"orientation needs a square grid, got {grid.shape}")
    actions = {
        "R0": lambda g: g,
        "R90": lambda g: np.rot90(g, 3),
        "R180": lambda g: np.rot90(g, 2),
        "R270": lambda g: np.rot90(g, 1),
        "MX": lambda g: np.flipud(g),
        "MY": lambda g: np.fliplr(g),
        "MXR90": lambda g: g.T,
        "MYR90": lambda g: g[::-1, ::-1].T,
    }
    try:
        action = actions[orientation_name]
    except KeyError:
        raise GeometryError(f"unknown orientation {orientation_name!r}") from None
    return action(grid)


def all_orientation_grids(grid: np.ndarray) -> dict[str, np.ndarray]:
    """All eight oriented copies of a square grid, keyed by orientation name."""
    return {
        name: orient_grid(grid, name)
        for name in ("R0", "R90", "R180", "R270", "MX", "MY", "MXR90", "MYR90")
    }


def lattice_coverage(
    rects: Iterable[Rect],
) -> tuple[dict[int, int], dict[int, int], np.ndarray]:
    """Which cells of the rects' own coordinate lattice a rect covers.

    The plane is cut at every distinct rect ``x`` and ``y``; ``x_index`` and
    ``y_index`` number those cuts in order.  ``covered[i + 1, j + 1]`` says
    whether some rect covers the cell between cuts ``i`` and ``i + 1`` in x
    and ``j`` and ``j + 1`` in y; row and column 0 and the last row and
    column are an uncovered border.  Rects may overlap.  The four cells
    around lattice vertex ``(i, j)`` are ``covered[i:i + 2, j:j + 2]``.
    """
    rects = list(rects)
    xs = sorted({r.x0 for r in rects} | {r.x1 for r in rects})
    ys = sorted({r.y0 for r in rects} | {r.y1 for r in rects})
    x_index = {x: i for i, x in enumerate(xs)}
    y_index = {y: j for j, y in enumerate(ys)}
    covered = np.zeros((len(xs) + 1, len(ys) + 1), dtype=bool)
    for r in rects:
        covered[
            x_index[r.x0] + 1 : x_index[r.x1] + 1, y_index[r.y0] + 1 : y_index[r.y1] + 1
        ] = True
    return x_index, y_index, covered
