"""The five nontopological (lithography-process-related) features.

Fig. 7(e) defines them for a pattern window:

1. number of corners (convex plus concave),
2. number of touched points,
3. minimum distance between internally facing edges (minimum width),
4. minimum distance between externally facing edges (minimum spacing),
5. polygon density.

The pipeline sees dissected rectangles, so corners/touch points are
computed on the *union* geometry via quadrant-coverage classification:
around each candidate lattice vertex the four surrounding unit cells are
tested for coverage; one covered cell is a convex corner, three a concave
corner, and two diagonally opposite cells a touched point.  Minimum width
and spacing come from the maximal tilings, which is exactly how the
corresponding internal/external features measure them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.geometry.grid import lattice_coverage, window_density
from repro.geometry.rect import Rect
from repro.mtcg.tiles import Tiling, window_tilings


@dataclass(frozen=True)
class NonTopoFeatures:
    """The five nontopological features of one pattern window.

    ``min_internal`` / ``min_external`` fall back to the window side when
    the pattern has no material or no facing pair — a neutral "nothing
    critical here" value that keeps vectors numeric.
    """

    corner_count: int
    touch_count: int
    min_internal: int
    min_external: int
    density: float

    def as_list(self) -> list[float]:
        return [
            float(self.corner_count),
            float(self.touch_count),
            float(self.min_internal),
            float(self.min_external),
            self.density,
        ]


#: Number of numeric slots the nontopological block occupies in a vector.
NONTOPO_SLOTS = 5


def corner_and_touch_counts(rects: Sequence[Rect], window: Optional[Rect] = None) -> tuple[int, int]:
    """Corner count and touched-point count of the rectangle union.

    Only vertices strictly inside ``window`` (when given) are counted, so
    window clipping does not manufacture corners at the clip boundary.
    Every rect corner is a candidate vertex, and each unit cell around it
    is covered exactly when the cell of the rects' own lattice
    (:func:`~repro.geometry.grid.lattice_coverage`) holding it is.
    """
    x_index, y_index, grid = lattice_coverage(rects)
    covered = grid.tolist()
    candidates: set[tuple[int, int]] = set()
    for rect in rects:
        candidates.update(
            ((rect.x0, rect.y0), (rect.x1, rect.y0), (rect.x0, rect.y1), (rect.x1, rect.y1))
        )
    corners = 0
    touches = 0
    for x, y in candidates:
        if window is not None and not (
            window.x0 < x < window.x1 and window.y0 < y < window.y1
        ):
            continue
        i, j = x_index[x], y_index[y]
        sw, nw = covered[i][j], covered[i][j + 1]
        se, ne = covered[i + 1][j], covered[i + 1][j + 1]
        count = sw + se + nw + ne
        if count in (1, 3):
            corners += 1
        elif count == 2 and sw == ne and se == nw and sw != se:
            # Two diagonally opposite cells covered: polygons touch at a point.
            touches += 1
    return corners, touches


def min_width_from_tilings(
    h_tiling: Tiling, v_tiling: Tiling, default: int
) -> int:
    """Minimum material width: narrowest block strip in either tiling."""
    widths = [t.rect.width for t in h_tiling.blocks()]
    heights = [t.rect.height for t in v_tiling.blocks()]
    values = widths + heights
    return min(values) if values else default


def min_spacing_from_tilings(
    h_tiling: Tiling, v_tiling: Tiling, default: int
) -> int:
    """Minimum spacing: narrowest space strip strictly between blocks.

    A space tile bounded by blocks on both sides along the tiling axis
    measures a facing-edge gap; boundary strips do not count.
    """

    def between_blocks(tiling: Tiling, horizontal: bool) -> list[int]:
        # Blocks bucketed by their leading and trailing edge along the
        # axis: a space tile looks up only the blocks ending where it
        # starts and starting where it ends.
        ends: dict[int, list[Rect]] = {}
        starts: dict[int, list[Rect]] = {}
        for tile in tiling.blocks():
            b = tile.rect
            if horizontal:
                ends.setdefault(b.x1, []).append(b)
                starts.setdefault(b.x0, []).append(b)
            else:
                ends.setdefault(b.y1, []).append(b)
                starts.setdefault(b.y0, []).append(b)
        gaps: list[int] = []
        for tile in tiling.spaces():
            s = tile.rect
            if horizontal:
                left = any(min(b.y1, s.y1) > max(b.y0, s.y0) for b in ends.get(s.x0, ()))
                right = any(min(b.y1, s.y1) > max(b.y0, s.y0) for b in starts.get(s.x1, ()))
                if left and right:
                    gaps.append(s.width)
            else:
                below = any(min(b.x1, s.x1) > max(b.x0, s.x0) for b in ends.get(s.y0, ()))
                above = any(min(b.x1, s.x1) > max(b.x0, s.x0) for b in starts.get(s.y1, ()))
                if below and above:
                    gaps.append(s.height)
        return gaps

    values = between_blocks(h_tiling, True) + between_blocks(v_tiling, False)
    return min(values) if values else default


def extract_nontopo_features(rects: Sequence[Rect], window: Rect) -> NonTopoFeatures:
    """Compute all five nontopological features for a pattern window."""
    clipped = [r for r in (rect.intersection(window) for rect in rects) if r]
    return nontopo_features_from_tilings(clipped, window, *window_tilings(clipped, window))


def nontopo_features_from_tilings(
    clipped: Sequence[Rect], window: Rect, h_tiling: Tiling, v_tiling: Tiling
) -> NonTopoFeatures:
    """The five features of window-clipped rects, given their two tilings.

    Feature extraction builds the tilings once, for the topological
    features, and measures widths and spacings on the same tiles here.
    """
    corners, touches = corner_and_touch_counts(clipped, window)
    default = max(window.width, window.height)
    return NonTopoFeatures(
        corner_count=corners,
        touch_count=touches,
        min_internal=min_width_from_tilings(h_tiling, v_tiling, default),
        min_external=min_spacing_from_tilings(h_tiling, v_tiling, default),
        density=window_density(clipped, window),
    )
