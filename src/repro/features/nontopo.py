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

from repro.geometry.grid import window_density
from repro.geometry.rect import Rect
from repro.mtcg.tiles import Tiling, horizontal_tiling, vertical_tiling


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


def _quadrant_coverage(rects: Sequence[Rect], x: int, y: int) -> tuple[bool, ...]:
    """Coverage of the four unit cells around lattice vertex ``(x, y)``.

    Order: (SW, SE, NW, NE).  A cell is covered when any rectangle contains
    it; cells are unit-sized probes, valid because all geometry is on the
    integer lattice.
    """

    def covered(cx: int, cy: int) -> bool:
        return any(r.x0 <= cx < r.x1 and r.y0 <= cy < r.y1 for r in rects)

    return (covered(x - 1, y - 1), covered(x, y - 1), covered(x - 1, y), covered(x, y))


def corner_and_touch_counts(rects: Sequence[Rect], window: Optional[Rect] = None) -> tuple[int, int]:
    """Corner count and touched-point count of the rectangle union.

    Only vertices strictly inside ``window`` (when given) are counted, so
    window clipping does not manufacture corners at the clip boundary.
    """
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
        sw, se, nw, ne = _quadrant_coverage(rects, x, y)
        count = sum((sw, se, nw, ne))
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
        blocks = [t.rect for t in tiling.blocks()]
        gaps: list[int] = []
        for tile in tiling.spaces():
            s = tile.rect
            if horizontal:
                left = any(b.x1 == s.x0 and min(b.y1, s.y1) > max(b.y0, s.y0) for b in blocks)
                right = any(b.x0 == s.x1 and min(b.y1, s.y1) > max(b.y0, s.y0) for b in blocks)
                if left and right:
                    gaps.append(s.width)
            else:
                below = any(b.y1 == s.y0 and min(b.x1, s.x1) > max(b.x0, s.x0) for b in blocks)
                above = any(b.y0 == s.y1 and min(b.x1, s.x1) > max(b.x0, s.x0) for b in blocks)
                if below and above:
                    gaps.append(s.height)
        return gaps

    values = between_blocks(h_tiling, True) + between_blocks(v_tiling, False)
    return min(values) if values else default


def extract_nontopo_features(rects: Sequence[Rect], window: Rect) -> NonTopoFeatures:
    """Compute all five nontopological features for a pattern window."""
    clipped = [r for r in (rect.intersection(window) for rect in rects) if r]
    corners, touches = corner_and_touch_counts(clipped, window)
    h_tiling = horizontal_tiling(clipped, window)
    v_tiling = vertical_tiling(clipped, window)
    default = max(window.width, window.height)
    return NonTopoFeatures(
        corner_count=corners,
        touch_count=touches,
        min_internal=min_width_from_tilings(h_tiling, v_tiling, default),
        min_external=min_spacing_from_tilings(h_tiling, v_tiling, default),
        density=window_density(clipped, window),
    )
