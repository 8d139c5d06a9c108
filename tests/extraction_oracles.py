"""Reference implementations of the feature-extraction primitives.

Each function here is the plain version a primitive in ``src/repro`` had
before it learned to answer the same question from a sweep, a bucket or
a lookup: all-pairs overlap tests, rescans of every tile or rect, eight
full ``Rect`` orientations, and two tilings per feature family.  The
property tests compare each primitive with its reference on messy
geometry, and the differential fit in ``tests/test_training_internals.py``
trains a detector on :func:`extract_uncached` and asserts the same bits.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TilingError
from repro.features.nontopo import NonTopoFeatures, min_width_from_tilings
from repro.geometry.dissect import disjoint_cover, merge_vertical
from repro.geometry.grid import density_grid, window_density
from repro.geometry.rect import Rect
from repro.geometry.transform import ALL_ORIENTATIONS, transform_rects_in_window
from repro.mtcg.features import (
    diagonal_features,
    external_features,
    internal_features,
    segment_features,
)
from repro.mtcg.graph import Mtcg, MtcgEdge
from repro.mtcg.tiles import Tile, TileKind, Tiling


# ----------------------------------------------------------------------
# tilings
# ----------------------------------------------------------------------
def covers_window(tiling):
    """Exactness check by testing every tile pair for overlap."""
    total = 0
    rects = [t.rect for t in tiling.tiles]
    for i, rect in enumerate(rects):
        if not tiling.window.contains_rect(rect):
            return False
        total += rect.area
        for other in rects[i + 1 :]:
            if rect.overlaps(other):
                return False
    return total == tiling.window.area


def clip_blocks(rects, window):
    """Window clip, then a disjoint cover when any pair overlaps."""
    clipped = [r for r in (rect.intersection(window) for rect in rects) if r]
    if any(a.overlaps(b) for i, a in enumerate(clipped) for b in clipped[i + 1 :]):
        clipped = disjoint_cover(clipped)
    return clipped


def horizontal_tiling(rects, window):
    """The horizontal tiling, clipped and checked on its own."""
    blocks = merge_vertical(clip_blocks(rects, window))
    ys = sorted({window.y0, window.y1} | {b.y0 for b in blocks} | {b.y1 for b in blocks})
    raw_spaces = []
    for y0, y1 in zip(ys, ys[1:]):
        occupied = sorted((b.x0, b.x1) for b in blocks if b.y0 < y1 and y0 < b.y1)
        cursor = window.x0
        for bx0, bx1 in occupied:
            if bx0 > cursor:
                raw_spaces.append(Rect(cursor, y0, bx0, y1))
            cursor = max(cursor, bx1)
        if cursor < window.x1:
            raw_spaces.append(Rect(cursor, y0, window.x1, y1))
    tiles = []
    for rect in sorted(blocks):
        tiles.append(Tile(rect, TileKind.BLOCK, len(tiles)))
    for rect in sorted(merge_vertical(raw_spaces)):
        tiles.append(Tile(rect, TileKind.SPACE, len(tiles)))
    tiling = Tiling(window, tuple(tiles), "horizontal")
    if not covers_window(tiling):
        raise TilingError("horizontal tiling does not exactly cover the window")
    return tiling


def vertical_tiling(rects, window):
    """The transpose of the horizontal tiling of the clipped, swapped blocks."""

    def swap(r):
        return Rect(r.y0, r.x0, r.y1, r.x1)

    transposed = horizontal_tiling([swap(r) for r in clip_blocks(rects, window)], swap(window))
    tiles = tuple(Tile(swap(t.rect), t.kind, t.index) for t in transposed.tiles)
    tiling = Tiling(window, tiles, "vertical")
    if not covers_window(tiling):
        raise TilingError("vertical tiling does not exactly cover the window")
    return tiling


# ----------------------------------------------------------------------
# orientation
# ----------------------------------------------------------------------
def canonical_form(rects, window):
    """Build all eight oriented ``Rect`` lists and keep the first smallest."""
    best = None
    for orientation in ALL_ORIENTATIONS:
        candidate = transform_rects_in_window(rects, window, orientation)
        if best is None or tuple(candidate) < tuple(best[1]):
            best = (orientation, candidate)
    return best


# ----------------------------------------------------------------------
# constraint graphs
# ----------------------------------------------------------------------
def adjacent_pairs(tiling, axis):
    """Every ordered tile pair tested for a shared boundary segment."""
    tiles = tiling.tiles
    for i, first in enumerate(tiles):
        for j, second in enumerate(tiles):
            if i == j:
                continue
            a, b = first.rect, second.rect
            if axis == "v":
                if a.y1 == b.y0 and min(a.x1, b.x1) > max(a.x0, b.x0):
                    yield (i, j)
            else:
                if a.x1 == b.x0 and min(a.y1, b.y1) > max(a.y0, b.y0):
                    yield (i, j)


def corner_region(a, b):
    x0, x1 = min(a.x1, b.x1), max(a.x0, b.x0)
    y0, y1 = min(a.y1, b.y1), max(a.y0, b.y0)
    return Rect.maybe(x0, y0, x1, y1)


def diagonally_placed(a, b):
    x_disjoint = a.x1 <= b.x0 or b.x1 <= a.x0
    y_disjoint = a.y1 <= b.y0 or b.y1 <= a.y0
    return x_disjoint and y_disjoint


def diagonal_pairs(tiling, max_gap):
    """Every same-kind pair, its corner region tested against every tile."""
    tiles = tiling.tiles
    for i, first in enumerate(tiles):
        for j in range(i + 1, len(tiles)):
            second = tiles[j]
            if first.kind is not second.kind:
                continue
            a, b = first.rect, second.rect
            if not diagonally_placed(a, b):
                continue
            region = corner_region(a, b)
            if region is not None:
                if max_gap is not None and max(region.width, region.height) > max_gap:
                    continue
                blocked = any(
                    tiles[k].kind is first.kind and tiles[k].rect.overlaps(region)
                    for k in range(len(tiles))
                    if k not in (i, j)
                )
                if blocked:
                    continue
            lhs, rhs = (i, j) if a.x0 <= b.x0 else (j, i)
            yield (lhs, rhs)


class ScanMtcg(Mtcg):
    """A constraint graph that scans every edge on every query."""

    def successors(self, index):
        return [e.target for e in self.edges if e.source == index and not e.diagonal]

    def predecessors(self, index):
        return [e.source for e in self.edges if e.target == index and not e.diagonal]


def build_mtcg(tiling, axis, with_diagonals=False, diagonal_max_gap=None):
    edges = []
    seen = set()
    for source, target in adjacent_pairs(tiling, axis):
        if (source, target) not in seen:
            seen.add((source, target))
            edges.append(MtcgEdge(source, target))
    if with_diagonals:
        for source, target in diagonal_pairs(tiling, diagonal_max_gap):
            edges.append(MtcgEdge(source, target, diagonal=True))
    return ScanMtcg(tiling, axis, tuple(edges))


# ----------------------------------------------------------------------
# nontopological features
# ----------------------------------------------------------------------
def quadrant_coverage(rects, x, y):
    """Coverage of the (SW, SE, NW, NE) unit cells, each tested on every rect."""

    def covered(cx, cy):
        return any(r.x0 <= cx < r.x1 and r.y0 <= cy < r.y1 for r in rects)

    return (covered(x - 1, y - 1), covered(x, y - 1), covered(x - 1, y), covered(x, y))


def corner_and_touch_counts(rects, window=None):
    candidates = set()
    for rect in rects:
        candidates.update(
            ((rect.x0, rect.y0), (rect.x1, rect.y0), (rect.x0, rect.y1), (rect.x1, rect.y1))
        )
    corners = touches = 0
    for x, y in candidates:
        if window is not None and not (window.x0 < x < window.x1 and window.y0 < y < window.y1):
            continue
        sw, se, nw, ne = quadrant_coverage(rects, x, y)
        count = sum((sw, se, nw, ne))
        if count in (1, 3):
            corners += 1
        elif count == 2 and sw == ne and se == nw and sw != se:
            touches += 1
    return corners, touches


def min_spacing_from_tilings(h_tiling, v_tiling, default):
    """Each space tile tested against every block for facing blocks."""

    def between_blocks(tiling, horizontal):
        blocks = [t.rect for t in tiling.blocks()]
        gaps = []
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


# ----------------------------------------------------------------------
# whole extraction
# ----------------------------------------------------------------------
def extract_topological_features(rects, window, *, diagonal_max_gap: Optional[int] = None):
    """Section III-C on tilings of its own."""
    h_tiling = horizontal_tiling(rects, window)
    v_tiling = vertical_tiling(rects, window)
    ch = build_mtcg(h_tiling, "h", with_diagonals=True, diagonal_max_gap=diagonal_max_gap)
    cv = build_mtcg(v_tiling, "v")
    features = set()
    features.update(internal_features(ch, window))
    features.update(internal_features(cv, window))
    features.update(external_features(ch, window))
    features.update(external_features(cv, window))
    features.update(diagonal_features(ch, window))
    features.update(segment_features(h_tiling, window))
    return sorted(features)


def extract_nontopo_features(rects, window):
    """The five nontopological features on a second pair of tilings."""
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


def extract_uncached(extractor, clip):
    """``FeatureExtractor._extract_uncached`` with each feature set tiling on its own."""
    from repro.features.vector import ExtractedFeatures

    config = extractor.config
    rects, window = extractor._region_of(clip)
    if config.canonical_orientation and rects:
        _, rects = canonical_form(rects, window)
    rules = tuple(
        extract_topological_features(rects, window, diagonal_max_gap=config.diagonal_max_gap)
    )
    nontopo = extract_nontopo_features(rects, window)
    grid = None
    if config.include_density_grid:
        if config.region == "core":
            grid = clip.core_density_grid(config.density_resolution)
        elif config.region == "context":
            grid = density_grid(rects, window, config.density_resolution)
        else:
            grid = clip.clip_density_grid(config.density_resolution)
    return ExtractedFeatures(rules, nontopo, grid)
