"""Polygon dissection into rectangle covers.

Section III-E of the paper starts layout-clip extraction by slicing every
layout polygon *horizontally* into rectangles and then cutting rectangles
whose width or height exceeds the hotspot core side length.  This module
implements both steps, plus the inverse check used by tests (the dissection
must tile the polygon exactly: disjoint rectangles whose total area equals
the polygon area).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect


def horizontal_slices(polygon: Polygon) -> list[Rect]:
    """Slice a rectilinear polygon into horizontal rectangles.

    The polygon interior is cut along every distinct vertex ``y``
    coordinate, producing horizontal slabs.  Within a slab, the covered x
    intervals are found by intersecting the slab midline with the polygon's
    vertical edges (even-odd rule).  Adjacent aligned rectangles in
    consecutive slabs are *not* merged — matching Fig. 11(a), where each
    slab contributes its own rectangle.
    """
    ys = sorted({v.y for v in polygon.vertices})
    vertical_edges = [e for e in polygon.edges() if e.is_vertical]
    out: list[Rect] = []
    for y_low, y_high in zip(ys, ys[1:]):
        # Every vertical edge either fully spans this slab or misses it.
        crossings = sorted(
            e.start.x
            for e in vertical_edges
            if min(e.start.y, e.end.y) <= y_low and y_high <= max(e.start.y, e.end.y)
        )
        # Even-odd pairing of crossings gives covered intervals.
        for i in range(0, len(crossings) - 1, 2):
            x0, x1 = crossings[i], crossings[i + 1]
            if x0 < x1:
                out.append(Rect(x0, y_low, x1, y_high))
    return out


def merge_vertical(rects: list[Rect]) -> list[Rect]:
    """Merge vertically-stacked rectangles with identical x spans.

    Horizontal slicing cuts a plain rectangle with a notch next to it into
    several stacked slabs; merging them back keeps downstream tile counts
    small without changing covered area.
    """
    by_span: dict[tuple[int, int], list[Rect]] = {}
    for rect in rects:
        by_span.setdefault((rect.x0, rect.x1), []).append(rect)
    merged: list[Rect] = []
    for (x0, x1), group in by_span.items():
        group.sort(key=lambda r: r.y0)
        current = group[0]
        for rect in group[1:]:
            if rect.y0 == current.y1:
                current = Rect(x0, current.y0, x1, rect.y1)
            else:
                merged.append(current)
                current = rect
        merged.append(current)
    return sorted(merged)


def cut_to_max_size(rects: Iterable[Rect], max_side: int) -> list[Rect]:
    """Cut rectangles so no side exceeds ``max_side``.

    This is the second dissection step of Section III-E: rectangles wider or
    taller than the hotspot core side length are chopped into a grid of
    pieces, guaranteeing that anchoring a clip at each piece's lower-left
    corner visits every potential hotspot site.
    """
    out: list[Rect] = []
    for rect in rects:
        x_cuts = _cut_points(rect.x0, rect.x1, max_side)
        y_cuts = _cut_points(rect.y0, rect.y1, max_side)
        for xa, xb in zip(x_cuts, x_cuts[1:]):
            for ya, yb in zip(y_cuts, y_cuts[1:]):
                out.append(Rect(xa, ya, xb, yb))
    return out


def dissect_polygon(polygon: Polygon, max_side: int | None = None) -> list[Rect]:
    """Full dissection: horizontal slicing, merge, then optional size cut."""
    rects = merge_vertical(horizontal_slices(polygon))
    if max_side is not None:
        rects = cut_to_max_size(rects, max_side)
    return rects


def subtract_rect(rect: Rect, cutter: Rect) -> list[Rect]:
    """``rect`` minus ``cutter`` as up to four disjoint rectangles."""
    overlap = rect.intersection(cutter)
    if overlap is None:
        return [rect]
    pieces = [
        Rect.maybe(rect.x0, rect.y0, rect.x1, overlap.y0),  # below
        Rect.maybe(rect.x0, overlap.y1, rect.x1, rect.y1),  # above
        Rect.maybe(rect.x0, overlap.y0, overlap.x0, overlap.y1),  # left
        Rect.maybe(overlap.x1, overlap.y0, rect.x1, overlap.y1),  # right
    ]
    return [p for p in pieces if p is not None]


def disjoint_cover(rects: Iterable[Rect]) -> list[Rect]:
    """A disjoint rectangle cover of the union of possibly-overlapping rects.

    Later rectangles are trimmed against everything already accepted, so
    the output covers exactly the union with pairwise-disjoint pieces.
    Layout data legitimately contains overlapping shapes (abutting and
    overlapping wires are drawn union-semantics in GDSII); the tiling and
    density code require disjoint input.
    """
    accepted: list[Rect] = []
    for rect in rects:
        pending = [rect]
        for kept in accepted:
            if not pending:
                break
            next_pending: list[Rect] = []
            for piece in pending:
                next_pending.extend(subtract_rect(piece, kept))
            pending = next_pending
        accepted.extend(pending)
    return accepted


def overlapping_pairs(ordered: list[Rect]) -> Iterator[tuple[Rect, Rect]]:
    """Every pair of rects of an x0-sorted list that share area (sort and sweep).

    Later rects start at or right of ``a.x0``, so the scan for ``a`` stops
    at the first one starting at or right of ``a.x1``.
    """
    for i, a in enumerate(ordered, 1):
        x1, y0, y1 = a.x1, a.y0, a.y1
        for b in ordered[i:]:
            if b.x0 >= x1:
                break
            if b.y0 < y1 and y0 < b.y1:
                yield a, b


def any_overlap(ordered: list[Rect]) -> bool:
    """Whether two rects of an x0-sorted list share area."""
    return next(overlapping_pairs(ordered), None) is not None


def rects_cover_polygon(polygon: Polygon, rects: list[Rect]) -> bool:
    """Check that ``rects`` exactly tile ``polygon``.

    Used by property tests: the rectangles must be pairwise disjoint, lie
    inside the polygon's bounding box, and their total area must equal the
    polygon area.  For rectilinear polygons produced by the slicer these
    conditions are equivalent to an exact cover.
    """
    total = 0
    box = polygon.bbox()
    for i, rect in enumerate(rects):
        if not box.contains_rect(rect):
            return False
        total += rect.area
        for other in rects[i + 1 :]:
            if rect.overlaps(other):
                return False
    return total == polygon.area


def _cut_points(lo: int, hi: int, max_side: int) -> list[int]:
    """Cut positions dividing ``[lo, hi]`` into pieces of at most ``max_side``."""
    if max_side <= 0:
        raise ValueError(f"max_side must be positive, got {max_side}")
    points = list(range(lo, hi, max_side))
    points.append(hi)
    return points
