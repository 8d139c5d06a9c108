"""Rectilinear (Manhattan) polygons.

Layout shapes on metal layers are rectilinear polygons.  The GDSII reader
produces these, and the dissection code in :mod:`repro.geometry.dissect`
slices them into non-overlapping rectangles, which is the representation the
rest of the pipeline (tiling, features, density) operates on.

A polygon is a closed vertex loop with axis-parallel edges.  Vertices are
stored counter-clockwise without the repeated closing vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass(frozen=True)
class Edge:
    """A directed axis-parallel polygon edge from ``start`` to ``end``."""

    start: Point
    end: Point

    @property
    def is_vertical(self) -> bool:
        return self.start.x == self.end.x

    @property
    def length(self) -> int:
        return self.start.manhattan_distance(self.end)

    def bbox(self) -> tuple[int, int, int, int]:
        """Degenerate bounding extent ``(x0, y0, x1, y1)`` of the segment."""
        return (
            min(self.start.x, self.end.x),
            min(self.start.y, self.end.y),
            max(self.start.x, self.end.x),
            max(self.start.y, self.end.y),
        )


@dataclass
class Polygon:
    """A simple rectilinear polygon.

    Parameters
    ----------
    vertices:
        The boundary loop, counter-clockwise, axis-parallel consecutive
        edges, no repeated closing vertex.  Clockwise input is accepted and
        silently reversed; collinear runs are merged.
    """

    vertices: list[Point] = field(default_factory=list)

    def __init__(self, vertices: Sequence[Point | tuple[int, int]]):
        points = [p if isinstance(p, Point) else Point(*p) for p in vertices]
        points = _drop_collinear(points)
        if len(points) < 4:
            raise GeometryError(f"rectilinear polygon needs >= 4 vertices, got {len(points)}")
        _check_rectilinear(points)
        if _signed_area2(points) < 0:
            points = list(reversed(points))
        if _signed_area2(points) == 0:
            raise GeometryError("polygon has zero area")
        self.vertices = points

    # ------------------------------------------------------------------
    @classmethod
    def from_rect(cls, rect: Rect) -> "Polygon":
        """The four-vertex polygon of a rectangle.

        A ``Rect`` is non-degenerate, and its corners run counter-clockwise
        with no collinear vertex, so none of ``__init__``'s checks apply.
        """
        polygon = cls.__new__(cls)
        polygon.vertices = list(rect.corners())
        return polygon

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def area(self) -> int:
        """Enclosed area (always positive; vertices are stored CCW)."""
        return _signed_area2(self.vertices) // 2

    def bbox(self) -> Rect:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def edges(self) -> Iterator[Edge]:
        """The boundary edges in loop order."""
        n = len(self.vertices)
        for i in range(n):
            yield Edge(self.vertices[i], self.vertices[(i + 1) % n])

    def contains_point(self, p: Point) -> bool:
        """Point-in-polygon via crossing count (boundary counts as inside)."""
        for edge in self.edges():
            x0, y0, x1, y1 = edge.bbox()
            if x0 <= p.x <= x1 and y0 <= p.y <= y1:
                return True
        inside = False
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if (a.y > p.y) != (b.y > p.y):
                # Vertical edges only (rectilinear), so x is constant on the
                # crossing edge.
                if a.x > p.x:
                    inside = not inside
        return inside

    def translated(self, dx: int, dy: int) -> "Polygon":
        return Polygon([v.translated(dx, dy) for v in self.vertices])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return _canonical_loop(self.vertices) == _canonical_loop(other.vertices)

    def __hash__(self) -> int:
        return hash(_canonical_loop(self.vertices))

    def __repr__(self) -> str:
        return f"Polygon({[(v.x, v.y) for v in self.vertices]})"


# ----------------------------------------------------------------------
# module-private helpers
# ----------------------------------------------------------------------


def _drop_collinear(points: list[Point]) -> list[Point]:
    """Remove repeated and collinear-run vertices from a loop."""
    # Remove exact consecutive duplicates first.
    deduped: list[Point] = []
    for p in points:
        if not deduped or deduped[-1] != p:
            deduped.append(p)
    if len(deduped) > 1 and deduped[0] == deduped[-1]:
        deduped.pop()
    if len(deduped) < 3:
        return deduped
    out: list[Point] = []
    n = len(deduped)
    for i in range(n):
        prev_pt = deduped[(i - 1) % n]
        here = deduped[i]
        next_pt = deduped[(i + 1) % n]
        cross = (here.x - prev_pt.x) * (next_pt.y - here.y) - (here.y - prev_pt.y) * (
            next_pt.x - here.x
        )
        if cross != 0:
            out.append(here)
    return out


def _check_rectilinear(points: list[Point]) -> None:
    n = len(points)
    for i in range(n):
        a, b = points[i], points[(i + 1) % n]
        if a.x != b.x and a.y != b.y:
            raise GeometryError(f"non-axis-parallel edge {a} -> {b}")


def _signed_area2(points: list[Point]) -> int:
    """Twice the signed area (positive for CCW loops)."""
    total = 0
    n = len(points)
    for i in range(n):
        a, b = points[i], points[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total


def _canonical_loop(points: list[Point]) -> tuple[tuple[int, int], ...]:
    """Rotation-invariant canonical tuple of a vertex loop."""
    tuples = [(p.x, p.y) for p in points]
    start = tuples.index(min(tuples))
    rotated = tuples[start:] + tuples[:start]
    return tuple(rotated)
