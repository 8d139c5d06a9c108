"""Axis-aligned integer rectangles.

Rectangles are half-open in neither direction: a :class:`Rect` stores its
inclusive lower-left corner ``(x0, y0)`` and exclusive upper-right corner
``(x1, y1)`` in the sense that ``width = x1 - x0`` and two rectangles that
share only an edge have zero overlap *area* but are still considered
*touching*.  This matches how layout polygons are dissected into
non-overlapping rectangle covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.errors import GeometryError
from repro.geometry.point import Point


@dataclass(frozen=True, slots=True, order=True)
class Rect:
    """An axis-aligned rectangle ``[x0, x1] x [y0, y1]`` with ``x0 <= x1``.

    Degenerate (zero-width or zero-height) rectangles are rejected at
    construction; use :meth:`Rect.maybe` for guarded construction when a
    clipped result might be empty.
    """

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise GeometryError(
                f"degenerate rectangle ({self.x0},{self.y0})-({self.x1},{self.y1})"
            )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def maybe(x0: int, y0: int, x1: int, y1: int) -> Optional["Rect"]:
        """Return a rectangle, or ``None`` if the extent is empty."""
        if x0 >= x1 or y0 >= y1:
            return None
        return Rect(x0, y0, x1, y1)

    @staticmethod
    def from_corners(a: Point, b: Point) -> "Rect":
        """Build the bounding rectangle of two opposite corners."""
        return Rect(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))

    @staticmethod
    def from_center(cx: int, cy: int, width: int, height: int) -> "Rect":
        """Build a ``width`` x ``height`` rectangle centred on ``(cx, cy)``.

        Odd dimensions are biased toward the lower-left, which keeps
        repeated centre/extent round trips stable.
        """
        half_w, half_h = width // 2, height // 2
        return Rect(cx - half_w, cy - half_h, cx - half_w + width, cy - half_h + height)

    # ------------------------------------------------------------------
    # basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x0 + self.x1) // 2, (self.y0 + self.y1) // 2)

    @property
    def lower_left(self) -> Point:
        return Point(self.x0, self.y0)

    @property
    def upper_right(self) -> Point:
        return Point(self.x1, self.y1)

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """The four corners in counter-clockwise order from the lower-left."""
        return (
            Point(self.x0, self.y0),
            Point(self.x1, self.y0),
            Point(self.x1, self.y1),
            Point(self.x0, self.y1),
        )

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def contains_point(self, p: Point, *, strict: bool = False) -> bool:
        """Whether ``p`` lies inside (or, unless ``strict``, on) this rect."""
        if strict:
            return self.x0 < p.x < self.x1 and self.y0 < p.y < self.y1
        return self.x0 <= p.x <= self.x1 and self.y0 <= p.y <= self.y1

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` lies entirely within this rectangle."""
        return (
            self.x0 <= other.x0
            and self.y0 <= other.y0
            and other.x1 <= self.x1
            and other.y1 <= self.y1
        )

    def overlaps(self, other: "Rect") -> bool:
        """Whether the two rectangles share positive area."""
        return (
            self.x0 < other.x1
            and other.x0 < self.x1
            and self.y0 < other.y1
            and other.y0 < self.y1
        )

    def touches(self, other: "Rect") -> bool:
        """Whether the rectangles share at least an edge or corner point."""
        return (
            self.x0 <= other.x1
            and other.x0 <= self.x1
            and self.y0 <= other.y1
            and other.y0 <= self.y1
        )

    # ------------------------------------------------------------------
    # combination
    # ------------------------------------------------------------------
    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlapping rectangle, or ``None`` when there is no area.

        A rectangle inside ``other`` is returned as is (``Rect`` is a
        frozen value), so clipping shares geometry instead of copying it.
        """
        if other.contains_rect(self):
            return self
        x0 = self.x0 if self.x0 > other.x0 else other.x0
        y0 = self.y0 if self.y0 > other.y0 else other.y0
        x1 = self.x1 if self.x1 < other.x1 else other.x1
        y1 = self.y1 if self.y1 < other.y1 else other.y1
        if x0 >= x1 or y0 >= y1:
            return None
        return Rect(x0, y0, x1, y1)

    def intersection_area(self, other: "Rect") -> int:
        """Area of overlap with ``other`` (0 when disjoint or touching)."""
        w = min(self.x1, other.x1) - max(self.x0, other.x0)
        h = min(self.y1, other.y1) - max(self.y0, other.y0)
        if w <= 0 or h <= 0:
            return 0
        return w * h

    def union_bbox(self, other: "Rect") -> "Rect":
        """Minimum bounding box covering both rectangles."""
        return Rect(
            min(self.x0, other.x0),
            min(self.y0, other.y0),
            max(self.x1, other.x1),
            max(self.y1, other.y1),
        )

    def expanded(self, margin: int) -> "Rect":
        """Grow (or, for negative ``margin``, shrink) by ``margin`` per side."""
        return Rect(
            self.x0 - margin, self.y0 - margin, self.x1 + margin, self.y1 + margin
        )

    def translated(self, dx: int, dy: int) -> "Rect":
        """Return this rectangle moved by ``(dx, dy)``."""
        return Rect(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)

    def clipped(self, window: "Rect") -> Optional["Rect"]:
        """Alias of :meth:`intersection`, named for window-clipping call sites."""
        return self.intersection(window)

    # ------------------------------------------------------------------
    # gaps (used by external-feature and clip-distribution measurements)
    # ------------------------------------------------------------------
    def gap_x(self, other: "Rect") -> int:
        """Horizontal free distance to ``other`` (0 when x-spans overlap)."""
        return max(0, max(self.x0, other.x0) - min(self.x1, other.x1))

    def gap_y(self, other: "Rect") -> int:
        """Vertical free distance to ``other`` (0 when y-spans overlap)."""
        return max(0, max(self.y0, other.y0) - min(self.y1, other.y1))

    def separation(self, other: "Rect") -> int:
        """Euclidean-free separation rounded down, 0 when touching/overlapping."""
        gx, gy = self.gap_x(other), self.gap_y(other)
        if gx == 0:
            return gy
        if gy == 0:
            return gx
        return int((gx * gx + gy * gy) ** 0.5)


def bounding_box(rects: Iterable[Rect]) -> Optional[Rect]:
    """Minimum bounding box of a collection of rectangles.

    Returns ``None`` for an empty collection; callers that require geometry
    should treat that as "no polygons in window".
    """
    rects = list(rects)
    if not rects:
        return None
    return Rect(
        min(r.x0 for r in rects),
        min(r.y0 for r in rects),
        max(r.x1 for r in rects),
        max(r.y1 for r in rects),
    )


def total_area(rects: Iterable[Rect]) -> int:
    """Total area of *non-overlapping* rectangles.

    The dissection routines in :mod:`repro.geometry.dissect` guarantee
    non-overlap, so a plain sum is exact there.  For possibly-overlapping
    input use :func:`union_area`.
    """
    return sum(rect.area for rect in rects)


def union_area(rects: list[Rect]) -> int:
    """Exact area of the union of possibly-overlapping rectangles.

    Implemented by coordinate compression: the plane is cut along every
    distinct x and y coordinate, and each elementary cell is counted once if
    any rectangle covers it.  O(n^2) cells for n rectangles, which is ample
    for per-clip workloads (tens of rectangles).
    """
    if not rects:
        return 0
    xs = sorted({r.x0 for r in rects} | {r.x1 for r in rects})
    ys = sorted({r.y0 for r in rects} | {r.y1 for r in rects})
    area = 0
    for xi in range(len(xs) - 1):
        cx0, cx1 = xs[xi], xs[xi + 1]
        for yi in range(len(ys) - 1):
            cy0, cy1 = ys[yi], ys[yi + 1]
            for rect in rects:
                if rect.x0 <= cx0 and cx1 <= rect.x1 and rect.y0 <= cy0 and cy1 <= rect.y1:
                    area += (cx1 - cx0) * (cy1 - cy0)
                    break
    return area


def iter_pairs(rects: list[Rect]) -> Iterator[tuple[Rect, Rect]]:
    """All unordered pairs of rectangles, for spacing scans."""
    for i, first in enumerate(rects):
        for second in rects[i + 1 :]:
            yield first, second
