"""The dihedral group D8 of layout orientations, plus GDSII-style transforms.

The paper matches patterns under "eight possible orientations ... four
rotations (0, 90, 180, 270 degrees) and two mirrors" (footnote 1).  These
eight symmetries form the dihedral group of the square, implemented here as
an enum whose members act on points, rectangles and rectangle sets within a
square window.

Orientation of *content inside a window* is what both the directional-string
matcher and the density distance (Eq. 1) need: the window stays put and its
contents are rotated/mirrored about the window centre.  All transforms keep
coordinates integral provided the window has even side length — and every
window in this library does, because clip sides come from even nm counts.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.rect import Rect


class Orientation(Enum):
    """One of the eight symmetries of the square (the dihedral group D8).

    Naming: ``R<deg>`` is a counter-clockwise rotation; ``M`` prefixed
    members first mirror about the vertical axis (x -> -x) then rotate.
    """

    R0 = "R0"
    R90 = "R90"
    R180 = "R180"
    R270 = "R270"
    MX = "MX"  # mirror about the horizontal axis (y -> -y)
    MY = "MY"  # mirror about the vertical axis (x -> -x)
    MXR90 = "MXR90"  # mirror about horizontal axis, then rotate 90 ccw
    MYR90 = "MYR90"  # mirror about vertical axis, then rotate 90 ccw

    def apply_to_unit(self, x: int, y: int) -> tuple[int, int]:
        """Act on a coordinate pair about the origin."""
        if self is Orientation.R0:
            return x, y
        if self is Orientation.R90:
            return -y, x
        if self is Orientation.R180:
            return -x, -y
        if self is Orientation.R270:
            return y, -x
        if self is Orientation.MX:
            return x, -y
        if self is Orientation.MY:
            return -x, y
        if self is Orientation.MXR90:
            return y, x
        if self is Orientation.MYR90:
            return -y, -x
        raise GeometryError(f"unknown orientation {self!r}")

    @property
    def swaps_axes(self) -> bool:
        """Whether width and height exchange under this orientation."""
        return self in (
            Orientation.R90,
            Orientation.R270,
            Orientation.MXR90,
            Orientation.MYR90,
        )

    def inverse(self) -> "Orientation":
        """The orientation that undoes this one."""
        inverses = {
            Orientation.R0: Orientation.R0,
            Orientation.R90: Orientation.R270,
            Orientation.R180: Orientation.R180,
            Orientation.R270: Orientation.R90,
            Orientation.MX: Orientation.MX,
            Orientation.MY: Orientation.MY,
            Orientation.MXR90: Orientation.MXR90,
            Orientation.MYR90: Orientation.MYR90,
        }
        return inverses[self]


ALL_ORIENTATIONS: tuple[Orientation, ...] = tuple(Orientation)


def transform_point_in_window(p: Point, window: Rect, orientation: Orientation) -> Point:
    """Act on a point with the window held fixed.

    The point is expressed relative to the window centre (doubled to stay
    integral for odd-centre windows), transformed, and re-anchored.  For
    axis-swapping orientations the window must be square, otherwise the
    image would fall outside the window.
    """
    if orientation.swaps_axes and window.width != window.height:
        raise GeometryError(
            "axis-swapping orientation requires a square window, got "
            f"{window.width}x{window.height}"
        )
    # Work in doubled coordinates so the centre (possibly at a half-integer)
    # stays on the lattice.
    cx2 = window.x0 + window.x1
    cy2 = window.y0 + window.y1
    rel_x = 2 * p.x - cx2
    rel_y = 2 * p.y - cy2
    tx, ty = orientation.apply_to_unit(rel_x, rel_y)
    return Point((tx + cx2) // 2, (ty + cy2) // 2)


def transform_rect_in_window(rect: Rect, window: Rect, orientation: Orientation) -> Rect:
    """Act on a rectangle with the window held fixed."""
    a = transform_point_in_window(rect.lower_left, window, orientation)
    b = transform_point_in_window(rect.upper_right, window, orientation)
    return Rect.from_corners(a, b)


def transform_rects_in_window(
    rects: Iterable[Rect], window: Rect, orientation: Orientation
) -> list[Rect]:
    """Act on every rectangle of a set, preserving set semantics.

    The result is sorted so that two rectangle sets that are equal as sets
    compare equal as lists — required by the string/density matchers which
    canonicalise over orientations.
    """
    return sorted(transform_rect_in_window(r, window, orientation) for r in rects)


def compose(first: Orientation, then: Orientation) -> Orientation:
    """Group composition: apply ``first``, then ``then``.

    Computed by probing the action on two points that distinguish all eight
    group elements.
    """
    probes = [(1, 0), (0, 2)]

    def image(orientation_pair: tuple[Orientation, Orientation]) -> tuple:
        a, b = orientation_pair
        out = []
        for x, y in probes:
            mx, my = a.apply_to_unit(x, y)
            out.append(b.apply_to_unit(mx, my))
        return tuple(out)

    target = image((first, then))
    for candidate in ALL_ORIENTATIONS:
        if image((candidate, Orientation.R0)) == target:
            return candidate
    raise GeometryError("orientation composition did not close the group")


def _axis_map(orientation: Orientation) -> tuple[bool, int, int]:
    """How ``orientation`` moves coordinates about the origin.

    ``(swap, x_sign, y_sign)``: the image's x is ``x_sign`` times the
    source's y when ``swap`` (its x otherwise), and its y is ``y_sign``
    times the other source coordinate.
    """
    x, y = orientation.apply_to_unit(1, 2)
    return abs(x) == 2, (1 if x > 0 else -1), (1 if y > 0 else -1)


_AXIS_MAPS = tuple((o, _axis_map(o)) for o in ALL_ORIENTATIONS)


def _oriented(
    box: tuple[int, int, int, int], swap: bool, x_sign: int, y_sign: int
) -> tuple[int, int, int, int]:
    """The image of a centre-relative ``(x0, y0, x1, y1)`` box."""
    x0, y0, x1, y1 = box
    if swap:
        x0, y0, x1, y1 = y0, x0, y1, x1
    if x_sign < 0:
        x0, x1 = -x1, -x0
    if y_sign < 0:
        y0, y1 = -y1, -y0
    return x0, y0, x1, y1


def canonical_form(rects: list[Rect], window: Rect) -> tuple[Orientation, list[Rect]]:
    """Canonical representative of a rectangle set under D8.

    Returns the orientation giving the lexicographically smallest
    transformed set together with that set; of equal sets the first
    orientation in :data:`ALL_ORIENTATIONS` order wins.  Two patterns are
    congruent under D8 iff their canonical forms are equal, which gives
    the clustering code an exact, hashable congruence key.

    The orientations are compared as sorted integer 4-tuples in the
    doubled, centre-relative coordinates of
    :func:`transform_point_in_window`, which map to the lattice one to one
    and in order, and only the winner is built as ``Rect``s.
    """
    if rects and window.width != window.height:
        raise GeometryError(
            "axis-swapping orientation requires a square window, got "
            f"{window.width}x{window.height}"
        )
    cx2 = window.x0 + window.x1
    cy2 = window.y0 + window.y1
    boxes = [(2 * r.x0 - cx2, 2 * r.y0 - cy2, 2 * r.x1 - cx2, 2 * r.y1 - cy2) for r in rects]
    best: tuple[Orientation, list[tuple[int, int, int, int]]] | None = None
    for orientation, (swap, x_sign, y_sign) in _AXIS_MAPS:
        image = sorted(_oriented(box, swap, x_sign, y_sign) for box in boxes)
        if best is None or image < best[1]:
            best = (orientation, image)
    assert best is not None  # ALL_ORIENTATIONS is non-empty
    orientation, image = best
    return orientation, [
        Rect((x0 + cx2) // 2, (y0 + cy2) // 2, (x1 + cx2) // 2, (y1 + cy2) // 2)
        for x0, y0, x1, y1 in image
    ]
