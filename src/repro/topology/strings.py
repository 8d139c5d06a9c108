"""Directional-string topology encoding (Section III-B1).

A core pattern is *vertically sliced along polygon edges*; each slice gets a
binary code — a leading ``1`` for the window boundary, then one bit per
block/space segment read away from that boundary (block = 1, space = 0) —
which is then read as an integer.  The sequence of slice codes for the
downward direction is the *downward string*; the other three directional
strings are, by definition, the downward strings of the pattern rotated so
that the right, top and left sides face downward.

The four strings are generated in a rotation-covariant way: slices are
ordered along the counter-clockwise boundary traversal of the window, so a
90-degree pattern rotation cyclically permutes ``(bottom, right, top,
left)``.  That covariance is what makes Theorem 1's composite-string
matching work (see :mod:`repro.topology.match`).

No rotation is ever computed.  Rotating a side to face downward only
changes the order the slices and their segments are read in, so two sweeps
over the window-clipped rects give all four strings: the x-slabs give
``bottom`` (slabs left to right, segments read upward) and ``top`` (slabs
right to left, segments read downward), and the y-slabs give ``right``
(slabs bottom to top, segments read leftward) and ``left`` (slabs top to
bottom, segments read rightward).

The paper's Fig. 5(a) example — an "L" made of a full-height bar plus a
floating arm slice — encodes as ``<3, 10>`` = ``<11b, 1010b>``; the tests
reproduce that exact value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import TopologyError
from repro.geometry.rect import Rect

SIDES = ("bottom", "right", "top", "left")


@dataclass(frozen=True)
class DirectionalStrings:
    """The four directional strings of one core pattern."""

    bottom: tuple[int, ...]
    right: tuple[int, ...]
    top: tuple[int, ...]
    left: tuple[int, ...]

    def side(self, name: str) -> tuple[int, ...]:
        try:
            return getattr(self, name)
        except AttributeError:
            raise TopologyError(f"unknown side {name!r}") from None

    def circular(self) -> tuple[int, ...]:
        """The full CCW circular sequence bottom+right+top+left."""
        return self.bottom + self.right + self.top + self.left

    def adjacent_pairs(self) -> list[tuple[int, ...]]:
        """The four concatenations of adjacent sides, CCW order.

        These are the probes Theorem 1 searches for in the other pattern's
        composite strings.
        """
        sequence = [self.bottom, self.right, self.top, self.left]
        return [
            sequence[i] + sequence[(i + 1) % 4] for i in range(4)
        ]


def _sweep(spans: list[tuple], lo: int, hi: int, read_lo: int, read_hi: int) -> tuple:
    """Slice codes of one sweep, in sweep order, read from both ends.

    ``spans`` are sorted window-clipped ``(b0, b1, a0, a1)`` extents.  The
    sweep axis ``[lo, hi]`` is cut at every span edge; a slab's blocks are
    the merged (touching counts) b-intervals of the spans covering it, and
    adjacent slabs with identical blocks merge, so the slab count reflects
    topology changes only.  A slab's code is a leading ``1`` then one bit
    per segment (block 1, space 0) read away from ``read_lo``; read away
    from ``read_hi`` it is the same segments reversed.
    """
    edges = {lo, hi}
    for _, _, a0, a1 in spans:
        edges.update((a0, a1))
    cuts = sorted(edges)
    previous = None
    from_lo: list[int] = []
    from_hi: list[int] = []
    for start, stop in zip(cuts, cuts[1:]):
        blocks: list[list[int]] = []
        for b0, b1, a0, a1 in spans:
            if a0 < stop and start < a1:
                if blocks and b0 <= blocks[-1][1]:
                    blocks[-1][1] = max(blocks[-1][1], b1)
                else:
                    blocks.append([b0, b1])
        if blocks == previous:
            continue
        previous = blocks
        bits, cursor = "", read_lo
        for b0, b1 in blocks:
            bits += "01" if b0 > cursor else "1"  # [space,] block
            cursor = b1
        if cursor < read_hi:
            bits += "0"  # trailing space up to the far boundary
        from_lo.append(int("1" + bits, 2))
        from_hi.append(int("1" + bits[::-1], 2))
    return from_lo, from_hi


def _x_sweep(rects: Sequence[Rect], window: Rect) -> tuple:
    """Codes of the x-slabs, left to right, read upward and downward."""
    spans = sorted((r.y0, r.y1, r.x0, r.x1) for r in rects)
    return _sweep(spans, window.x0, window.x1, window.y0, window.y1)


def _clipped(rects: Sequence[Rect], window: Rect) -> list[Rect]:
    return [r for r in (rect.intersection(window) for rect in rects) if r is not None]


def downward_string(rects: Sequence[Rect], window: Rect) -> tuple[int, ...]:
    """The downward directional string of a pattern.

    Slices are cut at every polygon edge x-coordinate; adjacent slabs whose
    merged block intervals are geometrically identical are re-merged so the
    slice count reflects topology changes only.
    """
    upward, _ = _x_sweep(_clipped(rects, window), window)
    return tuple(upward)


def directional_strings(rects: Sequence[Rect], window: Rect) -> DirectionalStrings:
    """All four directional strings of a pattern, from two sweeps.

    Each equals the downward string of the pattern rotated so that side
    faces downward, which orders slices along the CCW window boundary.
    Requires a square window (the D8 group acts on squares).
    """
    if window.width != window.height:
        raise TopologyError(
            f"directional strings need a square window, got {window.width}x{window.height}"
        )
    clipped = _clipped(rects, window)
    upward, downward = _x_sweep(clipped, window)
    y_spans = sorted((r.x0, r.x1, r.y0, r.y1) for r in clipped)
    rightward, leftward = _sweep(y_spans, window.y0, window.y1, window.x0, window.x1)
    return DirectionalStrings(
        bottom=tuple(upward),
        right=tuple(leftward),
        top=tuple(reversed(downward)),
        left=tuple(reversed(rightward)),
    )


def key_orbit(strings: DirectionalStrings) -> list[tuple[tuple[int, ...], ...]]:
    """All eight D8 images of a directional-string 4-tuple.

    The geometric D8 action translates to a combinatorial action on side
    strings: a 90-degree CCW rotation cyclically shifts
    ``(bottom, right, top, left) -> (left, bottom, right, top)``, and the
    vertical-axis mirror swaps left/right and reverses every side's slice
    order.  Computing the orbit this way costs the two sweeps of
    :func:`directional_strings` instead of eight slicings.
    """
    sides = (strings.bottom, strings.right, strings.top, strings.left)
    mirrored = tuple(
        tuple(reversed(s))
        for s in (sides[0], sides[3], sides[2], sides[1])
    )
    orbit = []
    for base in (sides, mirrored):
        for shift in range(4):
            orbit.append(base[shift:] + base[:shift])
    return orbit


def canonical_string_key(rects: Sequence[Rect], window: Rect) -> tuple[tuple[int, ...], ...]:
    """A D8-invariant canonical key built from directional strings.

    The key is the lexicographically smallest side-string 4-tuple over the
    pattern's D8 orbit.  Two patterns share a key iff they have the same
    topology under some orientation — the exact congruence string-based
    classification needs, with none of the substring-matching edge cases
    of the composite search.
    """
    strings = directional_strings(rects, window)
    return min(key_orbit(strings))
