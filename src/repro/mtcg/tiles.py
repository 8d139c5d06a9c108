"""Maximal tilings of a core window (Fig. 6, left).

The core region is tiled twice — *horizontally* and *vertically*.  In the
horizontal tiling, block tiles are the (vertically merged) polygon
rectangles and space tiles are maximal horizontal strips of empty window
area; the vertical tiling is the transpose.  These tilings are the vertex
sets of the modified transitive closure graphs (MTCGs) built in
:mod:`repro.mtcg.graph`.

Boundary contact is recorded per tile because the feature definitions of
Section III-C qualify tiles by how many of their edges touch the window
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Sequence

from repro.errors import TilingError
from repro.geometry.dissect import any_overlap, disjoint_cover, merge_vertical
from repro.geometry.rect import Rect

#: Sort key of the overlap sweep's x0-sorted input.
_X0 = attrgetter("x0")


class TileKind(Enum):
    """Whether a tile is polygon material or empty space."""

    BLOCK = "block"
    SPACE = "space"


@dataclass(frozen=True)
class Tile:
    """One tile of a window tiling."""

    rect: Rect
    kind: TileKind
    index: int

    @property
    def is_block(self) -> bool:
        return self.kind is TileKind.BLOCK

    @property
    def is_space(self) -> bool:
        return self.kind is TileKind.SPACE

    def boundary_edge_count(self, window: Rect) -> int:
        """How many of the tile's four edges lie on the window boundary."""
        count = 0
        if self.rect.x0 == window.x0:
            count += 1
        if self.rect.x1 == window.x1:
            count += 1
        if self.rect.y0 == window.y0:
            count += 1
        if self.rect.y1 == window.y1:
            count += 1
        return count


@dataclass(frozen=True)
class Tiling:
    """A complete tiling of ``window``: blocks plus space cover, no gaps."""

    window: Rect
    tiles: tuple[Tile, ...]
    orientation: str  # "horizontal" or "vertical"

    def blocks(self) -> list[Tile]:
        return [t for t in self.tiles if t.is_block]

    def spaces(self) -> list[Tile]:
        return [t for t in self.tiles if t.is_space]

    def covers_window(self) -> bool:
        """Exactness check: tiles inside the window, areas summing to its
        area, and no two tiles overlapping (a sort-and-sweep)."""
        rects = [t.rect for t in self.tiles]
        if not all(self.window.contains_rect(rect) for rect in rects):
            return False
        if sum(rect.area for rect in rects) != self.window.area:
            return False
        return not any_overlap(sorted(rects, key=_X0))


def _clip_blocks(rects: Sequence[Rect], window: Rect) -> list[Rect]:
    """Window-clip the blocks and resolve overlaps to a disjoint cover.

    GDSII layouts legitimately contain overlapping shapes (union
    semantics); the tiling operates on the union's disjoint cover.  The
    cover depends on input order, so it is built from the clipped rects in
    their original order.
    """
    clipped = [r for r in (rect.intersection(window) for rect in rects) if r]
    if any_overlap(sorted(clipped, key=_X0)):
        clipped = disjoint_cover(clipped)
    return clipped


def _row_tiles(blocks: list[Rect], window: Rect) -> tuple[Tile, ...]:
    """The tiles of :func:`horizontal_tiling`, from window-clipped disjoint blocks."""
    blocks = merge_vertical(blocks)
    y_cuts = {window.y0, window.y1}
    for block in blocks:
        y_cuts.add(block.y0)
        y_cuts.add(block.y1)
    ys = sorted(y_cuts)

    # Collect raw space strips per slab.
    raw_spaces: list[Rect] = []
    for y0, y1 in zip(ys, ys[1:]):
        occupied = sorted(
            (b.x0, b.x1) for b in blocks if b.y0 < y1 and y0 < b.y1
        )
        cursor = window.x0
        for bx0, bx1 in occupied:
            if bx0 > cursor:
                raw_spaces.append(Rect(cursor, y0, bx0, y1))
            cursor = max(cursor, bx1)
        if cursor < window.x1:
            raw_spaces.append(Rect(cursor, y0, window.x1, y1))

    spaces = merge_vertical(raw_spaces)
    tiles: list[Tile] = []
    for rect in sorted(blocks):
        tiles.append(Tile(rect, TileKind.BLOCK, len(tiles)))
    for rect in sorted(spaces):
        tiles.append(Tile(rect, TileKind.SPACE, len(tiles)))
    return tuple(tiles)


def _transposed(rect: Rect) -> Rect:
    return Rect(rect.y0, rect.x0, rect.y1, rect.x1)


def _checked(window: Rect, tiles: tuple[Tile, ...], orientation: str) -> Tiling:
    tiling = Tiling(window, tiles, orientation)
    if not tiling.covers_window():
        raise TilingError(f"{orientation} tiling does not exactly cover the window")
    return tiling


def _horizontal(blocks: list[Rect], window: Rect) -> Tiling:
    return _checked(window, _row_tiles(blocks, window), "horizontal")


def _vertical(blocks: list[Rect], window: Rect) -> Tiling:
    # The transpose of the horizontal tiling of the transposed blocks.
    transposed = _row_tiles([_transposed(b) for b in blocks], _transposed(window))
    tiles = tuple(Tile(_transposed(t.rect), t.kind, t.index) for t in transposed)
    return _checked(window, tiles, "vertical")


def horizontal_tiling(rects: Sequence[Rect], window: Rect) -> Tiling:
    """Tile ``window`` with blocks and maximal horizontal space strips.

    Space is cut at every block top/bottom edge; within each horizontal
    slab the free x-intervals become space tiles; vertically adjacent space
    tiles with identical x-extent are merged so strips are maximal.
    Blocks are merged vertically first so each block tile is maximal too.
    """
    return _horizontal(_clip_blocks(rects, window), window)


def vertical_tiling(rects: Sequence[Rect], window: Rect) -> Tiling:
    """Tile ``window`` with blocks and maximal vertical space strips.

    Implemented as the transpose of :func:`horizontal_tiling`: coordinates
    are swapped, the horizontal tiling is computed, and the result is
    swapped back.
    """
    return _vertical(_clip_blocks(rects, window), window)


def window_tilings(rects: Sequence[Rect], window: Rect) -> tuple[Tiling, Tiling]:
    """Both tilings of ``window``, from one window clip of ``rects``.

    Equal to ``(horizontal_tiling(rects, window), vertical_tiling(rects,
    window))``; feature extraction builds them once per clip this way.
    """
    blocks = _clip_blocks(rects, window)
    return _horizontal(blocks, window), _vertical(blocks, window)
