"""Modified transitive closure graphs over tilings (Fig. 6, right).

For a tiling, two constraint graphs are built by sweep-line over tile
edges:

- the **vertical constraint graph** ``Cv`` has a directed edge between any
  two *adjacent* tiles (sharing a horizontal boundary segment) whose
  x-projections overlap, directed upward;
- the **horizontal constraint graph** ``Ch`` has a directed edge between
  any two adjacent tiles (sharing a vertical boundary segment) whose
  y-projections overlap, directed rightward.

Additionally, *only* in the horizontally tiled ``Ch``, a **diagonal** edge
is added between two block tiles (or two space tiles) whose y-projections
do not overlap when no other tile of the same kind intrudes into the
corner region between them (Section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import TilingError
from repro.geometry.rect import Rect
from repro.mtcg.tiles import Tile, Tiling


@dataclass(frozen=True)
class MtcgEdge:
    """A directed constraint edge between two tiles (by tile index)."""

    source: int
    target: int
    diagonal: bool = False


@dataclass
class Mtcg:
    """A constraint graph over one tiling.

    ``axis`` is ``"h"`` for the horizontal constraint graph (left-to-right
    edges) or ``"v"`` for the vertical constraint graph (bottom-to-top
    edges).
    """

    tiling: Tiling
    axis: str
    edges: list[MtcgEdge] = field(default_factory=list)

    def tile(self, index: int) -> Tile:
        return self.tiling.tiles[index]

    def successors(self, index: int) -> list[int]:
        return [e.target for e in self.edges if e.source == index and not e.diagonal]

    def predecessors(self, index: int) -> list[int]:
        return [e.source for e in self.edges if e.target == index and not e.diagonal]

    def neighbors(self, index: int) -> list[int]:
        """Both predecessors and successors over non-diagonal edges."""
        return self.predecessors(index) + self.successors(index)

    def diagonal_edges(self) -> list[MtcgEdge]:
        return [e for e in self.edges if e.diagonal]

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` for analysis and plotting.

        Vertices carry ``kind`` ("block"/"space") and ``rect`` attributes;
        edges carry ``diagonal``.  Requires networkx (an optional
        convenience — nothing in the pipeline depends on it).
        """
        import networkx as nx

        graph = nx.DiGraph()
        for tile in self.tiling.tiles:
            graph.add_node(tile.index, kind=tile.kind.value, rect=tile.rect)
        for edge in self.edges:
            graph.add_edge(edge.source, edge.target, diagonal=edge.diagonal)
        return graph


def _adjacent_pairs(tiling: Tiling, axis: str) -> Iterator[tuple[int, int]]:
    """Index pairs of tiles sharing a boundary segment along ``axis``."""
    tiles = tiling.tiles
    for i, first in enumerate(tiles):
        for j, second in enumerate(tiles):
            if i == j:
                continue
            a, b = first.rect, second.rect
            if axis == "v":
                # first below second, sharing a horizontal segment.
                if a.y1 == b.y0 and min(a.x1, b.x1) > max(a.x0, b.x0):
                    yield (i, j)
            else:
                # first left of second, sharing a vertical segment.
                if a.x1 == b.x0 and min(a.y1, b.y1) > max(a.y0, b.y0):
                    yield (i, j)


def _corner_region(a: Rect, b: Rect) -> Optional[Rect]:
    """The open corner gap box between two diagonally-placed rectangles.

    ``None`` when the rectangles corner-touch exactly (the gap box is
    degenerate), which still counts as diagonal adjacency.
    """
    x0, x1 = min(a.x1, b.x1), max(a.x0, b.x0)
    y0, y1 = min(a.y1, b.y1), max(a.y0, b.y0)
    return Rect.maybe(x0, y0, x1, y1)


def _diagonally_placed(a: Rect, b: Rect) -> bool:
    """Projections disjoint on both axes (strict corner relation)."""
    x_disjoint = a.x1 <= b.x0 or b.x1 <= a.x0
    y_disjoint = a.y1 <= b.y0 or b.y1 <= a.y0
    return x_disjoint and y_disjoint


def _diagonal_pairs(tiling: Tiling, max_gap: Optional[int]) -> Iterator[tuple[int, int]]:
    """Same-kind tile pairs in diagonal adjacency (corner region empty).

    ``max_gap`` bounds the Chebyshev corner distance: far-apart corners are
    lithographically irrelevant and would bloat the graph quadratically.
    """
    tiles = tiling.tiles
    for i, first in enumerate(tiles):
        for j in range(i + 1, len(tiles)):
            second = tiles[j]
            if first.kind is not second.kind:
                continue
            a, b = first.rect, second.rect
            if not _diagonally_placed(a, b):
                continue
            region = _corner_region(a, b)
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


def build_mtcg(
    tiling: Tiling,
    axis: str,
    *,
    with_diagonals: bool = False,
    diagonal_max_gap: Optional[int] = None,
) -> Mtcg:
    """Build the constraint graph of ``tiling`` along ``axis``.

    Section III-C adds diagonal edges only to the horizontally tiled
    horizontal constraint graph; callers opt in with ``with_diagonals``.
    """
    if axis not in ("h", "v"):
        raise TilingError(f"axis must be 'h' or 'v', got {axis!r}")
    graph = Mtcg(tiling, axis)
    seen: set[tuple[int, int]] = set()
    for source, target in _adjacent_pairs(tiling, axis):
        if (source, target) not in seen:
            seen.add((source, target))
            graph.edges.append(MtcgEdge(source, target))
    if with_diagonals:
        for source, target in _diagonal_pairs(tiling, diagonal_max_gap):
            graph.edges.append(MtcgEdge(source, target, diagonal=True))
    return graph
