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

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional

from repro.errors import TilingError
from repro.geometry.grid import lattice_coverage
from repro.mtcg.tiles import Tile, TileKind, Tiling


@dataclass(frozen=True)
class MtcgEdge:
    """A directed constraint edge between two tiles (by tile index)."""

    source: int
    target: int
    diagonal: bool = False


@dataclass(frozen=True)
class Mtcg:
    """A constraint graph over one tiling.

    ``axis`` is ``"h"`` for the horizontal constraint graph (left-to-right
    edges) or ``"v"`` for the vertical constraint graph (bottom-to-top
    edges).
    """

    tiling: Tiling
    axis: str
    edges: tuple[MtcgEdge, ...] = ()

    def tile(self, index: int) -> Tile:
        return self.tiling.tiles[index]

    @cached_property
    def _adjacency(self) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """Successors and predecessors of each tile over non-diagonal
        edges, in edge order; indexed once, on the first query."""
        successors: dict[int, list[int]] = {}
        predecessors: dict[int, list[int]] = {}
        for edge in self.edges:
            if not edge.diagonal:
                successors.setdefault(edge.source, []).append(edge.target)
                predecessors.setdefault(edge.target, []).append(edge.source)
        return successors, predecessors

    def successors(self, index: int) -> list[int]:
        return list(self._adjacency[0].get(index, ()))

    def predecessors(self, index: int) -> list[int]:
        return list(self._adjacency[1].get(index, ()))

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
    """Index pairs of tiles sharing a boundary segment along ``axis``.

    Pairs come in ``(first, second)`` index order.  Tiles are bucketed by
    the coordinate of their bottom (``"v"``) or left (``"h"``) edge, so a
    tile meets only the tiles that start where it ends.
    """
    rects = [tile.rect for tile in tiling.tiles]
    starts: dict[int, list[int]] = {}
    for j, b in enumerate(rects):
        starts.setdefault(b.y0 if axis == "v" else b.x0, []).append(j)
    for i, a in enumerate(rects):
        if axis == "v":
            # a below b, sharing a horizontal segment.
            for j in starts.get(a.y1, ()):
                b = rects[j]
                if min(a.x1, b.x1) > max(a.x0, b.x0):
                    yield (i, j)
        else:
            # a left of b, sharing a vertical segment.
            for j in starts.get(a.x1, ()):
                b = rects[j]
                if min(a.y1, b.y1) > max(a.y0, b.y0):
                    yield (i, j)


def _occupancy(tiling: Tiling, kind: TileKind) -> Callable[[int, int, int, int], bool]:
    """Whether a tile of ``kind`` shares area with a box on its lattice.

    The tiles of ``kind`` cut the plane into their coordinate lattice; a
    2-D prefix count of the lattice cells they cover answers any box whose
    edges lie on the lattice in constant time.
    """
    x_index, y_index, covered = lattice_coverage(
        tile.rect for tile in tiling.tiles if tile.kind is kind
    )
    prefix = covered.cumsum(axis=0).cumsum(axis=1).tolist()

    def occupied(x0: int, y0: int, x1: int, y1: int) -> bool:
        a, b = x_index[x0], x_index[x1]
        c, d = y_index[y0], y_index[y1]
        return prefix[b][d] - prefix[a][d] - prefix[b][c] + prefix[a][c] > 0

    return occupied


def _diagonal_pairs(tiling: Tiling, max_gap: Optional[int]) -> Iterator[tuple[int, int]]:
    """Same-kind tile pairs in diagonal adjacency (corner region empty).

    ``max_gap`` bounds the Chebyshev corner distance: far-apart corners are
    lithographically irrelevant and would bloat the graph quadratically.
    Pairs come in order of their lower, then higher, tile index.
    """
    tiles = tiling.tiles
    # Each kind's tile indices in order; tile i pairs with the ones after it.
    same_kind: dict[TileKind, list[int]] = {}
    for index, tile in enumerate(tiles):
        same_kind.setdefault(tile.kind, []).append(index)
    seen = dict.fromkeys(same_kind, 0)
    occupancy = {kind: _occupancy(tiling, kind) for kind in same_kind}
    for i, first in enumerate(tiles):
        a = first.rect
        seen[first.kind] += 1
        for j in same_kind[first.kind][seen[first.kind] :]:
            b = tiles[j].rect
            # Diagonally placed: projections disjoint on both axes.
            if not (
                (a.x1 <= b.x0 or b.x1 <= a.x0) and (a.y1 <= b.y0 or b.y1 <= a.y0)
            ):
                continue
            # The open corner gap box.  It is empty when the tiles touch
            # on an axis (an exact corner touch), which still counts as
            # diagonal adjacency.  Its edges are edges of the two tiles,
            # so it lies on the lattice of their kind.
            x0, x1 = min(a.x1, b.x1), max(a.x0, b.x0)
            y0, y1 = min(a.y1, b.y1), max(a.y0, b.y0)
            if x0 < x1 and y0 < y1:
                if max_gap is not None and max(x1 - x0, y1 - y0) > max_gap:
                    continue
                # Neither tile of the pair reaches into the box.
                if occupancy[first.kind](x0, y0, x1, y1):
                    continue
            yield (i, j) if a.x0 <= b.x0 else (j, i)


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
    edges = [MtcgEdge(source, target) for source, target in _adjacent_pairs(tiling, axis)]
    if with_diagonals:
        edges.extend(
            MtcgEdge(source, target, diagonal=True)
            for source, target in _diagonal_pairs(tiling, diagonal_max_gap)
        )
    return Mtcg(tiling, axis, tuple(edges))
