"""Topological critical-feature extraction from MTCGs (Section III-C).

All critical features of a core pattern are extracted from the
*horizontally tiled horizontal* constraint graph and the *vertically tiled
vertical* constraint graph; the other two graphs serve only for boundary
checks (the paper's wording).  Four feature types are produced:

- **internal** — width/height of a block tile with at most one edge on the
  window boundary whose graph neighbours are all space tiles;
- **external** — the space tile lying between exactly two block tiles with
  at most one boundary edge (the blocks' facing distance);
- **diagonal** — the corner-to-corner relation carried by a diagonal edge;
- **segment** — a space tile with two or three boundary edges (a boundary
  strip).

Each feature is recorded as a :class:`repro.features.rules.RuleRect`
relative to the window's bottom-left reference point.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro import obs
from repro.mtcg.rules import FeatureType, RuleRect
from repro.geometry.rect import Rect
from repro.mtcg.graph import Mtcg, build_mtcg
from repro.mtcg.tiles import Tiling, window_tilings


def internal_features(graph: Mtcg, window: Rect) -> list[RuleRect]:
    """Block tiles isolated by space on the graph axis (Fig. 7(a))."""
    out = []
    for tile in graph.tiling.tiles:
        if not tile.is_block:
            continue
        if tile.boundary_edge_count(window) > 1:
            continue
        neighbor_tiles = [graph.tile(i) for i in graph.neighbors(tile.index)]
        if neighbor_tiles and all(t.is_space for t in neighbor_tiles):
            out.append(
                RuleRect.from_rect(
                    FeatureType.INTERNAL,
                    tile.rect,
                    window,
                    boundary_mark=tile.boundary_edge_count(window) > 0,
                )
            )
    return out


def external_features(graph: Mtcg, window: Rect) -> list[RuleRect]:
    """Space tiles lying between exactly two block tiles (Fig. 7(b))."""
    out = []
    for tile in graph.tiling.tiles:
        if not tile.is_space:
            continue
        if tile.boundary_edge_count(window) > 1:
            continue
        predecessors = [graph.tile(i) for i in graph.predecessors(tile.index)]
        successors = [graph.tile(i) for i in graph.successors(tile.index)]
        block_before = [t for t in predecessors if t.is_block]
        block_after = [t for t in successors if t.is_block]
        if len(block_before) == 1 and len(block_after) == 1:
            out.append(
                RuleRect.from_rect(
                    FeatureType.EXTERNAL,
                    tile.rect,
                    window,
                    boundary_mark=tile.boundary_edge_count(window) > 0,
                )
            )
    return out


def diagonal_features(graph: Mtcg, window: Rect) -> list[RuleRect]:
    """Corner relations carried by diagonal edges (Fig. 7(c)).

    The rule rectangle spans the corner gap between the two tiles; exact
    corner touches yield zero width/height.
    """
    out = []
    for edge in graph.diagonal_edges():
        a = graph.tile(edge.source).rect
        b = graph.tile(edge.target).rect
        gap_x0, gap_x1 = min(a.x1, b.x1), max(a.x0, b.x0)
        gap_y0, gap_y1 = min(a.y1, b.y1), max(a.y0, b.y0)
        touches = (
            gap_x0 == window.x0
            or gap_x1 == window.x1
            or gap_y0 == window.y0
            or gap_y1 == window.y1
        )
        out.append(
            RuleRect(
                feature_type=FeatureType.DIAGONAL,
                dx=gap_x0 - window.x0,
                dy=gap_y0 - window.y0,
                width=gap_x1 - gap_x0,
                height=gap_y1 - gap_y0,
                boundary_mark=touches,
            )
        )
    return out


def segment_features(tiling: Tiling, window: Rect) -> list[RuleRect]:
    """Boundary space strips: 2-3 edges on the window boundary (Fig. 7(d))."""
    out = []
    for tile in tiling.tiles:
        if not tile.is_space:
            continue
        if tile.boundary_edge_count(window) in (2, 3):
            out.append(
                RuleRect.from_rect(
                    FeatureType.SEGMENT, tile.rect, window, boundary_mark=True
                )
            )
    return out


def extract_topological_features(
    rects: Sequence[Rect],
    window: Rect,
    *,
    diagonal_max_gap: Optional[int] = None,
) -> list[RuleRect]:
    """Full Section III-C extraction over one pattern window.

    Builds the horizontally tiled ``Ch`` (with diagonal edges) and the
    vertically tiled ``Cv``, extracts all four feature types from them, and
    returns the deduplicated, canonically sorted rule-rectangle list.
    """
    return topological_features_with_tilings(rects, window, diagonal_max_gap)[0]


def topological_features_with_tilings(
    rects: Sequence[Rect],
    window: Rect,
    diagonal_max_gap: Optional[int] = None,
) -> tuple[list[RuleRect], Tiling, Tiling]:
    """:func:`extract_topological_features` plus the two tilings it read.

    Both tilings come from one window clip of ``rects``; feature
    extraction hands them on to the nontopological features, which
    measure widths and spacings on the same tiles.
    """
    # This is the hottest path in the pipeline (once per clip per schema
    # build); a full span per call would dominate the trace, so timings
    # aggregate into one tally — and only when tracing is on.  The tally
    # *count* is a contract: the cache regression tests assert exactly one
    # sweep per unique clip per scan through it, so it must stay on the
    # uncached path and fire once per extraction.
    if obs.enabled():
        started = time.perf_counter()
        result = _extract_topological_features(rects, window, diagonal_max_gap)
        obs.tally("mtcg.features", time.perf_counter() - started)
        return result
    return _extract_topological_features(rects, window, diagonal_max_gap)


def _extract_topological_features(
    rects: Sequence[Rect],
    window: Rect,
    diagonal_max_gap: Optional[int],
) -> tuple[list[RuleRect], Tiling, Tiling]:
    h_tiling, v_tiling = window_tilings(rects, window)
    ch = build_mtcg(
        h_tiling, "h", with_diagonals=True, diagonal_max_gap=diagonal_max_gap
    )
    cv = build_mtcg(v_tiling, "v")

    features: set[RuleRect] = set()
    features.update(internal_features(ch, window))
    features.update(internal_features(cv, window))
    features.update(external_features(ch, window))
    features.update(external_features(cv, window))
    features.update(diagonal_features(ch, window))
    features.update(segment_features(h_tiling, window))
    return sorted(features), h_tiling, v_tiling
