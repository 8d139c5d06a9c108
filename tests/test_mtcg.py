"""Tests for MTCG tilings, constraint graphs, and feature extraction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TilingError
from repro.geometry.rect import Rect
from repro.mtcg.graph import _adjacent_pairs, _diagonal_pairs, build_mtcg
from repro.mtcg.rules import FeatureType, RuleRect
from repro.mtcg.features import (
    diagonal_features,
    extract_topological_features,
    external_features,
    internal_features,
    segment_features,
    topological_features_with_tilings,
)
from repro.mtcg.tiles import (
    Tile,
    TileKind,
    Tiling,
    _clip_blocks,
    horizontal_tiling,
    vertical_tiling,
    window_tilings,
)
from tests import extraction_oracles as oracle
from tests.test_topology import messy_patterns

WINDOW = Rect(0, 0, 12, 12)
#: The paper's Fig. 8 "mountain" spirit: three towers on a common base line.
MOUNTAIN = [Rect(1, 1, 3, 5), Rect(5, 1, 7, 9), Rect(9, 1, 11, 5)]


def pattern_strategy():
    def build(raw):
        rects = []
        for x0, y0, w, h in raw:
            r = Rect.maybe(x0, y0, min(12, x0 + w), min(12, y0 + h))
            if r and not any(r.overlaps(o) for o in rects):
                rects.append(r)
        return rects

    return st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 10), st.integers(1, 6), st.integers(1, 6)),
        max_size=6,
    ).map(build)


class TestTilings:
    def test_horizontal_covers(self):
        tiling = horizontal_tiling(MOUNTAIN, WINDOW)
        assert tiling.covers_window()
        assert len(tiling.blocks()) == 3

    def test_vertical_covers(self):
        tiling = vertical_tiling(MOUNTAIN, WINDOW)
        assert tiling.covers_window()

    def test_empty_window_single_space(self):
        tiling = horizontal_tiling([], WINDOW)
        assert len(tiling.tiles) == 1
        assert tiling.tiles[0].kind is TileKind.SPACE
        assert tiling.tiles[0].rect == WINDOW

    def test_full_window_single_block(self):
        tiling = horizontal_tiling([WINDOW], WINDOW)
        assert len(tiling.tiles) == 1
        assert tiling.tiles[0].is_block

    def test_space_strips_maximal_horizontally(self):
        tiling = horizontal_tiling([Rect(4, 4, 8, 8)], WINDOW)
        spaces = [t.rect for t in tiling.spaces()]
        # bottom strip spans the full width
        assert Rect(0, 0, 12, 4) in spaces
        assert Rect(0, 8, 12, 12) in spaces

    def test_vertical_is_transpose(self):
        h = horizontal_tiling([Rect(4, 4, 8, 8)], WINDOW)
        v = vertical_tiling([Rect(4, 4, 8, 8)], WINDOW)
        h_rects = sorted(t.rect for t in h.spaces())
        v_rects = sorted(
            Rect(t.rect.y0, t.rect.x0, t.rect.y1, t.rect.x1) for t in v.spaces()
        )
        assert h_rects == v_rects

    def test_overlapping_blocks_resolved(self):
        tiling = horizontal_tiling([Rect(0, 0, 6, 6), Rect(3, 3, 9, 9)], WINDOW)
        assert tiling.covers_window()

    def test_boundary_edge_count(self):
        tiling = horizontal_tiling([Rect(0, 0, 4, 4)], WINDOW)
        corner_block = tiling.blocks()[0]
        assert corner_block.boundary_edge_count(WINDOW) == 2

    @given(pattern_strategy())
    @settings(max_examples=40, deadline=None)
    def test_tilings_always_cover(self, rects):
        assert horizontal_tiling(rects, WINDOW).covers_window()
        assert vertical_tiling(rects, WINDOW).covers_window()


class TestGraphs:
    def test_axis_validation(self):
        tiling = horizontal_tiling([], WINDOW)
        with pytest.raises(TilingError):
            build_mtcg(tiling, "x")

    def test_ch_edges_point_right(self):
        tiling = horizontal_tiling([Rect(0, 4, 4, 8), Rect(8, 4, 12, 8)], WINDOW)
        graph = build_mtcg(tiling, "h")
        for edge in graph.edges:
            a, b = graph.tile(edge.source).rect, graph.tile(edge.target).rect
            assert a.x1 == b.x0

    def test_cv_edges_point_up(self):
        tiling = vertical_tiling([Rect(4, 0, 8, 4), Rect(4, 8, 8, 12)], WINDOW)
        graph = build_mtcg(tiling, "v")
        for edge in graph.edges:
            a, b = graph.tile(edge.source).rect, graph.tile(edge.target).rect
            assert a.y1 == b.y0

    def test_blocks_connected_through_space(self):
        tiling = horizontal_tiling([Rect(0, 4, 4, 8), Rect(8, 4, 12, 8)], WINDOW)
        graph = build_mtcg(tiling, "h")
        blocks = [t for t in tiling.tiles if t.is_block]
        left = min(blocks, key=lambda t: t.rect.x0)
        successors = graph.successors(left.index)
        assert successors, "left block must connect to the middle space"
        assert all(graph.tile(i).is_space for i in successors)

    def test_diagonal_edge_found(self):
        rects = [Rect(1, 1, 4, 4), Rect(6, 6, 9, 9)]
        tiling = horizontal_tiling(rects, WINDOW)
        graph = build_mtcg(tiling, "h", with_diagonals=True)
        diagonals = graph.diagonal_edges()
        block_diagonals = [
            e
            for e in diagonals
            if graph.tile(e.source).is_block and graph.tile(e.target).is_block
        ]
        assert len(block_diagonals) == 1

    def test_diagonal_blocked_by_interloper(self):
        rects = [Rect(1, 1, 4, 4), Rect(6, 6, 9, 9), Rect(4, 4, 6, 6)]
        tiling = horizontal_tiling(rects, WINDOW)
        graph = build_mtcg(tiling, "h", with_diagonals=True)
        src_tgt = [
            (graph.tile(e.source).rect, graph.tile(e.target).rect)
            for e in graph.diagonal_edges()
            if graph.tile(e.source).is_block
        ]
        assert (Rect(1, 1, 4, 4), Rect(6, 6, 9, 9)) not in src_tgt

    def test_diagonal_max_gap(self):
        rects = [Rect(0, 0, 2, 2), Rect(10, 10, 12, 12)]
        tiling = horizontal_tiling(rects, WINDOW)
        near = build_mtcg(tiling, "h", with_diagonals=True, diagonal_max_gap=4)
        far = build_mtcg(tiling, "h", with_diagonals=True, diagonal_max_gap=None)
        near_blocks = [
            e for e in near.diagonal_edges() if near.tile(e.source).is_block
        ]
        far_blocks = [e for e in far.diagonal_edges() if far.tile(e.source).is_block]
        assert not near_blocks
        assert far_blocks


class TestFeatureExtraction:
    def test_mountain_feature_census(self):
        """The Fig. 8 example: internal, external and segment features."""
        features = extract_topological_features(MOUNTAIN, WINDOW, diagonal_max_gap=20)
        by_type = {ftype: [] for ftype in FeatureType}
        for feature in features:
            by_type[feature.feature_type].append(feature)
        # three isolated towers -> 3 internal features
        assert len(by_type[FeatureType.INTERNAL]) == 3
        # two gaps between towers -> 2 external features
        assert len(by_type[FeatureType.EXTERNAL]) == 2
        # bottom margin strip + top strip -> 2 segment features
        assert len(by_type[FeatureType.SEGMENT]) == 2

    def test_internal_feature_is_the_tile(self):
        features = extract_topological_features([Rect(4, 4, 8, 8)], WINDOW)
        internal = [f for f in features if f.feature_type is FeatureType.INTERNAL]
        assert internal == [
            RuleRect(FeatureType.INTERNAL, 4, 4, 4, 4, False)
        ]

    def test_external_measures_gap(self):
        rects = [Rect(0, 4, 5, 8), Rect(8, 4, 12, 8)]
        features = extract_topological_features(rects, WINDOW)
        external = [f for f in features if f.feature_type is FeatureType.EXTERNAL]
        assert any(f.width == 3 for f in external)

    def test_boundary_mark_set(self):
        features = extract_topological_features([Rect(0, 0, 4, 4)], WINDOW)
        internal = [f for f in features if f.feature_type is FeatureType.INTERNAL]
        # vertical tiling block touches two boundaries -> excluded; the
        # horizontal one too. A corner block yields no internal feature.
        assert not internal

    def test_diagonal_feature_gap_box(self):
        rects = [Rect(1, 1, 4, 4), Rect(6, 6, 9, 9)]
        features = extract_topological_features(rects, WINDOW)
        diagonal = [f for f in features if f.feature_type is FeatureType.DIAGONAL]
        assert any(f.width == 2 and f.height == 2 and f.dx == 4 and f.dy == 4 for f in diagonal)

    def test_touching_corner_diagonal_zero_size(self):
        rects = [Rect(1, 1, 4, 4), Rect(4, 4, 8, 8)]
        features = extract_topological_features(rects, WINDOW)
        diagonal = [f for f in features if f.feature_type is FeatureType.DIAGONAL]
        assert any(f.width == 0 and f.height == 0 for f in diagonal)

    def test_deterministic_and_sorted(self):
        features = extract_topological_features(MOUNTAIN, WINDOW)
        assert features == sorted(features)
        assert features == extract_topological_features(MOUNTAIN, WINDOW)

    def test_rule_rect_from_rect(self):
        rule = RuleRect.from_rect(FeatureType.SEGMENT, Rect(2, 3, 7, 9), WINDOW, True)
        assert rule.as_tuple() == (2, 3, 5, 6, 1)

    @given(pattern_strategy())
    @settings(max_examples=25, deadline=None)
    def test_extraction_never_crashes(self, rects):
        features = extract_topological_features(rects, WINDOW)
        for feature in features:
            assert feature.width >= 0 and feature.height >= 0
            assert 0 <= feature.dx <= 12 and 0 <= feature.dy <= 12


class TestGraphStructure:
    def test_constraint_graphs_are_dags(self):
        """Ch/Cv are constraint graphs: monotone in x/y, hence acyclic."""
        import networkx as nx

        tiling_h = horizontal_tiling(MOUNTAIN, WINDOW)
        tiling_v = vertical_tiling(MOUNTAIN, WINDOW)
        ch = build_mtcg(tiling_h, "h", with_diagonals=True).to_networkx()
        cv = build_mtcg(tiling_v, "v").to_networkx()
        assert nx.is_directed_acyclic_graph(ch)
        assert nx.is_directed_acyclic_graph(cv)

    def test_ch_spans_window_left_to_right(self):
        """Some path crosses the whole window in a constraint graph."""
        import networkx as nx

        tiling = horizontal_tiling(MOUNTAIN, WINDOW)
        graph = build_mtcg(tiling, "h")
        nxg = graph.to_networkx()
        left = [t.index for t in tiling.tiles if t.rect.x0 == WINDOW.x0]
        right = [t.index for t in tiling.tiles if t.rect.x1 == WINDOW.x1]
        assert any(
            nx.has_path(nxg, a, b) for a in left for b in right
        )

    def test_networkx_attributes(self):
        tiling = horizontal_tiling([Rect(4, 4, 8, 8)], WINDOW)
        nxg = build_mtcg(tiling, "h").to_networkx()
        kinds = {data["kind"] for _, data in nxg.nodes(data=True)}
        assert kinds == {"block", "space"}


@st.composite
def tile_sets(draw):
    """Tiles of either kind on messy rects: overlapping, gapped, out of window."""
    rects, window = draw(messy_patterns())
    kinds = draw(st.lists(st.sampled_from(TileKind), min_size=len(rects), max_size=len(rects)))
    tiles = tuple(Tile(rect, kind, i) for i, (rect, kind) in enumerate(zip(rects, kinds)))
    return Tiling(window, tiles, "horizontal")


#: Diagonal search distances: off, touching corners only, and short/long gaps.
MAX_GAPS = (None, 0, 1, 3, 8)


def assert_graph_primitives_match(tiling):
    for axis in ("h", "v"):
        assert list(_adjacent_pairs(tiling, axis)) == list(oracle.adjacent_pairs(tiling, axis))
    for max_gap in MAX_GAPS:
        expected = list(oracle.diagonal_pairs(tiling, max_gap))
        assert list(_diagonal_pairs(tiling, max_gap)) == expected


class TestPrimitivesAgainstReference:
    """Sweeps, edge buckets and lookups equal the all-pairs references,
    pair order included, on overlapping, touching and window-crossing rects."""

    @given(messy_patterns())
    @settings(max_examples=300, deadline=None)
    def test_clip_blocks(self, pattern):
        rects, window = pattern
        assert _clip_blocks(rects, window) == oracle.clip_blocks(rects, window)

    @given(messy_patterns())
    @settings(max_examples=300, deadline=None)
    def test_tilings(self, pattern):
        rects, window = pattern
        h_tiling, v_tiling = window_tilings(rects, window)
        assert h_tiling == horizontal_tiling(rects, window)
        assert v_tiling == vertical_tiling(rects, window)
        assert h_tiling == oracle.horizontal_tiling(rects, window)
        assert v_tiling == oracle.vertical_tiling(rects, window)

    @given(messy_patterns())
    @settings(max_examples=300, deadline=None)
    def test_graphs_on_tilings(self, pattern):
        rects, window = pattern
        for tiling in window_tilings(rects, window):
            assert_graph_primitives_match(tiling)
            for axis in ("h", "v"):
                graph = build_mtcg(tiling, axis, with_diagonals=True, diagonal_max_gap=3)
                reference = oracle.build_mtcg(
                    tiling, axis, with_diagonals=True, diagonal_max_gap=3
                )
                assert graph.edges == reference.edges
                for tile in tiling.tiles:
                    assert graph.successors(tile.index) == reference.successors(tile.index)
                    assert graph.predecessors(tile.index) == reference.predecessors(tile.index)
                    assert graph.neighbors(tile.index) == reference.neighbors(tile.index)

    @given(tile_sets())
    @settings(max_examples=300, deadline=None)
    def test_primitives_on_arbitrary_tile_sets(self, tiling):
        assert tiling.covers_window() == oracle.covers_window(tiling)
        assert_graph_primitives_match(tiling)

    @given(messy_patterns(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_covers_window_rejects_gaps_and_overlaps(self, pattern, data):
        rects, window = pattern
        tiling = horizontal_tiling(rects, window)
        assert tiling.covers_window() and oracle.covers_window(tiling)
        tiles = list(tiling.tiles)
        k = data.draw(st.integers(0, len(tiles) - 1))
        gapped = Tiling(window, tuple(tiles[:k] + tiles[k + 1 :]), "horizontal")
        doubled = Tiling(window, tuple(tiles + [tiles[k]]), "horizontal")
        for broken in (gapped, doubled):
            assert not broken.covers_window()
            assert not oracle.covers_window(broken)

    def test_covers_window_overlap_with_exact_area(self):
        # The overlap and the gap cancel in the area sum; only the sweep sees it.
        window = Rect(0, 0, 4, 2)
        tiles = (
            Tile(Rect(0, 0, 2, 2), TileKind.BLOCK, 0),
            Tile(Rect(1, 0, 3, 2), TileKind.SPACE, 1),
        )
        tiling = Tiling(window, tiles, "horizontal")
        assert not tiling.covers_window()
        assert not oracle.covers_window(tiling)

    @given(messy_patterns(), st.sampled_from(MAX_GAPS))
    @settings(max_examples=300, deadline=None)
    def test_topological_extraction(self, pattern, max_gap):
        rects, window = pattern
        rules, h_tiling, v_tiling = topological_features_with_tilings(rects, window, max_gap)
        assert rules == oracle.extract_topological_features(
            rects, window, diagonal_max_gap=max_gap
        )
        assert rules == extract_topological_features(rects, window, diagonal_max_gap=max_gap)
        assert (h_tiling, v_tiling) == window_tilings(rects, window)

    def test_one_tally_per_extraction(self):
        from repro import obs

        tracer = obs.set_tracer(obs.Tracer(max_spans=1000))
        try:
            topological_features_with_tilings(MOUNTAIN, WINDOW)
            extract_topological_features(MOUNTAIN, WINDOW)
        finally:
            obs.set_tracer(None)
        assert tracer.stage_totals()["mtcg.features"]["count"] == 2
