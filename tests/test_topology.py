"""Tests for directional strings, Theorem-1 matching, and clustering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.geometry.rect import Rect
from repro.geometry.transform import Orientation, transform_rects_in_window
from repro.layout.clip import Clip, ClipLabel, ClipSpec
from repro.topology.cluster import ClassifierConfig, Cluster, TopologicalClassifier
from repro.topology.density import (
    best_alignment,
    cluster_radius,
    density_distance,
    density_distance_fixed,
    pairwise_max_distance,
)
from repro.topology.match import (
    composite_ccw,
    composite_cw,
    contains_subsequence,
    same_topology,
    strings_match,
)
from repro.topology.strings import (
    DirectionalStrings,
    canonical_string_key,
    directional_strings,
    downward_string,
    key_orbit,
)

WINDOW = Rect(0, 0, 10, 10)
#: Fig. 5(a)-like "L": a full-height bar plus a floating arm.
L_RECTS = [Rect(0, 0, 3, 10), Rect(3, 4, 9, 6)]


def random_pattern_strategy():
    """Non-overlapping rect sets inside WINDOW."""

    def build(raw):
        rects = []
        for x0, y0, w, h in raw:
            r = Rect.maybe(x0, y0, min(10, x0 + w), min(10, y0 + h))
            if r and not any(r.overlaps(o) for o in rects):
                rects.append(r)
        return rects

    return st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 5), st.integers(1, 5)),
        min_size=1,
        max_size=5,
    ).map(build).filter(lambda rects: rects)


def reference_downward_string(rects, window):
    """The per-slab rescan the sweep replaced: every slab re-filters every rect."""

    def merged_y_intervals(x0, x1):
        spans = sorted(
            (max(r.y0, window.y0), min(r.y1, window.y1))
            for r in rects
            if r.x0 < x1 and x0 < r.x1 and r.y0 < window.y1 and window.y0 < r.y1
        )
        merged = []
        for lo, hi in spans:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return tuple((lo, hi) for lo, hi in merged)

    def slice_code(intervals):
        bits = ["1"]
        cursor = window.y0
        for lo, hi in intervals:
            if lo > cursor:
                bits.append("0")
            bits.append("1")
            cursor = hi
        if cursor < window.y1:
            bits.append("0")
        if not intervals:
            bits = ["1", "0"]
        return int("".join(bits), 2)

    cuts = {window.x0, window.x1}
    for rect in rects:
        if rect.x1 > window.x0 and rect.x0 < window.x1:
            cuts.add(max(rect.x0, window.x0))
            cuts.add(min(rect.x1, window.x1))
    xs = sorted(cuts)
    slabs = []
    for x0, x1 in zip(xs, xs[1:]):
        intervals = merged_y_intervals(x0, x1)
        if slabs and slabs[-1] == intervals:
            continue
        slabs.append(intervals)
    return tuple(slice_code(intervals) for intervals in slabs)


#: The rotation that brings each window side to face downward.
SIDE_ROTATION = {
    "bottom": Orientation.R0,
    "right": Orientation.R270,
    "top": Orientation.R180,
    "left": Orientation.R90,
}


def reference_directional_strings(rects, window):
    """The definition: each side's downward string after rotating it down."""
    return DirectionalStrings(
        **{
            side: reference_downward_string(
                transform_rects_in_window(rects, window, rotation), window
            )
            for side, rotation in SIDE_ROTATION.items()
        }
    )


@st.composite
def messy_patterns(draw):
    """A window and rects that overlap, touch, cross its edge or miss it.

    Coordinates come from a lattice a few units wider than the window, so
    shared edges, shared corners, duplicates and containment are common.
    The window is square half of the time (directional strings need one).
    """
    x0, y0 = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    width = draw(st.integers(1, 12))
    height = draw(st.one_of(st.just(width), st.integers(1, 12)))
    window = Rect(x0, y0, x0 + width, y0 + height)

    def span(lo, hi):
        return st.lists(
            st.integers(lo - 3, hi + 3), min_size=2, max_size=2, unique=True
        ).map(sorted)

    spans = st.tuples(span(window.x0, window.x1), span(window.y0, window.y1))
    pairs = draw(st.lists(spans, max_size=8))
    return [Rect(xs[0], ys[0], xs[1], ys[1]) for xs, ys in pairs], window


class TestSweepAgainstReference:
    """The two sweeps equal the rotation definition on any geometry."""

    @given(messy_patterns())
    @settings(max_examples=400, deadline=None)
    def test_matches_rotation_reference(self, pattern):
        rects, window = pattern
        assert downward_string(rects, window) == reference_downward_string(rects, window)
        if window.width == window.height:
            expected = reference_directional_strings(rects, window)
            assert directional_strings(rects, window) == expected
            assert canonical_string_key(rects, window) == min(key_orbit(expected))


class TestDownwardString:
    def test_paper_fig5_example(self):
        """The Fig. 5(a) L-pattern encodes <3, 10> (plus the empty slab)."""
        assert downward_string(L_RECTS, WINDOW)[:2] == (3, 10)

    def test_empty_window(self):
        assert downward_string([], WINDOW) == (2,)  # "10": one empty slab

    def test_full_window(self):
        assert downward_string([WINDOW], WINDOW) == (3,)  # "11": all block

    def test_floating_block(self):
        # space below and above: "1010" = 10
        assert downward_string([Rect(0, 3, 10, 7)], WINDOW) == (10,)

    def test_two_stacked_blocks(self):
        # from bottom: space, block, space, block, space = "101010" = 42
        rects = [Rect(0, 2, 10, 4), Rect(0, 6, 10, 8)]
        assert downward_string(rects, WINDOW) == (42,)

    def test_identical_adjacent_slabs_merged(self):
        # two abutting rects with the same y-span merge into one slice
        rects = [Rect(0, 2, 5, 4), Rect(5, 2, 10, 4)]
        assert len(downward_string(rects, WINDOW)) == 1

    def test_touching_bottom_boundary(self):
        # block on the bottom edge then space: "110" = 6
        assert downward_string([Rect(0, 0, 10, 4)], WINDOW) == (6,)


class TestDirectionalStrings:
    def test_four_sides(self):
        ds = directional_strings(L_RECTS, WINDOW)
        assert ds.bottom == (3, 10, 2)
        assert len(ds.circular()) == len(ds.bottom) + len(ds.right) + len(ds.top) + len(ds.left)

    def test_rotation_cyclically_shifts_sides(self):
        ds = directional_strings(L_RECTS, WINDOW)
        rotated = transform_rects_in_window(L_RECTS, WINDOW, Orientation.R90)
        ds_rot = directional_strings(rotated, WINDOW)
        assert ds_rot.bottom == ds.left
        assert ds_rot.right == ds.bottom
        assert ds_rot.top == ds.right
        assert ds_rot.left == ds.top

    def test_non_square_window_rejected(self):
        with pytest.raises(TopologyError):
            directional_strings([], Rect(0, 0, 10, 6))

    def test_adjacent_pairs(self):
        ds = directional_strings(L_RECTS, WINDOW)
        pairs = ds.adjacent_pairs()
        assert len(pairs) == 4
        assert pairs[0] == ds.bottom + ds.right

    def test_unknown_side_raises(self):
        ds = directional_strings(L_RECTS, WINDOW)
        with pytest.raises(TopologyError):
            ds.side("diagonal")


class TestTheorem1Matching:
    def test_contains_subsequence(self):
        assert contains_subsequence((1, 2, 3, 4), (2, 3))
        assert not contains_subsequence((1, 2, 3, 4), (3, 2))
        assert contains_subsequence((1,), ())

    def test_composites_are_doubled_circles(self):
        ds = directional_strings(L_RECTS, WINDOW)
        assert len(composite_ccw(ds)) == 2 * len(ds.circular())
        assert composite_cw(ds) == tuple(reversed(ds.circular())) * 2

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_matches_all_orientations(self, orientation):
        moved = transform_rects_in_window(L_RECTS, WINDOW, orientation)
        assert same_topology(L_RECTS, WINDOW, moved, WINDOW)

    def test_rejects_different_topology(self):
        assert not same_topology(L_RECTS, WINDOW, [Rect(0, 0, 10, 3)], WINDOW)

    def test_rejects_different_window_sizes(self):
        assert not same_topology(
            [Rect(0, 0, 3, 3)], WINDOW, [Rect(0, 0, 3, 3)], Rect(0, 0, 20, 20)
        )

    @given(random_pattern_strategy())
    @settings(max_examples=30, deadline=None)
    def test_every_pattern_matches_its_own_orientations(self, rects):
        for orientation in (Orientation.R90, Orientation.MX, Orientation.MYR90):
            moved = transform_rects_in_window(rects, WINDOW, orientation)
            assert same_topology(rects, WINDOW, moved, WINDOW)


class TestCanonicalKey:
    def test_orbit_size(self):
        ds = directional_strings(L_RECTS, WINDOW)
        assert len(key_orbit(ds)) == 8

    @given(random_pattern_strategy())
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_d8(self, rects):
        key = canonical_string_key(rects, WINDOW)
        for orientation in Orientation:
            moved = transform_rects_in_window(rects, WINDOW, orientation)
            assert canonical_string_key(moved, WINDOW) == key

    def test_distinct_topologies_distinct_keys(self):
        a = canonical_string_key([Rect(0, 0, 10, 3)], WINDOW)
        b = canonical_string_key([Rect(0, 3, 10, 7)], WINDOW)
        assert a != b


class TestDensityDistance:
    def test_zero_for_identical(self):
        grid = np.random.default_rng(0).random((6, 6))
        assert density_distance(grid, grid) == 0.0

    def test_zero_for_rotated_copy(self):
        grid = np.random.default_rng(0).random((6, 6))
        assert density_distance(grid, np.rot90(grid)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((6, 6)), rng.random((6, 6))
        assert density_distance(a, b) == pytest.approx(density_distance(b, a))

    def test_fixed_is_upper_bound(self):
        rng = np.random.default_rng(2)
        a, b = rng.random((6, 6)), rng.random((6, 6))
        assert density_distance(a, b) <= density_distance_fixed(a, b) + 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(TopologyError):
            density_distance(np.zeros((4, 4)), np.zeros((6, 6)))

    def test_non_square_raises(self):
        with pytest.raises(TopologyError):
            density_distance(np.zeros((4, 6)), np.zeros((4, 6)))

    def test_best_alignment_finds_rotation(self):
        rng = np.random.default_rng(3)
        a = rng.random((6, 6))
        name, aligned = best_alignment(a, np.rot90(a, 1))
        assert np.allclose(aligned, a)

    def test_cluster_radius_eq2(self):
        grids = [np.zeros((4, 4)), np.ones((4, 4))]
        # max distance = 16, K = 4 -> 4.0; R0 = 1 -> max(1, 4) = 4
        assert cluster_radius(grids, 1.0, 4) == pytest.approx(4.0)
        # R0 dominates when bigger
        assert cluster_radius(grids, 10.0, 4) == pytest.approx(10.0)

    def test_cluster_radius_bad_k(self):
        with pytest.raises(TopologyError):
            cluster_radius([np.zeros((2, 2))], 0.0, 0)

    def test_pairwise_max_sampling(self):
        grids = [np.full((2, 2), float(i)) for i in range(10)]
        full = pairwise_max_distance(grids, sample_limit=256)
        assert full == pytest.approx(36.0)  # |0-9| * 4 cells


def make_clip(rects, spec=None, origin=(0, 0)):
    spec = spec or ClipSpec(core_side=12, clip_side=36)
    window = spec.clip_at(*origin)
    core = spec.core_of(window)
    placed = [r.translated(core.x0, core.y0) for r in rects]
    return Clip.build(window, spec, placed, ClipLabel.HOTSPOT)


class TestTopologicalClassifier:
    def test_same_topology_clusters_together(self):
        clip_a = make_clip([Rect(0, 0, 3, 12), Rect(3, 5, 10, 7)])
        clip_b = make_clip([Rect(0, 0, 3, 12), Rect(3, 4, 10, 6)])  # same structure
        classifier = TopologicalClassifier(
            ClassifierConfig(grid_resolution=6, radius_threshold=10.0)
        )
        clusters = classifier.classify([clip_a, clip_b])
        assert len(clusters) == 1
        assert sorted(clusters[0].members) == [0, 1]

    def test_different_topology_splits(self):
        clip_a = make_clip([Rect(0, 0, 3, 12)])
        clip_b = make_clip([Rect(0, 0, 12, 3), Rect(0, 6, 12, 9)])
        classifier = TopologicalClassifier(ClassifierConfig(grid_resolution=6))
        clusters = classifier.classify([clip_a, clip_b])
        assert len(clusters) == 2

    def test_density_split_within_string_group(self):
        # same topology (floating block) but very different densities
        clip_a = make_clip([Rect(4, 4, 6, 6)])
        clip_b = make_clip([Rect(1, 1, 11, 11)])
        classifier = TopologicalClassifier(
            ClassifierConfig(grid_resolution=6, radius_threshold=0.5, expected_cluster_count=100)
        )
        clusters = classifier.classify([clip_a, clip_b])
        assert len(clusters) == 2

    def test_centroid_member(self):
        clips = [
            make_clip([Rect(4, 4, 6, 6)]),
            make_clip([Rect(4, 4, 6, 7)]),
            make_clip([Rect(4, 4, 6, 8)]),
        ]
        classifier = TopologicalClassifier(
            ClassifierConfig(grid_resolution=6, radius_threshold=50.0)
        )
        clusters = classifier.classify(clips)
        assert len(clusters) == 1
        assert clusters[0].centroid_member() in (0, 1, 2)

    def test_assign_routes_to_matching_key(self):
        clip_a = make_clip([Rect(0, 0, 3, 12)])
        clip_b = make_clip([Rect(0, 0, 12, 3), Rect(0, 6, 12, 9)])
        classifier = TopologicalClassifier(ClassifierConfig(grid_resolution=6))
        clusters = classifier.classify([clip_a, clip_b])
        probe = make_clip([Rect(0, 0, 4, 12)])  # bar: same topology as clip_a
        index = classifier.assign(probe, clusters)
        assert index is not None
        assert 0 in clusters[index].members

    def test_assign_unknown_returns_none(self):
        clip_a = make_clip([Rect(0, 0, 3, 12)])
        classifier = TopologicalClassifier(ClassifierConfig(grid_resolution=6))
        clusters = classifier.classify([clip_a])
        probe = make_clip([Rect(0, 0, 12, 3), Rect(0, 5, 12, 8), Rect(0, 10, 5, 12)])
        assert classifier.assign(probe, clusters) is None

    def test_empty_cluster_centroid_raises(self):
        with pytest.raises(TopologyError):
            Cluster(string_key=("x",)).centroid_member()

    def test_config_validation(self):
        with pytest.raises(TopologyError):
            ClassifierConfig(grid_resolution=0)
        with pytest.raises(TopologyError):
            ClassifierConfig(expected_cluster_count=0)
        with pytest.raises(TopologyError):
            ClassifierConfig(radius_threshold=-1.0)
