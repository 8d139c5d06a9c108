"""Indexed redundant-clip removal against its all-pairs reference.

``repro.core.removal`` finds neighbouring cores through
``RectIndex.query_ids``; ``tests/removal_oracles.py`` keeps the code that
compared every pair.  The inputs are planted clusters of overlapping
cores, built like the cluster strategies of the giotto-learn mapper
tests: each cluster sits near a bucket corner of the index (negative
coordinates included), its members are offset from the cluster seed by
up to one core side, so that some cores overlap, some touch only along
an edge and many straddle bucket edges, and some cores are repeated as
equal-valued but distinct clips.
"""

from hypothesis import given, settings
from hypothesis.strategies import (
    builds,
    composite,
    integers,
    lists,
    one_of,
    permutations,
    sampled_from,
)

from repro.core.config import RemovalConfig
from repro.core.removal import (
    discard_redundant,
    merge_into_regions,
    remove_redundant_clips,
)
from repro.geometry.rect import Rect
from repro.layout.clip import Clip, ClipSpec
from repro.layout.spatial import RectIndex
from tests import removal_oracles as oracle

SPEC = ClipSpec(core_side=1200, clip_side=4800)
SIDE = SPEC.core_side
#: RectIndex's default bucket side, the one removal indexes cores with.
BUCKET = 2400


@composite
def rects(draw, lo=-60, hi=60, max_side=40):
    x0 = draw(integers(lo, hi))
    y0 = draw(integers(lo, hi))
    return Rect(
        x0, y0, x0 + draw(integers(1, max_side)), y0 + draw(integers(1, max_side))
    )


#: A cluster seed's place: on, just off or a core side off a bucket edge.
SEEDS = builds(
    lambda bucket, shift: bucket * BUCKET + shift,
    integers(-4, 4),
    sampled_from([-SIDE, -1, 0, 1, SIDE // 2]),
)
#: A member's offset from its cluster seed, exact edge contacts included.
OFFSETS = one_of(integers(-SIDE, SIDE), sampled_from([-SIDE, 0, SIDE]))


@composite
def clusters(draw, max_clusters=4, max_members=5):
    """(cores, polygons) of planted overlapping-core clusters."""
    cores: list[Rect] = []
    polygons: list[Rect] = []
    for _ in range(draw(integers(1, max_clusters))):
        seed_x, seed_y = draw(SEEDS), draw(SEEDS)
        for _ in range(draw(integers(1, max_members))):
            x, y = seed_x + draw(OFFSETS), seed_y + draw(OFFSETS)
            cores.append(Rect(x, y, x + SIDE, y + SIDE))
        for _ in range(draw(integers(0, 3))):
            x = seed_x + draw(integers(-SIDE, 2 * SIDE))
            y = seed_y + draw(integers(-SIDE, 2 * SIDE))
            polygons.append(
                Rect(x, y, x + draw(integers(40, 400)), y + draw(integers(40, 400)))
            )
    # Equal-valued duplicates, as two reports shifted onto one core are.
    for _ in range(draw(integers(0, 3))):
        cores.append(draw(sampled_from(cores)))
    order = draw(permutations(range(len(cores))))
    return [cores[i] for i in order], polygons


def build_reports(cores, polygons) -> list[Clip]:
    """One distinct clip object per core, equal cores included."""
    return [Clip.build(SPEC.clip_for_core(core), SPEC, polygons) for core in cores]


MIN_OVERLAPS = sampled_from([0.05, 0.2, 0.5, 1.0])
REMOVAL_CONFIGS = builds(
    RemovalConfig,
    min_merge_overlap=MIN_OVERLAPS,
    reframe_threshold=integers(1, 8),
    max_boundary_distance=sampled_from([0, 500, 1440, 5000]),
)


class TestQueryIds:
    @given(
        lists(rects(), max_size=30),
        lists(rects(max_side=80), min_size=1, max_size=5),
        sampled_from([1, 7, 16, 50, 2400]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_brute_force_filter(self, indexed, windows, bucket_size):
        index = RectIndex(indexed, bucket_size)
        for window in windows:
            assert index.query_ids(window) == [
                i for i, rect in enumerate(indexed) if rect.overlaps(window)
            ]

    def test_edge_contact_is_not_overlap(self):
        index = RectIndex([Rect(0, 0, 10, 10), Rect(10, 0, 20, 10)], bucket_size=10)
        assert index.query_ids(Rect(0, 0, 10, 10)) == [0]
        assert index.query_ids(Rect(5, -5, 15, 5)) == [0, 1]


class TestRemovalOracle:
    @given(clusters(), MIN_OVERLAPS)
    @settings(max_examples=300, deadline=None)
    def test_merge_matches_all_pairs(self, planted, min_overlap):
        reports = build_reports(*planted)
        assert merge_into_regions(reports, min_overlap) == oracle.merge_into_regions(
            reports, min_overlap
        )

    @given(clusters())
    @settings(max_examples=300, deadline=None)
    def test_discard_matches_all_pairs(self, planted):
        reports = build_reports(*planted)
        kept = discard_redundant(reports)
        expected = oracle.discard_redundant(reports)
        assert [id(clip) for clip in kept] == [id(clip) for clip in expected]

    @given(clusters(), REMOVAL_CONFIGS)
    @settings(max_examples=200, deadline=None)
    def test_pipeline_matches_all_pairs(self, planted, config):
        cores, polygons = planted
        reports = build_reports(cores, polygons)

        def factory(core):
            return Clip.build(SPEC.clip_for_core(core), SPEC, polygons)

        assert remove_redundant_clips(
            reports, SPEC, config, factory
        ) == oracle.remove_redundant_clips(reports, SPEC, config, factory)

    def test_earlier_of_two_equal_clips_is_dropped(self):
        shared = [Rect(500, 500, 700, 700)]
        first = Clip.build(SPEC.clip_for_core(Rect(0, 0, SIDE, SIDE)), SPEC, shared)
        apart = Clip.build(
            SPEC.clip_for_core(Rect(9000, 9000, 9000 + SIDE, 9000 + SIDE)), SPEC, shared
        )
        second = Clip.build(SPEC.clip_for_core(Rect(0, 0, SIDE, SIDE)), SPEC, shared)
        assert first == second and first is not second
        reports = [first, apart, second]
        kept = discard_redundant(reports)
        assert [id(clip) for clip in kept] == [id(apart), id(second)]
        assert [id(clip) for clip in oracle.discard_redundant(reports)] == [
            id(apart),
            id(second),
        ]
