"""The block-decided clip funnel against its per-anchor reference.

``repro.core.extraction`` finds anchors on the int64 lattice of the
layer's rect coordinates and decides the Section III-E requirements for
64 anchors at a time; ``tests/funnel_oracles.py`` keeps the code that
cut every rect through ``cut_to_max_size`` and cut and checked every
anchor's clip.  The layouts are planted clusters, built like the
cluster strategies of the giotto-learn mapper tests: rects around seeds
on both sides of the origin, some longer than the core side (several
anchors each, and pieces crossing core and window edges), a fabric of
long wires for shards of more than one block, overlapping and exactly
repeated rects (GDSII union geometry), and anchors far from any rect.
Each candidate's content key, hashed by the funnel from its integer
rows (``CandidateClips.content_keys``), must equal ``clip_content_key``
of the oracle's cut clip.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import (
    booleans,
    composite,
    integers,
    lists,
    one_of,
    permutations,
    sampled_from,
    tuples,
)

from repro.cache import HotspotCache
from repro.cache.keys import clip_content_key
from repro.core import extraction
from repro.core.config import DetectorConfig, ExtractionConfig
from repro.core.detector import HotspotDetector
from repro.core.extraction import (
    BLOCK,
    CandidateClips,
    candidate_anchors,
    extract_from_anchors,
)
from repro.core.training import GATED_OUT
from repro.geometry.dissect import any_overlap
from repro.geometry.rect import Rect
from repro.layout.clip import ClipSpec
from repro.layout.layout import Layout
from repro.resilience import QuarantineReport, faults
from tests import funnel_oracles as oracle

SPEC = ClipSpec(core_side=1200, clip_side=4800)
SIDE = SPEC.core_side

#: A cluster seed: on, just off or partway into a core-side lattice cell.
SEEDS = tuples(integers(-8, 8), sampled_from([-1, 0, 1, 350])).map(
    lambda cell: cell[0] * SIDE + cell[1]
)
#: Short pieces, and rects longer than the core side or the clip side.
EXTENTS = one_of(integers(20, 600), integers(SIDE - 1, 4 * SIDE))


@composite
def planted(draw):
    """(layout, anchors): clustered layer-1 rects and the anchors to decide."""
    rects: list[Rect] = []
    for _ in range(draw(integers(1, 4))):
        seed_x, seed_y = draw(SEEDS), draw(SEEDS)
        for _ in range(draw(integers(1, 8))):
            x = seed_x + draw(integers(-2 * SIDE, 2 * SIDE))
            y = seed_y + draw(integers(-2 * SIDE, 2 * SIDE))
            rects.append(Rect(x, y, x + draw(EXTENTS), y + draw(EXTENTS)))
    # A fabric of long parallel wires: 20 anchors per wire.
    fabric_x, fabric_y = draw(SEEDS), draw(SEEDS)
    for row in range(draw(integers(0, 5))):
        y = fabric_y + row * draw(sampled_from([300, 700]))
        rects.append(Rect(fabric_x, y, fabric_x + 20 * SIDE, y + 200))
    if draw(booleans()):
        # A disjoint layer, like benchmark1's, before any union geometry.
        disjoint: list[Rect] = []
        for rect in rects:
            if not any(rect.overlaps(kept) for kept in disjoint):
                disjoint.append(rect)
        rects = disjoint
    # Union geometry: shifted copies that overlap, and exact repeats.
    for _ in range(draw(integers(0, 3))):
        shift = draw(sampled_from([(0, 0), (37, 0), (-200, 150), (0, SIDE // 2)]))
        rects.append(draw(sampled_from(rects)).translated(*shift))
    layout = Layout()
    for rect in rects:
        layout.add_rect(1, rect)
    anchors = oracle.candidate_anchors(layout, SPEC, 1)
    # Anchors anywhere, most of them with nothing under their windows.
    anchors += draw(
        lists(tuples(integers(-40_000, 40_000), integers(-40_000, 40_000)), max_size=4)
    )
    if draw(booleans()):
        anchors = draw(permutations(anchors))
    return layout, anchors


@composite
def configs(draw):
    """Requirements loose and tight enough to hit every rejection reason."""
    low = draw(sampled_from([0.0, 0.02, 0.1, 0.3]))
    high = draw(sampled_from([h for h in (0.3, 0.6, 0.95, 1.0) if h >= low]))
    return ExtractionConfig(
        min_core_density=low,
        max_core_density=high,
        min_polygon_count=draw(integers(0, 4)),
        max_boundary_distance=draw(sampled_from([0, 300, 1440, 2400, 5000])),
    )


def content_keys(clips) -> list[str]:
    """The funnel's keys, hashed from its rows while its clips are
    unbuilt, or ``clip_content_key`` of the oracle's clips."""
    if isinstance(clips, CandidateClips):
        return clips.content_keys()
    return [clip_content_key(clip) for clip in clips]


def outcome(extract, layout, anchors, config):
    """Everything a run of ``extract`` hands back, layer-rect identity included."""
    quarantine = QuarantineReport()
    report = extract(layout, SPEC, config, 1, anchors, quarantine)
    keys = content_keys(report.clips)  # before reading any clip builds it
    own = {
        id(rect) for number in layout.layer_numbers() for rect in layout.layer(number).rects
    }
    clips = [
        (
            clip.window,
            clip.rects,
            clip.label,
            clip.layer,
            [id(rect) if id(rect) in own else None for rect in clip.rects],
        )
        for clip in report.clips
    ]
    for clip in report.clips:
        for rect in (clip.window, *clip.rects):
            assert all(type(v) is int for v in (rect.x0, rect.y0, rect.x1, rect.y1))
    counts = (
        report.anchor_count,
        report.rejected_density,
        report.rejected_count,
        report.rejected_boundary,
        report.quarantined,
    )
    assert len(report.anchors) == len(keys) == len(report.clips)
    candidates = list(zip(report.anchors, keys))
    return clips, candidates, counts, quarantine.to_dict()


def fabric(rows: int) -> Layout:
    layout = Layout()
    for row in range(rows):
        layout.add_rect(1, Rect(0, row * 700, 20 * SIDE, row * 700 + 200))
    return layout


FABRIC = fabric(5)


class TestFunnelOracle:
    @given(planted(), configs())
    @example((FABRIC, oracle.candidate_anchors(FABRIC, SPEC, 1)), ExtractionConfig())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_anchor_cut_and_check(self, planted, config):
        layout, anchors = planted
        assert outcome(extract_from_anchors, layout, anchors, config) == outcome(
            oracle.extract_from_anchors, layout, anchors, config
        )

    @given(planted(), configs())
    @settings(max_examples=60, deadline=None)
    def test_matches_under_injected_faults(self, planted, config):
        layout, anchors = planted
        with faults.active("seed=7;extract.clip=corrupt:0.3"):
            got = outcome(extract_from_anchors, layout, anchors, config)
        with faults.active("seed=7;extract.clip=corrupt:0.3"):
            expected = outcome(oracle.extract_from_anchors, layout, anchors, config)
        assert got == expected

    @pytest.mark.parametrize(
        "config, reason",
        [
            (ExtractionConfig(min_polygon_count=3), "count"),
            (ExtractionConfig(min_core_density=0.5, max_core_density=1.0), "density"),
            (ExtractionConfig(min_core_density=0.0, max_core_density=0.01), "density"),
            (ExtractionConfig(max_boundary_distance=0), "boundary"),
            (ExtractionConfig(min_core_density=0.0, min_polygon_count=0), "count"),
        ],
    )
    def test_each_rejection_reason(self, config, reason):
        """Every reason fires on a fabric, an empty window's "count" too."""
        anchors = oracle.candidate_anchors(FABRIC, SPEC, 1) + [(90_000, 90_000)]
        assert len(anchors) > BLOCK
        got = outcome(extract_from_anchors, FABRIC, anchors, config)
        assert got == outcome(oracle.extract_from_anchors, FABRIC, anchors, config)
        _, density, count, boundary, _ = got[2]
        assert {"density": density, "count": count, "boundary": boundary}[reason] > 0

    def test_missing_layer_quarantines_every_anchor(self):
        layout = Layout()
        layout.add_rect(2, Rect(0, 0, 500, 500))
        anchors = [(0, 0), (5000, 0)]
        got = outcome(extract_from_anchors, layout, anchors, ExtractionConfig())
        assert got == outcome(
            oracle.extract_from_anchors, layout, anchors, ExtractionConfig()
        )
        assert got[3]["by_kind"] == {"LayoutError": 2}


@composite
def small_layouts(draw):
    """Up to a dozen rects of at most 40 DBU a side around the origin."""
    layout = Layout()
    for _ in range(draw(integers(0, 12))):
        x, y = draw(integers(-60, 60)), draw(integers(-60, 60))
        layout.add_rect(1, Rect(x, y, x + draw(integers(1, 40)), y + draw(integers(1, 40))))
    return layout


class TestCandidateAnchors:
    @given(planted(), sampled_from([300, 1000, SIDE, 5000]))
    @settings(max_examples=150, deadline=None)
    def test_matches_cut_to_max_size(self, planted, side):
        layout, _ = planted
        spec = ClipSpec(core_side=side, clip_side=side + 2 * 1800)
        anchors = candidate_anchors(layout, spec, 1)
        assert anchors == oracle.candidate_anchors(layout, spec, 1)
        assert all(type(x) is int and type(y) is int for x, y in anchors)

    @given(small_layouts(), integers(1, 45))
    @settings(max_examples=150, deadline=None)
    def test_matches_cut_to_max_size_on_small_steps(self, layout, side):
        spec = ClipSpec(core_side=side, clip_side=side + 2)
        assert candidate_anchors(layout, spec, 1) == oracle.candidate_anchors(
            layout, spec, 1
        )

    def test_empty_or_absent_layer_has_no_anchors(self):
        layout = Layout()
        assert candidate_anchors(layout, SPEC, 1) == []
        assert candidate_anchors(layout, SPEC, 3) == []


class TestBenchmarkFunnel:
    def test_benchmark1_funnel_cuts_no_clip(self, small_benchmark, monkeypatch):
        """benchmark1 has no overlapping rects, so the funnel cuts nothing
        (the per-anchor funnel cut every anchor's clip)."""
        layout = small_benchmark.testing.layout
        config = DetectorConfig.ours()
        anchors = candidate_anchors(layout, config.spec, 1)
        cuts = []
        cut = layout.cut_clip_at_core
        monkeypatch.setattr(
            layout, "cut_clip_at_core", lambda *a, **k: cuts.append(a) or cut(*a, **k)
        )
        report = extract_from_anchors(layout, config.spec, config.extraction, 1, anchors)
        keys = content_keys(report.clips)
        assert cuts == []
        expected = oracle.extract_from_anchors(
            layout, config.spec, config.extraction, 1, anchors
        )
        assert len(cuts) == len(anchors) > BLOCK
        assert [(c.window, c.rects) for c in report.clips] == [
            (c.window, c.rects) for c in expected.clips
        ]
        assert keys == content_keys(expected.clips)

    def test_benchmark4_cuts_only_union_windows(self, ambit_benchmark, monkeypatch):
        """benchmark4's overlapping rects send their windows, and only
        those, through the cut."""
        layout = ambit_benchmark.testing.layout
        config = DetectorConfig.ours()
        spec, side = config.spec, config.spec.core_side
        anchors = candidate_anchors(layout, spec, 1)
        union = []
        for x, y in anchors:
            window = spec.clip_for_core(Rect(x, y, x + side, y + side))
            pieces = [r.intersection(window) for r in layout.rects_in_window(1, window)]
            if any_overlap(sorted(pieces, key=lambda r: r.x0)):
                union.append((x, y))
        cuts = []
        cut = layout.cut_clip_at_core
        monkeypatch.setattr(
            layout,
            "cut_clip_at_core",
            lambda spec, core, *a: cuts.append((core.x0, core.y0)) or cut(spec, core, *a),
        )
        report = extract_from_anchors(layout, spec, config.extraction, 1, anchors)
        keys = content_keys(report.clips)
        assert cuts == union != []
        monkeypatch.undo()
        expected = oracle.extract_from_anchors(layout, spec, config.extraction, 1, anchors)
        assert [(c.window, c.rects) for c in report.clips] == [
            (c.window, c.rects) for c in expected.clips
        ]
        assert keys == content_keys(expected.clips)


def count_builds(monkeypatch) -> list:
    """The windows of the clips the funnel builds from here on."""
    built = []
    clip = extraction.Clip

    def counting(window, *rest):
        built.append(window)
        return clip(window, *rest)

    monkeypatch.setattr(extraction, "Clip", counting)
    return built


class TestLazyCandidates:
    def test_len_builds_no_clip(self, monkeypatch):
        anchors = oracle.candidate_anchors(FABRIC, SPEC, 1)
        built = count_builds(monkeypatch)
        loose = ExtractionConfig(
            min_core_density=0.0, min_polygon_count=0, max_boundary_distance=SPEC.clip_side
        )
        report = extract_from_anchors(FABRIC, SPEC, loose, 1, anchors)
        keys = report.clips.content_keys()
        assert len(report.clips) == report.candidate_count == len(keys) > BLOCK
        assert built == []
        last = report.clips[-1]
        assert built == [last.window] and report.clips[-1] is last
        assert list(report.clips)[-1] is last and len(built) == len(report.clips)
        # Built clips hash through clip_content_key, to the same keys.
        assert report.clips.content_keys() == keys
        # The Sequence mixins work on the lazy clips.
        assert report.clips.index(report.clips[BLOCK]) == BLOCK
        assert last in report.clips and report.clips.count(last) == 1

    def test_warm_rescan_builds_only_gated_clips(self, small_benchmark, monkeypatch):
        """A warm rescan looks every margin up by the funnel's keys, so it
        builds only the clips of the candidates the feedback kernel judges
        (every margin above ``GATED_OUT``)."""
        detector = HotspotDetector(DetectorConfig.ours())
        detector.fit(small_benchmark.training)
        detector.attach_cache(HotspotCache())
        layout, spec = small_benchmark.testing.layout, detector.config.spec
        built = count_builds(monkeypatch)
        cold = detector.detect(layout)
        assert len(set(built)) == len(built) <= cold.extraction.candidate_count
        built.clear()
        warm = detector.detect(layout)
        scan = warm.extraction
        gated = [
            spec.clip_at(x - spec.ambit_margin, y - spec.ambit_margin)
            for (x, y), m in zip(scan.anchors, scan.margins)
            if m > GATED_OUT
        ]
        assert built == gated
        assert 0 < len(gated) < scan.candidate_count
        assert [r.core for r in warm.reports] == [r.core for r in cold.reports]
        assert np.array_equal(scan.margins, cold.extraction.margins)
