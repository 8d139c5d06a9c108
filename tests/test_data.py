"""Tests for the synthetic benchmark data substrate."""

from hashlib import sha256

import numpy as np
import pytest

from repro.data.benchmarks import (
    BENCHMARKS,
    ICCAD_SPEC,
    benchmark_config,
    generate_benchmark,
    generate_testing_layout,
    generate_training_set,
)
from repro.data.patterns import (
    AMBIT_MOTIF,
    GAP_REGIMES,
    MOTIFS,
    generate_ambit_motif,
    generate_motif,
    motif_by_name,
)
from repro.data.synth import (
    FABRIC_SPACING,
    anchor_of,
    build_fabric_clip,
    build_testing_layout,
    build_training_clip,
    fabric_rects,
)
from repro.errors import DataError
from repro.geometry.rect import Rect
from repro.layout.clip import ClipLabel, ClipSpec
from repro.topology.strings import canonical_string_key

CORE = Rect(0, 0, 1200, 1200)


def min_facing_gap(rects):
    """Smallest positive gap between two rects whose projections overlap
    on exactly one axis (diagonal neighbours do not face), or ``None``."""
    best = None
    for i, first in enumerate(rects):
        for second in rects[i + 1 :]:
            x_overlap = min(first.x1, second.x1) > max(first.x0, second.x0)
            y_overlap = min(first.y1, second.y1) > max(first.y0, second.y0)
            if y_overlap and not x_overlap:
                gap = first.gap_x(second)
            elif x_overlap and not y_overlap:
                gap = first.gap_y(second)
            else:
                continue
            if gap > 0 and (best is None or gap < best):
                best = gap
    return best


class TestMotifs:
    def test_zoo_names(self):
        names = {m.name for m in MOTIFS}
        assert {"tip2tip", "pinch", "bridge", "comb", "ushape"} <= names

    def test_unknown_motif_raises(self):
        with pytest.raises(DataError):
            motif_by_name("nope")

    @pytest.mark.parametrize("motif", [m.name for m in MOTIFS])
    def test_generates_in_window(self, motif):
        rng = np.random.default_rng(0)
        for hotspot in (True, False):
            rects = generate_motif(motif, rng, hotspot, CORE)
            assert rects
            for rect in rects:
                assert CORE.contains_rect(rect)

    @pytest.mark.parametrize("motif", [m.name for m in MOTIFS])
    def test_geometry_disjoint(self, motif):
        rng = np.random.default_rng(1)
        rects = generate_motif(motif, rng, True, CORE)
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert not a.overlaps(b)

    def test_gap_regimes_separated(self):
        hs_low, hs_high = GAP_REGIMES["hotspot"]
        safe_low, safe_high = GAP_REGIMES["safe"]
        assert hs_high < safe_low  # the dead zone keeps labels consistent

    def test_borderline_within_safe(self):
        b_low, b_high = GAP_REGIMES["borderline"]
        safe_low, safe_high = GAP_REGIMES["safe"]
        assert safe_low <= b_low and b_high <= safe_high

    @pytest.mark.parametrize(
        "motif", ["tip2tip", "tip2side", "pinch", "bridge", "corner", "ushape", "jog"]
    )
    def test_family_topology_stable(self, motif):
        """The structural-stability invariant: one string key per family.

        Instances are compared inside their anchored core window, which is
        how the detection pipeline sees them.
        """
        rng = np.random.default_rng(42)
        keys = set()
        for _ in range(8):
            for hotspot in (True, False):
                rects = generate_motif(motif, rng, hotspot, CORE)
                ax, ay = anchor_of(rects, 1200)
                window = Rect(ax, ay, ax + 1200, ay + 1200)
                clipped = [r for r in (x.intersection(window) for x in rects) if r]
                keys.add(canonical_string_key(clipped, window))
        assert len(keys) <= 2, f"{motif} produced {len(keys)} distinct topologies"

    def test_ambit_motif_core_identical_distribution(self):
        rng = np.random.default_rng(7)
        hs_core, hs_ambit = generate_ambit_motif(rng, True, CORE)
        safe_core, safe_ambit = generate_ambit_motif(rng, False, CORE)
        assert len(hs_core) == len(safe_core) == 2
        assert hs_ambit and not safe_ambit


class TestFabric:
    def test_fabric_fills_window(self):
        rng = np.random.default_rng(0)
        window = Rect(0, 0, 20000, 20000)
        rects = fabric_rects(rng, window)
        assert len(rects) > 50
        covered = sum(r.area for r in rects) / window.area
        assert 0.05 < covered < 0.6

    def test_fabric_respects_keep_out(self):
        rng = np.random.default_rng(0)
        window = Rect(0, 0, 20000, 20000)
        hole = Rect(8000, 8000, 12000, 12000)
        rects = fabric_rects(rng, window, keep_out=[hole])
        assert all(not r.overlaps(hole) for r in rects)

    def test_fabric_disjoint(self):
        rng = np.random.default_rng(0)
        rects = fabric_rects(rng, Rect(0, 0, 12000, 12000))
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert not a.overlaps(b), (a, b)

    def test_fabric_spacing_safe(self):
        """Fabric must contain no hotspot-regime gaps (< 76 nm)."""
        rng = np.random.default_rng(3)
        rects = fabric_rects(rng, Rect(0, 0, 16000, 16000))
        spacing = min_facing_gap(rects)
        assert spacing is None or spacing > GAP_REGIMES["hotspot"][1]


class TestClips:
    def test_training_clip_label(self):
        rng = np.random.default_rng(0)
        clip = build_training_clip(rng, ICCAD_SPEC, "tip2tip", hotspot=True)
        assert clip.label is ClipLabel.HOTSPOT
        assert len(clip.core_rects()) >= 2

    def test_training_clip_core_is_motif_only(self):
        """The anchored core must hold the motif with no fabric mixed in."""
        rng = np.random.default_rng(1)
        clip = build_training_clip(rng, ICCAD_SPEC, "pinch", hotspot=False)
        # pinch has exactly 3 rectangles; the core may clip them but never
        # adds fabric pieces
        assert len(clip.core_rects()) <= 3

    def test_fabric_clip(self):
        rng = np.random.default_rng(2)
        clip = build_fabric_clip(rng, ICCAD_SPEC)
        assert clip.label is ClipLabel.NON_HOTSPOT
        assert clip.core_rects()

    def test_anchor_of_lexicographic(self):
        rects = [Rect(10, 50, 20, 60), Rect(5, 80, 8, 90), Rect(5, 20, 9, 30)]
        assert anchor_of(rects, 1200) == (5, 20)


class TestBenchmarks:
    def test_six_benchmarks(self):
        assert len(BENCHMARKS) == 6
        names = [cfg.name for cfg in BENCHMARKS]
        assert "benchmark1" in names and "blind" in names

    def test_unknown_benchmark(self):
        with pytest.raises(DataError):
            benchmark_config("benchmark9")

    def test_invalid_scale(self):
        with pytest.raises(DataError):
            generate_benchmark("benchmark1", scale=0)

    def test_population_imbalance(self):
        """Table I shape: nonhotspots greatly outnumber hotspots."""
        for cfg in BENCHMARKS:
            assert cfg.train_nonhotspots > cfg.train_hotspots

    def test_generation_deterministic(self):
        a = generate_benchmark("benchmark5", scale=0.4)
        b = generate_benchmark("benchmark5", scale=0.4)
        assert [c.rects for c in a.training] == [c.rects for c in b.training]
        assert a.testing.hotspot_cores() == b.testing.hotspot_cores()

    def test_stats_row(self):
        bench = generate_benchmark("benchmark5", scale=0.4)
        stats = bench.stats()
        assert stats["train_hs"] >= 2
        assert stats["train_nhs"] > stats["train_hs"]
        assert stats["test_hs"] >= 2
        assert stats["area_um2"] > 0

    def test_truth_cores_disjoint(self):
        bench = generate_benchmark("benchmark1", scale=0.4)
        cores = bench.testing.hotspot_cores()
        for i, a in enumerate(cores):
            for b in cores[i + 1 :]:
                # companion cores may overlap their primary, but never
                # coincide
                assert a != b

    def test_training_set_mixes_fabric_clips(self):
        config = benchmark_config("benchmark2")
        clips = generate_training_set(config, scale=0.2)
        assert len(clips.non_hotspots()) > len(clips.hotspots())

    def test_site_windows_inside_layout(self):
        bench = generate_benchmark("benchmark5", scale=0.4)
        for site in bench.testing.sites:
            assert bench.testing.window.contains_rect(site.core)


class TestMultilayerData:
    def test_multilayer_set_deterministic(self):
        from repro.data.multilayer import generate_multilayer_set

        a = generate_multilayer_set(4, 4, seed=77)
        b = generate_multilayer_set(4, 4, seed=77)
        assert [c.layer_rects for c in a] == [c.layer_rects for c in b]

    def test_multilayer_labels(self):
        from repro.data.multilayer import generate_multilayer_set

        clips = generate_multilayer_set(3, 5, seed=1)
        assert sum(c.label is ClipLabel.HOTSPOT for c in clips) == 3
        assert sum(c.label is ClipLabel.NON_HOTSPOT for c in clips) == 5

    def test_dpt_hotspot_has_decomposition_conflicts(self):
        from repro.data.multilayer import build_dpt_clip
        from repro.multilayer.dpt import decompose

        rng = np.random.default_rng(5)
        hot = build_dpt_clip(rng, ICCAD_SPEC, hotspot=True)
        safe = build_dpt_clip(rng, ICCAD_SPEC, hotspot=False)
        hot_conflicts = len(decompose(list(hot.rects), 100).conflicts)
        safe_conflicts = len(decompose(list(safe.rects), 100).conflicts)
        assert hot_conflicts > safe_conflicts

    def test_multilayer_metal2_crossing_is_the_label(self):
        from repro.data.multilayer import METAL1, METAL2, build_multilayer_clip

        rng = np.random.default_rng(9)
        hot = build_multilayer_clip(rng, ICCAD_SPEC, hotspot=True)
        # metal-1 view alone: two wires with a dead-zone gap in both labels
        assert len(hot.layer_clip(METAL1).core_rects()) >= 2
        assert len(hot.rects_on(METAL2)) == 2


# ----------------------------------------------------------------------
# generator digests: every clip, layout rect and planted site, pinned
# ----------------------------------------------------------------------
DIGEST_SCALE = 0.3


def _rects_text(rects) -> str:
    return "".join(f"{r.x0},{r.y0},{r.x1},{r.y1};" for r in rects)


def _window_text(window: Rect) -> str:
    return f"{window.x0},{window.y0},{window.x1},{window.y1}"


def digest_training_set(name: str) -> str:
    """sha256 of one benchmark's training clips: windows, labels, rects."""
    digest = sha256()
    for clip in generate_training_set(benchmark_config(name), DIGEST_SCALE):
        digest.update(
            f"{_window_text(clip.window)}|{clip.label.name}|"
            f"{_rects_text(clip.rects)}\n".encode()
        )
    return digest.hexdigest()


def digest_testing_layout(name: str) -> str:
    """sha256 of one benchmark's testing layout: rects per layer, sites."""
    planted = generate_testing_layout(benchmark_config(name), DIGEST_SCALE)
    digest = sha256()
    digest.update(f"window {_window_text(planted.window)}\n".encode())
    for number in planted.layout.layer_numbers():
        rects = planted.layout.layer(number).rects
        digest.update(f"layer {number}|{_rects_text(rects)}\n".encode())
    for site in planted.sites:
        digest.update(
            f"site {_window_text(site.core)}|{site.motif}|{site.hotspot}|"
            f"{site.anchor[0]},{site.anchor[1]}\n".encode()
        )
    return digest.hexdigest()


def digest_multilayer_set() -> str:
    """sha256 of a two-layer clip population (fabric ambit included)."""
    from repro.data.multilayer import generate_multilayer_set

    digest = sha256()
    for clip in generate_multilayer_set(4, 4, seed=77):
        digest.update(f"{_window_text(clip.window)}|{clip.label.name}".encode())
        for number, rects in clip.layer_rects:
            digest.update(f"|{number}:{_rects_text(rects)}".encode())
        digest.update(b"\n")
    return digest.hexdigest()


#: (training set, testing layout) digests at ``DIGEST_SCALE``.  A change
#: to any generated rect, label, window or planted site moves one of
#: them; a faster generator must leave all of them as they are.
GENERATOR_DIGESTS = {
    "benchmark1": (
        "453f9ce7c50952bdbcfb2760a2118206ee64228e513eba2a5f77f6c9c96e8ff9",
        "25c5d32703f254dd94cf8467f16ea614e1db9a51c3246e374c38920a6d44cb60",
    ),
    "benchmark2": (
        "a4521a216497d627d624c28c0655b28fbc28c602af3c255952c0d519b61a97ca",
        "7690d017e0978ec2a09188a258013260e6e5bf34dcfcc1bd93854220cf0b8192",
    ),
    "benchmark3": (
        "87a52ba426a8692bd8f1ac57a1ca816bb0561631c2d61fc6bd1504a1aadf3db0",
        "f395edd00db261ca31c72eb0d0675d2724571adb81b03907dd0c834bef7f3945",
    ),
    "benchmark4": (
        "7717d4f8f3dfd33f39556923d98ec1980145a0c1f6fc477a471296970a813062",
        "dbba83c8c2d4c3f9a0b51720321337512c2f9f0153f7640047e4cd285b966de4",
    ),
    "benchmark5": (
        "218cb5f713ab0e62cf1cc9c4cd6c3a0dcd805b6f2d3948ade91052de0992c0a2",
        "4d3a8c168d37c10d5fc1127ba2a66f393d09622012cfaf4c1c7d2bd109609d1b",
    ),
    "blind": (
        "cb7747c5eb4ad98708ba06910230530596f21070110d1c1d62f2612ea11da970",
        "c9950edf56cc8b6292635e6b64f7a9d84ce92b7cf2c64cc6200bfa7dee64a177",
    ),
}
MULTILAYER_DIGEST = (
    "698fcbd9dc60b21769a3b50aa92007b55f3fadff168f85998daa943a137aca26"
)


class TestGeneratorDigests:
    def test_digests_cover_every_benchmark(self):
        assert sorted(GENERATOR_DIGESTS) == sorted(cfg.name for cfg in BENCHMARKS)

    @pytest.mark.parametrize("name", [cfg.name for cfg in BENCHMARKS])
    def test_training_set_is_pinned(self, name):
        assert digest_training_set(name) == GENERATOR_DIGESTS[name][0]

    @pytest.mark.parametrize("name", [cfg.name for cfg in BENCHMARKS])
    def test_testing_layout_is_pinned(self, name):
        assert digest_testing_layout(name) == GENERATOR_DIGESTS[name][1]

    def test_multilayer_set_is_pinned(self):
        assert digest_multilayer_set() == MULTILAYER_DIGEST
