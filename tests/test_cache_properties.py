"""Property tests for the cache: keys, Theorem-1 coupling, integrity.

Three families of invariants:

- **Key algebra** — :func:`clip_content_key` must be invariant under
  translation and must distinguish orientations of asymmetric geometry,
  because the cache serves every configuration.
- **Theorem 1 coupling** — extraction under ``canonical_orientation``
  is orientation-blind, while a density grid sees orientation; raw keys
  are sound for both.
- **Disk integrity** — a corrupted, truncated or forged blob is
  detected, counted, and treated as a miss; it is *never* decoded into
  a served value.  Round-tripped values are bit-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import HotspotCache, clip_content_key
from repro.cache.keys import feature_fingerprint
from repro.features.vector import FeatureConfig, FeatureExtractor
from repro.geometry.rect import Rect
from repro.geometry.transform import ALL_ORIENTATIONS
from repro.layout.clip import Clip, ClipSpec

SPEC = ClipSpec(core_side=400, clip_side=1200)

offsets = st.integers(-500_000, 500_000)


@st.composite
def clips(draw):
    """A clip at a random position with random disjoint-ish geometry."""
    count = draw(st.integers(1, 6))
    rects = []
    for _ in range(count):
        x0 = draw(st.integers(0, SPEC.clip_side - 20))
        y0 = draw(st.integers(0, SPEC.clip_side - 20))
        w = draw(st.integers(10, 400))
        h = draw(st.integers(10, 400))
        rects.append(Rect(x0, y0, min(x0 + w, SPEC.clip_side), min(y0 + h, SPEC.clip_side)))
    ox, oy = draw(offsets), draw(offsets)
    window = Rect(ox, oy, ox + SPEC.clip_side, oy + SPEC.clip_side)
    return Clip.build(window, SPEC, [r.translated(ox, oy) for r in rects])


class TestKeyAlgebra:
    @given(clips(), offsets, offsets)
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, clip, dx, dy):
        moved = Clip.build(
            clip.window.translated(dx, dy),
            clip.spec,
            [r.translated(dx, dy) for r in clip.rects],
        )
        assert clip_content_key(clip) == clip_content_key(moved)

    def test_raw_keys_distinguish_orientations(self):
        # An L-shape: no nontrivial D8 symmetry, so each orientation has
        # its own raw key (a raw-keyed cache must never cross-serve them).
        rects = [Rect(0, 0, 100, 500), Rect(100, 0, 400, 100)]
        window = Rect(0, 0, SPEC.clip_side, SPEC.clip_side)
        clip = Clip.build(window, SPEC, rects)
        keys = {clip_content_key(clip.oriented(o)) for o in ALL_ORIENTATIONS}
        assert len(keys) == 8

    @given(clips())
    @settings(max_examples=40, deadline=None)
    def test_keys_change_when_geometry_changes(self, clip):
        grown = Clip.build(
            clip.window,
            clip.spec,
            list(clip.rects)
            + [Rect(clip.window.x0 + 1, clip.window.y0 + 1, clip.window.x0 + 9, clip.window.y0 + 7)],
        )
        if grown.rects == clip.rects:  # the new rect merged into cover
            return
        assert clip_content_key(clip) != clip_content_key(grown)

    def test_key_depends_on_spec(self):
        # Same geometry under a different core/ambit split must not
        # collide: "core"/"context" extraction reads the spec.
        other_spec = ClipSpec(core_side=600, clip_side=1200)
        window = Rect(0, 0, 1200, 1200)
        rects = [Rect(100, 100, 300, 900)]
        a = Clip.build(window, SPEC, rects)
        b = Clip.build(window, other_spec, rects)
        assert clip_content_key(a) != clip_content_key(b)

    def test_digests_are_pinned(self):
        # Every on-disk cache tier is addressed by these digests: a silent
        # change to the key bytes would turn every warm cache cold.  The
        # clip sits off the origin, has geometry crossing the window edge
        # and two overlapping inputs, so translation, clipping and the
        # disjoint cover all feed the digest.
        window = Rect(-3000, 7000, -1800, 8200)
        rects = [
            Rect(-3100, 7100, -2500, 7300),
            Rect(-2600, 7200, -2400, 7900),
            Rect(-2000, 8000, -1700, 8300),
            Rect(-2900, 7500, -2800, 7600),
        ]
        clip = Clip.build(window, SPEC, rects)
        assert clip_content_key(clip) == (
            "8099c493ce70191770417962fdbdc011663386c17babd61f4787cf4a5f4e3950"
        )


class TestTheoremOneCoupling:
    """Extraction is D8-blind exactly when no density grid is sampled."""

    @given(clips())
    @settings(max_examples=15, deadline=None)
    def test_orientation_blind_extraction_matches_key_sharing(self, clip):
        config = FeatureConfig(region="clip", canonical_orientation=True)
        extractor = FeatureExtractor(config)
        reference = extractor.extract(clip)
        for orientation in ALL_ORIENTATIONS:
            features = extractor.extract(clip.oriented(orientation))
            assert features.rules == reference.rules
            assert features.nontopo == reference.nontopo

    def test_density_grid_sees_orientation(self):
        # The grid genuinely differs between the orientations of one
        # pattern, which is why cache keys never identify orientations.
        config = FeatureConfig(region="clip", include_density_grid=True)
        rects = [Rect(0, 0, 100, 500), Rect(100, 0, 400, 100)]
        window = Rect(0, 0, SPEC.clip_side, SPEC.clip_side)
        clip = Clip.build(window, SPEC, rects)
        extractor = FeatureExtractor(config)
        grids = {
            extractor.extract(clip.oriented(o)).grid.tobytes()
            for o in ALL_ORIENTATIONS
        }
        assert len(grids) > 1

    def test_raw_keys_sound_for_every_config(self):
        # Identical raw geometry extracts identically even with the grid
        # enabled.
        config = FeatureConfig(region="clip", include_density_grid=True)
        extractor = FeatureExtractor(config)
        rects = [Rect(50, 50, 250, 450), Rect(300, 700, 900, 760)]
        window = Rect(0, 0, SPEC.clip_side, SPEC.clip_side)
        a = Clip.build(window, SPEC, rects)
        b = Clip.build(
            window.translated(2400, -1200),
            SPEC,
            [r.translated(2400, -1200) for r in rects],
        )
        assert clip_content_key(a) == clip_content_key(b)
        fa, fb = extractor.extract(a), extractor.extract(b)
        assert fa.rules == fb.rules and fa.nontopo == fb.nontopo
        assert np.array_equal(fa.grid, fb.grid)


# ----------------------------------------------------------------------
# disk blob integrity
# ----------------------------------------------------------------------
def _some_features(grid: bool = False):
    config = FeatureConfig(region="clip", include_density_grid=grid)
    window = Rect(0, 0, SPEC.clip_side, SPEC.clip_side)
    clip = Clip.build(window, SPEC, [Rect(10, 10, 200, 600), Rect(400, 300, 950, 420)])
    return FeatureExtractor(config).extract(clip), feature_fingerprint(config)


class TestDiskIntegrity:
    def _written_blob(self, tmp_path, grid: bool = False):
        cache = HotspotCache(directory=tmp_path)
        features, fingerprint = _some_features(grid)
        cache.put_features(fingerprint, "k" * 64, features)
        blobs = list(tmp_path.rglob("*.blob"))
        assert len(blobs) == 1
        return cache, features, fingerprint, blobs[0]

    def test_roundtrip_is_bit_identical(self, tmp_path):
        cache, features, fingerprint, _ = self._written_blob(tmp_path, grid=True)
        cache.clear_memory()
        loaded = cache.get_features(fingerprint, "k" * 64)
        assert loaded.rules == features.rules
        assert loaded.nontopo == features.nontopo
        assert loaded.grid.tobytes() == features.grid.tobytes()
        assert cache.stats.disk_hits == 1

    @given(offset=st.integers(0, 10_000), flip=st.integers(1, 255))
    @settings(max_examples=40, deadline=None)
    def test_flipped_byte_never_served(self, tmp_path_factory, offset, flip):
        tmp_path = tmp_path_factory.mktemp("flip")
        cache, _, fingerprint, blob = self._written_blob(tmp_path)
        raw = bytearray(blob.read_bytes())
        offset %= len(raw)
        raw[offset] ^= flip
        blob.write_bytes(bytes(raw))
        cache.clear_memory()
        assert cache.get_features(fingerprint, "k" * 64) is None
        assert cache.stats.disk_corrupt == 1
        assert cache.stats.feature_misses == 1

    @given(keep=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_truncated_blob_never_served(self, tmp_path_factory, keep):
        tmp_path = tmp_path_factory.mktemp("trunc")
        cache, _, fingerprint, blob = self._written_blob(tmp_path)
        raw = blob.read_bytes()
        blob.write_bytes(raw[: keep % len(raw)])
        cache.clear_memory()
        assert cache.get_features(fingerprint, "k" * 64) is None
        assert cache.stats.disk_corrupt == 1

    def test_forged_digest_never_served(self, tmp_path):
        # Even a well-formed npz with a matching *wrong-content* digest
        # for the truncated payload must not decode into served data if
        # the payload is not a valid archive.
        cache, _, fingerprint, blob = self._written_blob(tmp_path)
        from hashlib import sha256

        from repro.cache import BLOB_MAGIC

        payload = b"not an npz archive at all"
        digest = sha256(payload).hexdigest().encode("ascii")
        blob.write_bytes(BLOB_MAGIC + digest + b"\n" + payload)
        cache.clear_memory()
        assert cache.get_features(fingerprint, "k" * 64) is None

    def test_corrupt_margin_blob_recovers_by_rewrite(self, tmp_path):
        cache = HotspotCache(directory=tmp_path)
        row = np.array([0.25, -1e9, 3.5], dtype=np.float64)
        cache.put_margins("f" * 64, "a" * 64, row)
        blob = next(tmp_path.rglob("*.blob"))
        blob.write_bytes(b"garbage")
        cache.clear_memory()
        assert cache.get_margins("f" * 64, "a" * 64) is None
        # The caller recomputes and overwrites; the entry is healthy again.
        cache.put_margins("f" * 64, "a" * 64, row)
        cache.clear_memory()
        assert np.array_equal(cache.get_margins("f" * 64, "a" * 64), row)

    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=True, width=64),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_margin_rows_roundtrip_exactly(self, tmp_path_factory, values):
        tmp_path = tmp_path_factory.mktemp("rows")
        cache = HotspotCache(directory=tmp_path)
        row = np.array(values, dtype=np.float64)
        cache.put_margins("f" * 64, "b" * 64, row)
        cache.clear_memory()
        loaded = cache.get_margins("f" * 64, "b" * 64)
        assert loaded.dtype == np.float64
        assert loaded.tobytes() == row.tobytes()


class TestMemoryTier:
    def test_lru_eviction_is_counted_and_bounded(self):
        cache = HotspotCache(max_entries=4)
        for i in range(10):
            cache.put_margins("f" * 64, f"key{i}", np.array([float(i)]))
        assert len(cache) == 4
        assert cache.stats.evictions == 6
        # The newest entries survived, the oldest were evicted.
        assert cache.get_margins("f" * 64, "key9") is not None
        assert cache.get_margins("f" * 64, "key0") is None

    def test_get_returns_a_copy_of_margins(self):
        cache = HotspotCache()
        cache.put_margins("f" * 64, "c" * 64, np.array([1.0, 2.0]))
        first = cache.get_margins("f" * 64, "c" * 64)
        first[0] = 99.0
        again = cache.get_margins("f" * 64, "c" * 64)
        assert again[0] == 1.0

    def test_unwritable_directory_degrades_to_memory(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the cache dir should go")
        cache = HotspotCache(directory=target)
        cache.put_margins("f" * 64, "d" * 64, np.array([4.0]))
        # Write failed silently; memory tier still serves.
        assert not cache._disk_ok
        assert cache.get_margins("f" * 64, "d" * 64) is not None


# ----------------------------------------------------------------------
# replica placement on the hash ring
# ----------------------------------------------------------------------
node_urls = st.lists(
    st.integers(8000, 9999).map(lambda p: f"http://10.0.0.{p % 250 + 1}:{p}"),
    min_size=2,
    max_size=8,
    unique=True,
)
cache_keys = st.text(
    alphabet="0123456789abcdef", min_size=8, max_size=64
)


class TestReplicaPlacement:
    """Exact consistent-hash properties the RF=2 cache tier leans on."""

    @given(urls=node_urls, key=cache_keys, rf=st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_replica_sets_are_distinct_nodes(self, urls, key, rf):
        from repro.fleet.router import HashRing

        ring = HashRing(urls)
        replicas = ring.replicas_for(key, rf)
        # Distinct nodes, never more than the ring holds, and always a
        # prefix of the deterministic fallback walk starting at the
        # primary — so every reader agrees on replica order.
        assert len(replicas) == len(set(replicas)) == min(rf, len(urls))
        assert replicas == ring.nodes_for(key)[: len(replicas)]
        assert replicas[0] == ring.node_for(key)

    @given(urls=node_urls, keys=st.lists(cache_keys, min_size=1, max_size=40, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_removing_a_node_only_remaps_its_own_keys(self, urls, keys):
        from repro.fleet.router import HashRing

        ring = HashRing(urls)
        victim = ring.node_for(keys[0])
        survivor_ring = HashRing([u for u in urls if u != victim])
        for key in keys:
            before = ring.replicas_for(key, 2)
            after = survivor_ring.replicas_for(key, 2)
            if victim not in before:
                # Keys whose replica set never touched the victim do not
                # move at all — the bounded-churn half of consistency.
                assert after == before
            else:
                # Keys that did lose a replica keep every survivor in
                # place; only the victim's slot is re-assigned.
                assert [n for n in before if n != victim] == [
                    n for n in after if n in before
                ]

    @given(urls=node_urls, keys=st.lists(cache_keys, min_size=1, max_size=40, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_added_node_only_steals_keys_for_itself(self, urls, keys):
        from repro.fleet.router import HashRing

        joined = "http://10.0.1.1:7777"
        before = HashRing(urls)
        after = HashRing(urls + [joined])
        moved = 0
        for key in keys:
            old = before.replicas_for(key, 2)
            new = after.replicas_for(key, 2)
            if new == old:
                continue
            moved += 1
            # Any key that moved, moved *onto the joiner*: a changed
            # replica set always includes the new node, and the nodes it
            # displaced keep their relative order.
            assert joined in new
            survivors = [n for n in new if n != joined]
            assert survivors == [n for n in old if n in survivors]
        assert moved <= len(keys)
