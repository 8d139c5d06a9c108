"""Differential harness: caching must never change a single bit.

Every test here runs the same detection twice-or-more under different
cache states (off / cold / warm / incremental, in-process / process-pool
scans) and asserts the *complete* observable output is identical:
the hotspot report set, the per-clip margins, and the extraction
funnel counts.  A cache that changes any of these is a correctness
bug, however fast it is.

One detector is fitted per module and shared; tests attach and detach
caches around it (``attach_cache(None)`` restores the uncached state).
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cache import HotspotCache
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.persist import save_detector
from repro.errors import ReproError
from repro.geometry.rect import Rect
from repro.layout.io import save_layout_gds
from repro.layout.layout import Layout
from repro.resilience import faults
from repro.work import ScanOptions


@pytest.fixture(scope="module")
def fitted(small_benchmark):
    detector = HotspotDetector(DetectorConfig.ours())
    detector.fit(small_benchmark.training)
    return detector


@pytest.fixture()
def detached(fitted):
    """Hand the shared detector out cache-free; detach again afterwards."""
    fitted.attach_cache(None)
    yield fitted
    fitted.attach_cache(None)


def signature(detector, report):
    """Everything a scan observably produced, in comparable form."""
    cores = tuple(
        (clip.core.x0, clip.core.y0, clip.core.x1, clip.core.y1)
        for clip in report.reports
    )
    extraction = report.extraction
    funnel = (
        extraction.anchor_count,
        extraction.rejected_density,
        extraction.rejected_count,
        extraction.rejected_boundary,
        len(extraction.clips),
    )
    margins = detector.margins(extraction.clips)
    feedback = (
        report.flagged_before_feedback,
        report.flagged_after_feedback,
        tuple(extraction.verdicts.tolist()),
    )
    return cores, funnel, margins, feedback


def assert_identical(left, right):
    assert left[0] == right[0]  # hotspot report set
    assert left[1] == right[1]  # extraction funnel counts
    assert np.array_equal(left[2], right[2])  # margins, bit-identical
    assert left[3] == right[3]  # flagged before/after feedback, verdicts


def copy_layout(layout, layer, extra=None):
    out = Layout()
    for rect in layout.layer(layer).rects:
        out.add_rect(layer, rect)
    if extra is not None:
        out.add_rect(layer, extra)
    return out


class TestCacheModesBitIdentical:
    def test_off_cold_warm_thread(self, detached, small_benchmark, tmp_path):
        layout = small_benchmark.testing.layout
        baseline = signature(detached, detached.detect(layout))

        detached.attach_cache(HotspotCache(directory=tmp_path / "cache"))
        cold_report = detached.detect(layout)
        cold = signature(detached, cold_report)
        warm_report = detached.detect(layout)
        warm = signature(detached, warm_report)

        assert_identical(baseline, cold)
        assert_identical(baseline, warm)

        assert cold_report.cache_stats is not None
        assert cold_report.cache_stats["margin_misses"] > 0
        assert warm_report.cache_stats["margin_misses"] == 0
        assert warm_report.cache_stats["margin_hits"] > 0

    def test_off_cold_warm_process(self, detached, small_benchmark, tmp_path):
        layout = small_benchmark.testing.layout
        options = ScanOptions(workers=2)
        baseline = signature(detached, detached.detect(layout, work=ScanOptions(workers=2)))

        detached.attach_cache(HotspotCache(directory=tmp_path / "cache"))
        cold = signature(detached, detached.detect(layout, work=options))
        warm = signature(detached, detached.detect(layout, work=options))

        assert_identical(baseline, cold)
        assert_identical(baseline, warm)

    def test_thread_and_process_backends_agree(self, detached, small_benchmark):
        layout = small_benchmark.testing.layout
        thread = signature(detached, detached.detect(layout))
        process = signature(
            detached, detached.detect(layout, work=ScanOptions(workers=2))
        )
        assert_identical(thread, process)

    def test_memory_only_cache_thread(self, detached, small_benchmark):
        layout = small_benchmark.testing.layout
        baseline = signature(detached, detached.detect(layout))
        detached.attach_cache(HotspotCache())
        assert_identical(baseline, signature(detached, detached.detect(layout)))
        assert_identical(baseline, signature(detached, detached.detect(layout)))

    def test_cold_scan_hashes_each_candidate_once(
        self, detached, small_benchmark, monkeypatch
    ):
        """The margin cache hashes each candidate's content key from the
        funnel's rows, and a margin miss hands it on to the feature-cache
        prefetch: a cold scan hashes each candidate's geometry once, and
        once more per feature-cache lookup.  Every content key, the
        funnel's and ``clip_content_key``'s, is hashed by
        ``rows_content_key``."""
        import repro.cache.keys

        counts = {"keys": 0, "feature_lookups": 0}
        content_key = repro.cache.keys.rows_content_key
        get_features = HotspotCache.get_features

        def counting_key(*args):
            counts["keys"] += 1
            return content_key(*args)

        def counting_get(cache, fingerprint, key):
            counts["feature_lookups"] += 1
            return get_features(cache, fingerprint, key)

        monkeypatch.setattr(repro.cache.keys, "rows_content_key", counting_key)
        monkeypatch.setattr(HotspotCache, "get_features", counting_get)
        detached.attach_cache(HotspotCache())
        report = detached.detect(small_benchmark.testing.layout)
        candidates = report.extraction.candidate_count
        assert candidates > 0 and counts["feature_lookups"] > 0
        assert counts["keys"] == candidates + counts["feature_lookups"]

    def test_uncached_scan_hashes_no_key(self, detached, small_benchmark, monkeypatch):
        """Only a cache reads content keys, so a scan without one hashes
        none."""
        import repro.cache.keys

        hashed = []
        content_key = repro.cache.keys.rows_content_key
        monkeypatch.setattr(
            repro.cache.keys,
            "rows_content_key",
            lambda *args: hashed.append(args) or content_key(*args),
        )
        report = detached.detect(small_benchmark.testing.layout)
        assert report.extraction.candidate_count > 0 and hashed == []


class TestIncrementalBitIdentical:
    def test_noop_edit_reuses_everything(self, detached, small_benchmark, tmp_path):
        layout = small_benchmark.testing.layout
        for workers in (0, 2):  # in-process and pool scans
            options = ScanOptions(
                workers=workers,
                journal_dir=tmp_path / f"journal-{workers}",
                incremental=True,
            )
            first = detached.detect(layout, work=options)
            assert first.shards_reused == 0
            payloads = sorted(options.journal_dir.glob("*.npz"))
            assert len(payloads) == first.shards_total
            stamps = [
                (path.stat().st_ino, path.stat().st_mtime_ns) for path in payloads
            ]
            # Same geometry, rebuilt object: every shard hash matches.
            rebuilt = copy_layout(layout, 1)
            second = detached.detect(rebuilt, work=options)
            assert second.shards_total > 0
            assert second.shards_reused == second.shards_total
            assert_identical(
                signature(detached, first), signature(detached, second)
            )
            # Reuse reads the journaled shards; it rewrites none of them.
            assert sorted(options.journal_dir.glob("*.npz")) == payloads
            assert [
                (path.stat().st_ino, path.stat().st_mtime_ns) for path in payloads
            ] == stamps

    def test_real_edit_recomputes_only_touched_shards(
        self, detached, small_benchmark, tmp_path
    ):
        layout = small_benchmark.testing.layout
        box = layout.bbox(1)
        edit = Rect(box.x0 + 2000, box.y0 + 2000, box.x0 + 2400, box.y0 + 2600)
        edited = copy_layout(layout, 1, extra=edit)
        fresh = detached.detect(edited)  # in-process, no journal
        for workers in (0, 2):  # in-process and pool scans
            options = ScanOptions(
                workers=workers,
                journal_dir=tmp_path / f"journal-{workers}",
                incremental=True,
            )
            detached.detect(layout, work=options)

            incremental = detached.detect(edited, work=options)
            assert 0 < incremental.shards_reused < incremental.shards_total
            assert_identical(
                signature(detached, fresh), signature(detached, incremental)
            )

            # Resume mode: a scan of the layout interrupted after two
            # journaled shards (one of them in the edited cell) finishes
            # on the edited layout, reusing what the edit did not touch.
            options = ScanOptions(
                workers=workers, journal_dir=tmp_path / f"resume-{workers}"
            )
            with faults.active("work.shard=error:1@2!1"):
                with pytest.raises(ReproError, match="injected"):
                    detached.detect(layout, work=options)
            resumed = detached.detect(edited, work=replace(options, resume=True))
            assert 0 < resumed.shards_resumed < resumed.shards_total
            assert resumed.shards_reused == 0
            assert_identical(
                signature(detached, fresh), signature(detached, resumed)
            )

    def test_incremental_requires_journal_dir(self, detached, small_benchmark):
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError):
            detached.detect(
                small_benchmark.testing.layout,
                work=ScanOptions(workers=2, incremental=True),
            )


# ----------------------------------------------------------------------
# CLI-level differential: the flags wire through end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cli_workdir(fitted, small_benchmark, tmp_path_factory):
    path = tmp_path_factory.mktemp("diff-cli")
    save_detector(fitted, path / "model.npz", name="diff")
    save_layout_gds(small_benchmark.testing.layout, path / "layout.gds")
    return path


def _run_cli(arguments, cwd):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(faults.ENV_VAR, None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _core_lines(stdout: str) -> list[str]:
    return sorted(line for line in stdout.splitlines() if line.startswith("  core"))


class TestCliDifferential:
    def test_incremental_flag_end_to_end(self, cli_workdir):
        base = [
            "scan",
            "--model", "model.npz",
            "--layout", "layout.gds",
            "--no-manifest",
        ]
        incremental_args = [
            *base,
            "--workers", "2",
            "--journal-dir", "journal",
            "--cache-dir", "cache",
            "--incremental",
        ]
        reference = _run_cli([*base, "--no-cache"], cli_workdir)
        assert reference.returncode == 0, reference.stderr

        cold = _run_cli(incremental_args, cli_workdir)
        assert cold.returncode == 0, cold.stderr
        rescan = _run_cli(incremental_args, cli_workdir)
        assert rescan.returncode == 0, rescan.stderr

        assert _core_lines(reference.stdout) == _core_lines(cold.stdout)
        assert _core_lines(reference.stdout) == _core_lines(rescan.stdout)
        assert _core_lines(reference.stdout)  # found actual hotspots
        assert "reused" in rescan.stderr
        # Incremental keeps the journal for the next diff.
        assert (cli_workdir / "journal" / "journal.jsonl").exists()

    def test_incremental_without_journal_is_an_error(self, cli_workdir):
        result = _run_cli(
            [
                "scan",
                "--model", "model.npz",
                "--layout", "layout.gds",
                "--no-manifest",
                "--no-journal",
                "--incremental",
            ],
            cli_workdir,
        )
        assert result.returncode == 2


# ----------------------------------------------------------------------
# regression: repeated evaluation must not re-extract known geometry
# ----------------------------------------------------------------------
class TestExtractOncePerUniqueClip:
    """``margins``/``predict_clips`` used to re-run the MTCG sweep on
    every call; with a cache attached each unique geometry is extracted
    exactly once per process, counted via the ``mtcg.features`` tally."""

    def _sweeps(self, tracer):
        return tracer.stage_totals().get("mtcg.features", {}).get("count", 0)

    def _ungated_clips(self, detector, layout, limit):
        # Topology-gated clips never reach extraction; pick clips the
        # kernels actually evaluate so the sweep counter is exercised.
        clips = detector.detect(layout).extraction.clips
        margins = detector.margins(clips)
        return [c for c, m in zip(clips, margins) if m > -1e8][:limit]

    def test_repeated_margins_sweep_once(self, detached, small_benchmark):
        from repro import obs

        clips = self._ungated_clips(detached, small_benchmark.testing.layout, 40)
        detached.attach_cache(HotspotCache())
        tracer = obs.set_tracer(obs.Tracer(max_spans=100_000))
        try:
            first = detached.margins(clips)
            cold = self._sweeps(tracer)
            assert cold > 0
            second = detached.margins(clips)
            assert self._sweeps(tracer) == cold  # zero new sweeps
            assert np.array_equal(first, second)
        finally:
            obs.set_tracer(None)

    def test_repeated_predict_clips_sweep_once(self, detached, small_benchmark):
        from repro import obs

        clips = self._ungated_clips(detached, small_benchmark.testing.layout, 40)
        detached.attach_cache(HotspotCache())
        tracer = obs.set_tracer(obs.Tracer(max_spans=100_000))
        try:
            flags_first = detached.predict_clips(clips)
            cold = self._sweeps(tracer)
            assert cold > 0
            flags_second = detached.predict_clips(clips)
            assert self._sweeps(tracer) == cold
            assert np.array_equal(flags_first, flags_second)
        finally:
            obs.set_tracer(None)

    def test_uncached_detector_re_extracts(self, detached, small_benchmark):
        # The contrast case documenting what the cache saves: without
        # one, every margins call repeats the full sweep.
        from repro import obs

        clips = self._ungated_clips(detached, small_benchmark.testing.layout, 20)
        tracer = obs.set_tracer(obs.Tracer(max_spans=100_000))
        try:
            detached.margins(clips)
            cold = self._sweeps(tracer)
            assert cold > 0
            detached.margins(clips)
            assert self._sweeps(tracer) == 2 * cold
        finally:
            obs.set_tracer(None)
