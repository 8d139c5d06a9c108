"""repro.work: supervised pool, sharded scans, journal resume, chaos.

The pool tests use tiny module-level task functions (payloads must
pickle into worker processes).  The scan tests share one fitted
detector per module; the CLI test drives ``repro scan`` in a real
subprocess and SIGKILLs it mid-scan via an injected fault plan.
"""

from __future__ import annotations

import copy
import io
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.extraction import candidate_anchors
from repro.core.feedback import FeedbackKernel
from repro.core.persist import save_detector
from repro.core.training import GATED_OUT
from repro.errors import (
    ConfigError,
    ReproError,
    ScanDrainedError,
    StageTimeout,
    WorkerCrashError,
)
from repro.layout.io import save_layout_gds
from repro.obs import configure_logging
from repro.resilience import Journal, QuarantineReport, faults
from repro.work import (
    PoolConfig,
    PoolTask,
    ScanOptions,
    SupervisedPool,
    decode_shard_record,
    encode_shard_record,
    evaluate_shard,
    run_sharded_scan,
    scan_fingerprint,
    shard_cells,
)
from repro.work.shard import DEFAULT_SHARD_CLIPS, scan_base_fingerprint


# ----------------------------------------------------------------------
# module-level task functions (pickled into workers)
# ----------------------------------------------------------------------
def _echo(state, payload):
    return payload * 2


def _crash_once(state, payload):
    sentinel = Path(payload)
    if not sentinel.exists():
        sentinel.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def _hang(state, payload):
    time.sleep(60)
    return "never"


def _sum_unless_poisoned(state, payload):
    if 13 in payload:
        os.kill(os.getpid(), signal.SIGKILL)
    return sum(payload)


def _sleepy(state, payload):
    time.sleep(payload)
    return payload


def _broken_init():
    raise ValueError("no state for you")


# ----------------------------------------------------------------------
# the supervised pool
# ----------------------------------------------------------------------
class TestSupervisedPool:
    def test_runs_tasks_and_collects_results(self):
        results = {}
        pool = SupervisedPool(PoolConfig(workers=2))
        stats = pool.run(
            [PoolTask(task_id=str(i), fn=_echo, payload=i) for i in range(10)],
            on_result=lambda task, result, info: results.__setitem__(
                task.task_id, result
            ),
        )
        assert stats.tasks_ok == 10
        assert results == {str(i): i * 2 for i in range(10)}
        assert stats.worker_restarts == 0

    def test_crashed_task_retries_on_fresh_worker(self, tmp_path):
        results = []
        pool = SupervisedPool(PoolConfig(workers=1, task_retries=1))
        stats = pool.run(
            [
                PoolTask(
                    task_id="flaky",
                    fn=_crash_once,
                    payload=str(tmp_path / "crashed.flag"),
                )
            ],
            on_result=lambda task, result, info: results.append(result),
        )
        assert results == ["survived"]
        assert stats.worker_restarts >= 1
        assert stats.task_retries == 1
        assert stats.poison_tasks == 0

    def test_hung_task_killed_at_deadline(self):
        poisons = []
        pool = SupervisedPool(
            PoolConfig(workers=1, task_timeout_s=0.5, task_retries=0)
        )
        stats = pool.run(
            [PoolTask(task_id="stuck", fn=_hang, payload=None)],
            on_poison=lambda task, error: poisons.append(error),
        )
        assert stats.poison_tasks == 1
        assert isinstance(poisons[0], StageTimeout)
        assert stats.worker_restarts >= 1

    def test_poison_task_bisected_to_single_item(self):
        results, poisons = [], []

        def split(task):
            items = task.payload
            if len(items) <= 1:
                return None
            half = len(items) // 2
            return [
                PoolTask(
                    task_id=f"{task.task_id}/{side}",
                    fn=_sum_unless_poisoned,
                    payload=chunk,
                    depth=task.depth + 1,
                )
                for side, chunk in enumerate((items[:half], items[half:]))
            ]

        pool = SupervisedPool(PoolConfig(workers=2, task_retries=0))
        stats = pool.run(
            [
                PoolTask(
                    task_id="root",
                    fn=_sum_unless_poisoned,
                    payload=list(range(32)),
                )
            ],
            split=split,
            on_result=lambda task, result, info: results.append(result),
            on_poison=lambda task, error: poisons.append(task.payload),
        )
        # Exactly the offending element is isolated; everything else ran.
        assert poisons == [[13]]
        assert sum(results) == sum(range(32)) - 13
        assert stats.poison_tasks == 1
        assert stats.bisections >= 1

    def test_heartbeat_silence_kills_worker(self):
        poisons = []
        pool = SupervisedPool(
            PoolConfig(
                workers=1,
                task_retries=0,
                task_timeout_s=30.0,
                heartbeat_interval_s=0.05,
                heartbeat_timeout_s=0.3,
            )
        )
        with faults.active("work.heartbeat=error:1"):
            stats = pool.run(
                [PoolTask(task_id="silent", fn=_sleepy, payload=2.0)],
                on_poison=lambda task, error: poisons.append(error),
            )
        assert stats.worker_restarts >= 1
        assert stats.poison_tasks == 1
        assert isinstance(poisons[0], WorkerCrashError)

    def test_stop_event_drains_gracefully(self):
        stop = threading.Event()
        results = []

        def collect(task, result, info):
            results.append(result)
            stop.set()  # drain after the first completion

        pool = SupervisedPool(PoolConfig(workers=1))
        stats = pool.run(
            [
                PoolTask(task_id=str(i), fn=_sleepy, payload=0.05)
                for i in range(5)
            ],
            on_result=collect,
            stop_event=stop,
        )
        assert stats.drained
        assert 1 <= stats.tasks_ok < 5
        assert len(results) == stats.tasks_ok

    def test_broken_init_does_not_respawn_forever(self):
        pool = SupervisedPool(PoolConfig(workers=1), init_fn=_broken_init)
        with pytest.raises(WorkerCrashError, match="initialise"):
            pool.run(
                [
                    PoolTask(task_id=str(i), fn=_echo, payload=i)
                    for i in range(50)
                ],
                # splitting must not rescue an init failure either
                split=lambda task: None,
            )

    def test_injected_task_error_is_survivable_chaos(self):
        # An ``error`` fault at work.task fails the attempt in-worker;
        # the supervisor retries the task and it succeeds.  (Counters
        # are per-process: each forked worker carries its own copy of
        # the plan state, so the !1 limit is per worker.)
        results = []
        pool = SupervisedPool(PoolConfig(workers=1, task_retries=2))
        with faults.active("work.task=error:1!1"):
            stats = pool.run(
                [PoolTask(task_id="t", fn=_echo, payload=21)],
                on_result=lambda task, result, info: results.append(result),
            )
        assert results == [42]
        assert stats.task_retries >= 1

    def test_pool_config_validation(self):
        with pytest.raises(ConfigError):
            PoolConfig(workers=0)
        with pytest.raises(ConfigError):
            PoolConfig(task_timeout_s=-1.0)
        with pytest.raises(ConfigError):
            PoolConfig(task_retries=-1)


# ----------------------------------------------------------------------
# quarantine report: thread hammering + process boundary (satellite)
# ----------------------------------------------------------------------
class TestQuarantineSafety:
    def test_concurrent_adds_lose_nothing(self):
        report = QuarantineReport(max_items=50)
        threads = [
            threading.Thread(
                target=lambda: [
                    report.add("Kind", "reason", index=i) for i in range(500)
                ]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert report.total == 8 * 500
        assert report.counts_by_kind() == {"Kind": 4000}
        assert len(report.items()) == 50  # sample stays bounded

    def test_pickle_round_trip_recreates_lock(self):
        report = QuarantineReport()
        report.add("InputError", "bad clip", source="test", anchor=[1, 2])
        clone = pickle.loads(pickle.dumps(report))
        assert clone.total == 1
        assert clone.counts_by_kind() == {"InputError": 1}
        clone.add("InputError", "another")  # lock must work post-unpickle
        assert clone.total == 2
        assert report.total == 1  # the original is untouched

    def test_merge_and_from_dict_round_trip(self):
        source = QuarantineReport()
        for index in range(3):
            source.add("GdsiiError", f"record {index}")
        merged = QuarantineReport.from_dict(source.to_dict())
        target = QuarantineReport()
        target.add("InputError", "pre-existing")
        target.merge(merged)
        assert target.total == 4
        assert target.counts_by_kind() == {"GdsiiError": 3, "InputError": 1}


# ----------------------------------------------------------------------
# sharded scans
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted(small_benchmark):
    detector = HotspotDetector(DetectorConfig.ours())
    detector.fit(small_benchmark.training)
    return detector


@pytest.fixture(scope="module")
def serial_report(fitted, small_benchmark):
    return fitted.detect(small_benchmark.testing.layout)


def _cores(report):
    return [(clip.core.x0, clip.core.y0) for clip in report.reports]


def _other_feedback(detector):
    """The detector's feedback kernel with its dual coefficients doubled."""
    other = copy.deepcopy(detector.feedback_)
    other.model.dual_coef_ = other.model.dual_coef_ * 2
    return other


class TestShardedScan:
    def test_shards_partition_the_anchor_set(self, fitted, small_benchmark):
        layout = small_benchmark.testing.layout
        spec = fitted.config.spec
        cells = shard_cells(layout, spec, 1, spec.clip_side * 2)
        flattened = [anchor for _, anchors in cells for anchor in anchors]
        assert sorted(flattened) == candidate_anchors(layout, spec, 1)
        assert len(flattened) == len(set(flattened))

    def test_default_options_scan_in_process_unjournaled(
        self, fitted, small_benchmark, serial_report, monkeypatch
    ):
        import repro.work.shard as shard_module

        def forbidden(*args, **kwargs):
            raise AssertionError("ScanOptions() must scan in-process, unjournaled")

        # ScanOptions() means what detect() does: no pool, and no
        # influence-region hash without a journal to key.
        monkeypatch.setattr(shard_module, "SupervisedPool", forbidden)
        monkeypatch.setattr(shard_module, "shard_geometry_hash", forbidden)
        scan = run_sharded_scan(fitted, small_benchmark.testing.layout)
        assert scan.shards_total == serial_report.shards_total
        assert scan.anchors == serial_report.extraction.anchors
        assert np.array_equal(scan.margins, serial_report.extraction.margins)
        assert np.array_equal(scan.verdicts, serial_report.extraction.verdicts)

    def test_incremental_rescan_hashes_and_decodes_each_shard_once(
        self, fitted, small_benchmark, tmp_path, monkeypatch
    ):
        import repro.work.shard as shard_module

        layout = small_benchmark.testing.layout
        options = ScanOptions(journal_dir=tmp_path / "journal", incremental=True)
        fitted.detect(layout, work=options)
        calls = {"shard_geometry_hash": 0, "decode_shard_record": 0}
        for name in calls:
            original = getattr(shard_module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(shard_module, name, counting)
        rescan = fitted.detect(layout, work=options)
        assert rescan.shards_reused == rescan.shards_total > 1
        assert calls == {
            "shard_geometry_hash": rescan.shards_total,
            "decode_shard_record": rescan.shards_total,
        }

    def test_process_backend_bit_identical(
        self, fitted, small_benchmark, serial_report
    ):
        result = fitted.detect(
            small_benchmark.testing.layout, work=ScanOptions(workers=3)
        )
        assert result.backend == "process"
        assert result.shards_total >= 2
        # The default detect() runs the same shard driver in-process.
        assert serial_report.backend == "serial"
        assert serial_report.shards_total == result.shards_total
        assert _cores(result) == _cores(serial_report)
        assert (
            result.extraction.anchor_count
            == serial_report.extraction.anchor_count
        )
        assert (
            result.extraction.candidate_count
            == serial_report.extraction.candidate_count
        )
        assert result.flagged_before_feedback == serial_report.flagged_before_feedback

    def test_journal_resume_after_midrun_abort(
        self, fitted, small_benchmark, serial_report, tmp_path
    ):
        layout = small_benchmark.testing.layout
        # In-process (0) and pool (3) scans journal the same way.
        for workers in (0, 3):
            journal_dir = tmp_path / f"journal-{workers}"
            # Abort the run after the second completed shard (parent-side).
            with faults.active("work.shard=error:1@1!1"):
                with pytest.raises(ReproError, match="injected"):
                    fitted.detect(
                        layout,
                        work=ScanOptions(workers=workers, journal_dir=journal_dir),
                    )
            completed = Journal(journal_dir).completed()
            assert completed, "aborted run should leave journaled shards"

            resumed = fitted.detect(
                layout,
                work=ScanOptions(
                    workers=workers, journal_dir=journal_dir, resume=True
                ),
            )
            assert resumed.shards_resumed == len(completed)
            assert _cores(resumed) == _cores(serial_report)
            # The journal clears after success, like training checkpoints.
            assert Journal(journal_dir).completed() == []

    def test_mismatched_journal_is_discarded(
        self, fitted, small_benchmark, serial_report, tmp_path
    ):
        layout = small_benchmark.testing.layout
        poisoned = tmp_path / "poisoned"
        # A complete journal of this very scan ...
        fitted.detect(
            layout,
            work=ScanOptions(workers=0, journal_dir=poisoned, incremental=True),
        )
        header, *units = (poisoned / "journal.jsonl").read_text().splitlines()
        identity = json.loads(header)["identity"]
        # ... whose payloads would flag every candidate if mixed in.
        for path in poisoned.glob("unit_*.npz"):
            record = decode_shard_record(path.read_bytes(), 0)
            record.margins = record.margins + 100.0
            path.write_bytes(encode_shard_record(record))
        stale_headers = {
            "own identity": {"identity": identity},
            "old layout": {
                "version": 2,
                "fingerprint": "0" * 64,
                "base": identity["base"],
                "shards": len(units),
                "shard_side": identity["shard_side"],
            },
            "another base": {"identity": {**identity, "base": "0" * 64}},
            "another shard side": {
                "identity": {**identity, "shard_side": 2 * identity["shard_side"]}
            },
            "another feedback kernel": {
                "identity": {
                    **identity,
                    "base": scan_base_fingerprint(
                        1,
                        fitted.config,
                        fitted.model_,
                        _other_feedback(fitted),
                        identity["shard_side"],
                    ),
                }
            },
        }
        for name, stale in stale_headers.items():
            journal_dir = tmp_path / name.replace(" ", "-")
            shutil.copytree(poisoned, journal_dir)
            (journal_dir / "journal.jsonl").write_text(
                "\n".join([json.dumps(stale), *units]) + "\n"
            )
            log = io.StringIO()
            configure_logging(stream=log, level="warning")
            try:
                result = fitted.detect(
                    layout,
                    work=ScanOptions(workers=0, journal_dir=journal_dir, resume=True),
                )
            finally:
                configure_logging(enabled=False)
            warned = "journal_identity_mismatch" in log.getvalue()
            if name == "own identity":
                # The control: this journal really is poison when reused.
                assert result.shards_resumed == result.shards_total, name
                assert _cores(result) != _cores(serial_report), name
                assert not warned, name
            else:
                assert result.shards_resumed == 0, name
                assert _cores(result) == _cores(serial_report), name
                assert warned, name

    def test_poison_anchor_is_quarantined_not_fatal(
        self, fitted, small_benchmark, serial_report
    ):
        layout = small_benchmark.testing.layout
        all_anchors = candidate_anchors(layout, fitted.config.spec, 1)
        candidate_set = {
            (clip.core.x0, clip.core.y0)
            for clip in serial_report.extraction.clips
        }
        # Poison an anchor whose clip is rejected at the distribution
        # stage, so the surviving candidate set (and hotspot set) is
        # untouched and comparable to the baseline exactly.
        x, y = next(a for a in all_anchors if a not in candidate_set)
        quarantine = QuarantineReport()
        with faults.active(f"extract.anchor.{x}_{y}=kill:1"):
            result = fitted.detect(
                layout,
                work=ScanOptions(workers=3),
                quarantine=quarantine,
            )
        poison_items = [
            item for item in quarantine.items() if item.kind == "PoisonTaskError"
        ]
        assert len(poison_items) == 1
        assert f"[{x}, {y}]" in poison_items[0].context["anchors"]
        assert result.poison_tasks == 1
        assert result.worker_restarts >= 1
        assert _cores(result) == _cores(serial_report)

    def test_stop_event_drains_to_scan_drained_error(
        self, fitted, small_benchmark, tmp_path
    ):
        stop = threading.Event()
        stop.set()
        with pytest.raises(ScanDrainedError, match="resume"):
            fitted.detect(
                small_benchmark.testing.layout,
                work=ScanOptions(
                    workers=2,
                    journal_dir=tmp_path / "journal",
                    stop_event=stop,
                ),
            )

    def test_fingerprint_ignores_threshold_and_execution(
        self, fitted, small_benchmark
    ):
        layout = small_benchmark.testing.layout
        model, feedback = fitted.model_, fitted.feedback_
        base = scan_fingerprint(layout, 1, fitted.config, model, feedback, 4800)
        assert base == scan_fingerprint(
            layout, 1, fitted.config.at_threshold(0.5), model, feedback, 4800
        )
        assert base != scan_fingerprint(
            layout, 1, fitted.config, model, feedback, 2400
        )
        assert base != scan_fingerprint(
            layout, 1, fitted.config, model, _other_feedback(fitted), 4800
        )
        assert base != scan_fingerprint(layout, 1, fitted.config, model, None, 4800)


# ----------------------------------------------------------------------
# shard records carry feedback verdicts, never clips
# ----------------------------------------------------------------------
class _CountingSink:
    """Metrics sink that sums ``increment`` calls by name."""

    def __init__(self):
        self.counts = {}

    def increment(self, name, amount=1.0):
        self.counts[name] = self.counts.get(name, 0) + amount


def _failing_keep_mask(self, clips, threshold=0.0):
    raise ReproError("injected feedback failure")


def _largest_shard(detector, layout):
    spec = detector.config.spec
    cells = shard_cells(layout, spec, 1, spec.clip_side * DEFAULT_SHARD_CLIPS)
    return max((anchors for _, anchors in cells), key=len)


class TestShardVerdicts:
    def test_record_codec_round_trips_verdicts(self, fitted, small_benchmark):
        layout = small_benchmark.testing.layout
        record = evaluate_shard(
            fitted.config, fitted.model_, fitted.feedback_, layout, 1,
            _largest_shard(fitted, layout),
        )
        assert record.anchors and not record.feedback_degraded
        record.verdicts[::3] = False  # both values on the wire
        record.feedback_degraded = True
        decoded = decode_shard_record(encode_shard_record(record), 7)
        assert decoded.shard_id == 7
        assert decoded.anchors == record.anchors
        assert np.array_equal(decoded.margins, record.margins)
        assert decoded.verdicts.dtype == bool
        assert np.array_equal(decoded.verdicts, record.verdicts)
        assert decoded.feedback_degraded
        assert (
            decoded.anchor_count,
            decoded.rejected_density,
            decoded.rejected_count,
            decoded.rejected_boundary,
        ) == (
            record.anchor_count,
            record.rejected_density,
            record.rejected_count,
            record.rejected_boundary,
        )

    def test_verdicts_of_another_length_are_rejected(self, fitted, small_benchmark):
        layout = small_benchmark.testing.layout
        record = evaluate_shard(
            fitted.config, fitted.model_, fitted.feedback_, layout, 1,
            _largest_shard(fitted, layout),
        )
        with np.load(io.BytesIO(encode_shard_record(record))) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["verdicts"] = np.append(arrays["verdicts"], True)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        with pytest.raises(ValueError, match="verdicts"):
            decode_shard_record(buffer.getvalue(), 0)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_erroring_feedback_keeps_every_flagged_clip(
        self, fitted, small_benchmark, serial_report, monkeypatch, tmp_path, workers
    ):
        layout = small_benchmark.testing.layout
        journal_dir = tmp_path / "journal"
        sink = _CountingSink()
        quarantine = QuarantineReport()
        # Patched on the class before the pool forks, so workers fail too.
        monkeypatch.setattr(FeedbackKernel, "keep_mask", _failing_keep_mask)
        degraded = replace(fitted, metrics_sink_=sink).detect(
            layout,
            quarantine=quarantine,
            work=ScanOptions(
                workers=workers, journal_dir=journal_dir, incremental=True
            ),
        )
        monkeypatch.undo()
        assert degraded.feedback_degraded
        assert sink.counts.get("feedback_degraded_total") == 1
        assert quarantine.total == 0 and degraded.quarantined == 0
        # Every flagged clip is reported, as if there were no feedback kernel.
        assert (
            degraded.flagged_after_feedback
            == degraded.flagged_before_feedback
            == serial_report.flagged_before_feedback
        )
        unfiltered = replace(fitted, feedback_=None).detect(layout)
        assert _cores(degraded) == _cores(unfiltered)

        # Only the shards with gated candidates called the kernel; they
        # stay out of the journal, so a healthy resume recomputes them.
        gated = {
            anchor
            for anchor, margin in zip(
                serial_report.extraction.anchors, serial_report.extraction.margins
            )
            if margin > GATED_OUT
        }
        spec = fitted.config.spec
        cells = shard_cells(layout, spec, 1, spec.clip_side * DEFAULT_SHARD_CLIPS)
        judged = sum(1 for _, anchors in cells if gated.intersection(anchors))
        assert 0 < judged < len(cells)
        resumed = fitted.detect(
            layout,
            work=ScanOptions(workers=workers, journal_dir=journal_dir, resume=True),
        )
        assert resumed.shards_resumed == len(cells) - judged
        assert not resumed.feedback_degraded
        assert _cores(resumed) == _cores(serial_report)
        assert (resumed.flagged_before_feedback, resumed.flagged_after_feedback) == (
            serial_report.flagged_before_feedback,
            serial_report.flagged_after_feedback,
        )
        assert np.array_equal(resumed.extraction.margins, serial_report.extraction.margins)
        assert np.array_equal(
            resumed.extraction.verdicts, serial_report.extraction.verdicts
        )

    @pytest.mark.parametrize("workers", [0, 2])
    def test_incremental_rescan_cuts_only_reported_clips(
        self, fitted, small_benchmark, monkeypatch, tmp_path, workers
    ):
        import repro.core.detector as detector_module

        layout = small_benchmark.testing.layout
        cuts = {"all": 0, "removal": 0}
        cut = layout.cut_clip_at_core
        remove = detector_module.remove_redundant_clips

        def counting_cut(*args, **kwargs):
            cuts["all"] += 1
            return cut(*args, **kwargs)

        def counting_remove(*args, **kwargs):
            before = cuts["all"]
            try:
                return remove(*args, **kwargs)
            finally:
                cuts["removal"] += cuts["all"] - before

        monkeypatch.setattr(layout, "cut_clip_at_core", counting_cut)
        monkeypatch.setattr(detector_module, "remove_redundant_clips", counting_remove)
        options = ScanOptions(
            workers=workers, journal_dir=tmp_path / "journal", incremental=True
        )
        fitted.detect(layout, work=options)
        cuts.update(all=0, removal=0)
        rescan = fitted.detect(layout, work=options)
        assert rescan.shards_reused == rescan.shards_total
        assert cuts["all"] - cuts["removal"] == rescan.flagged_after_feedback
        assert rescan.flagged_after_feedback < rescan.extraction.candidate_count

    def test_threshold_at_or_below_gated_out_is_rejected(
        self, fitted, small_benchmark, serial_report
    ):
        layout = small_benchmark.testing.layout
        for threshold in (GATED_OUT, 2 * GATED_OUT):
            with pytest.raises(ValueError, match="GATED_OUT"):
                fitted.detect(layout, threshold=threshold)
            with pytest.raises(ValueError, match="GATED_OUT"):
                fitted.detect(
                    layout, threshold=threshold, scan=serial_report.extraction
                )


# ----------------------------------------------------------------------
# CLI: SIGKILLed process scan resumes bit-identically
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scan_workdir(fitted, small_benchmark, tmp_path_factory):
    path = tmp_path_factory.mktemp("work-cli")
    save_detector(fitted, path / "model.npz", name="cli")
    save_layout_gds(small_benchmark.testing.layout, path / "layout.gds")
    return path


def _run_cli(arguments, cwd, extra_env=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(faults.ENV_VAR, None)
    if extra_env:
        env.update(extra_env)
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


class TestCliProcessScan:
    def test_sigkilled_scan_resumes_identically(self, scan_workdir):
        base = [
            "scan",
            "--model", "model.npz",
            "--layout", "layout.gds",
            "--no-manifest",
        ]
        process_args = [
            *base,
            "--workers", "2",
            "--journal-dir", "journal",
        ]
        # The fault plan SIGKILLs the whole run at the second completed
        # shard — the hard-crash case, nothing gets to clean up.
        killed = _run_cli(
            process_args,
            scan_workdir,
            extra_env={faults.ENV_VAR: "work.shard=kill:1@1!1"},
        )
        assert killed.returncode != 0
        journal_lines = (
            (scan_workdir / "journal" / "journal.jsonl").read_text().splitlines()
        )
        assert len(journal_lines) >= 2  # header + >=1 completed shard

        resumed = _run_cli([*process_args, "--resume"], scan_workdir)
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed" in resumed.stderr

        reference = _run_cli(base, scan_workdir)
        assert reference.returncode == 0, reference.stderr
        assert _core_lines(resumed.stdout) == _core_lines(reference.stdout)
        assert _core_lines(resumed.stdout)  # the scan actually found hotspots
        # Success cleared the journal.
        assert not (scan_workdir / "journal" / "journal.jsonl").exists()

    def test_no_cache_pool_scan_opens_no_cache_dir(self, scan_workdir):
        # --no-cache wins over --cache-dir in pool workers too: they open
        # only the cache the scan attached, and --no-cache attaches none.
        result = _run_cli(
            [
                "scan",
                "--model", "model.npz",
                "--layout", "layout.gds",
                "--no-manifest",
                "--no-cache",
                "--cache-dir", "unused-cache",
                "--workers", "2",
                "--no-journal",
            ],
            scan_workdir,
        )
        assert result.returncode == 0, result.stderr
        assert _core_lines(result.stdout)
        assert sorted((scan_workdir / "unused-cache").rglob("*.blob")) == []

    def test_threshold_at_or_below_gated_out_exits_2(self, scan_workdir):
        result = _run_cli(
            [
                "scan",
                "--model", "model.npz",
                "--layout", "layout.gds",
                "--no-manifest",
                "--threshold=-1e9",
            ],
            scan_workdir,
        )
        assert result.returncode == 2
        assert "GATED_OUT" in result.stderr

    def test_sigterm_drains_with_exit_code_3_then_resumes(self, scan_workdir):
        from repro.cli import main

        journal_dir = scan_workdir / "drain-journal"
        scan_args = [
            "scan",
            "--model", str(scan_workdir / "model.npz"),
            "--layout", str(scan_workdir / "layout.gds"),
            "--workers", "2",
            "--shard-side", "2400",
            "--journal-dir", str(journal_dir),
            "--no-manifest",
        ]
        timer = threading.Timer(
            0.3, lambda: os.kill(os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            code = main(scan_args)
        finally:
            timer.cancel()
        if code == 0:
            pytest.skip("scan finished before the drain signal landed")
        assert code == 3
        assert (journal_dir / "journal.jsonl").exists()
        assert main([*scan_args, "--resume"]) == 0
        assert not journal_dir.exists()  # cleared on success
