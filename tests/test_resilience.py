"""Tests for repro.resilience: faults, retries, breakers, checkpoints.

Everything timing-sensitive runs on fake clocks/sleeps, and every chaos
scenario uses the seeded fault-injection framework, so the suite asserts
exact schedules and exact failure points — no real sleeping, no flakes.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main as cli_main
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.persist import (
    decode_kernel_payload,
    encode_kernel_payload,
    save_detector,
)
from repro.core.training import train_multi_kernel
from repro.errors import (
    CheckpointError,
    CircuitOpenError,
    ConfigError,
    GdsiiError,
    InputError,
    QueueFullError,
    ReproError,
    ServeError,
    StageTimeout,
    TransientError,
)
from repro.gdsii.library import GdsBoundary, GdsLibrary
from repro.oasis import OasisError
from repro.layout.io import (
    library_to_clipset,
    load_clipset_gds,
    load_layout_gds,
    save_clipset_gds,
    save_layout_auto,
)
from repro.resilience import (
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    Journal,
    QuarantineReport,
    RetryPolicy,
    call_with_retry,
    faults,
    training_fingerprint,
)
from repro.resilience.checkpoint import CHECKPOINT_VERSION
from repro.resilience.faults import FaultPlan

SRC_DIR = Path(repro.__file__).resolve().parents[1]


class FakeClock:
    """Monotonic clock the tests advance by hand."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# error taxonomy
# ----------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_input_errors_are_repro_errors(self):
        for exc_type in (GdsiiError, OasisError):
            assert issubclass(exc_type, InputError)
            assert issubclass(exc_type, ReproError)

    def test_load_shedding_errors_are_transient(self):
        assert issubclass(QueueFullError, TransientError)
        assert issubclass(CircuitOpenError, TransientError)

    def test_circuit_open_carries_retry_after(self):
        exc = CircuitOpenError("open", retry_after_s=3.5)
        assert exc.retry_after_s == 3.5

    def test_stage_timeout_and_checkpoint_are_repro_errors(self):
        assert issubclass(StageTimeout, ReproError)
        assert issubclass(CheckpointError, ReproError)
        assert not issubclass(CheckpointError, InputError)


# ----------------------------------------------------------------------
# retry + deadline
# ----------------------------------------------------------------------


class TestRetry:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(base_delay_s=0.1, max_delay_s=10.0)
        assert policy.delay(2, "label") == policy.delay(2, "label")
        assert policy.delay(2, "label") != policy.delay(2, "other")

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            attempts=8, base_delay_s=0.1, max_delay_s=0.5, jitter=0.0
        )
        delays = [policy.delay(attempt) for attempt in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        slept = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("not yet")
            return "ok"

        result = call_with_retry(
            flaky, RetryPolicy(attempts=3), label="x", sleep=slept.append
        )
        assert result == "ok"
        assert calls["n"] == 3
        assert len(slept) == 2
        policy = RetryPolicy(attempts=3)
        assert slept == [policy.delay(0, "x"), policy.delay(1, "x")]

    def test_non_retryable_raises_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ConfigError("permanent")

        with pytest.raises(ConfigError):
            call_with_retry(broken, RetryPolicy(attempts=5), sleep=lambda s: None)
        assert calls["n"] == 1

    def test_attempts_exhausted_reraises_last(self):
        with pytest.raises(TransientError, match="always"):
            call_with_retry(
                lambda: (_ for _ in ()).throw(TransientError("always")),
                RetryPolicy(attempts=3),
                sleep=lambda s: None,
            )

    def test_expired_deadline_raises_instead_of_sleeping(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        clock.advance(6.0)

        def flaky():
            raise TransientError("again")

        with pytest.raises(StageTimeout, match="stage"):
            call_with_retry(
                flaky,
                RetryPolicy(attempts=3),
                label="stage",
                deadline=deadline,
                sleep=lambda s: pytest.fail("must not sleep past the deadline"),
            )

    def test_deadline_bookkeeping(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        clock.advance(3.0)
        assert deadline.expired()
        with pytest.raises(StageTimeout):
            deadline.check("kernels")
        assert Deadline.after(None) is None
        assert Deadline.after(1.0, clock=clock) is not None

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigError):
            RetryPolicy(attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)
        with pytest.raises(ConfigError):
            Deadline(0.0)


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------


class TestFaults:
    def test_spec_parsing(self):
        plan = FaultPlan.from_spec("seed=9;io.read=error:0.5@2!3;train.*=timeout")
        assert plan.seed == 9
        assert plan.rules[0].point == "io.read"
        assert plan.rules[0].probability == 0.5
        assert plan.rules[0].after == 2
        assert plan.rules[0].limit == 3
        assert plan.rules[1].kind == "timeout"
        assert plan.rules[1].probability == 1.0

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_spec("io.read=explode")
        with pytest.raises(ConfigError):
            FaultPlan.from_spec("io.read=error:2.0")
        with pytest.raises(ConfigError):
            FaultPlan.from_spec("just-a-word")

    def test_no_plan_is_a_noop(self):
        assert faults.get() is None
        faults.inject("anything.at.all")  # must not raise

    def test_kinds_map_to_exception_types(self):
        with faults.active("p=error"):
            with pytest.raises(TransientError):
                faults.inject("p")
        with faults.active("p=timeout"):
            with pytest.raises(StageTimeout):
                faults.inject("p")
        with faults.active("p=corrupt"):
            with pytest.raises(InputError):
                faults.inject("p")

    def test_after_and_limit_windows(self):
        with faults.active("p=error@2!2") as injector:
            outcomes = []
            for _ in range(6):
                try:
                    faults.inject("p")
                    outcomes.append("ok")
                except TransientError:
                    outcomes.append("boom")
            assert outcomes == ["ok", "ok", "boom", "boom", "ok", "ok"]
            assert injector.fire_count == 2

    def test_probabilistic_fires_are_reproducible(self):
        def run() -> list:
            with faults.active("seed=42;p=error:0.3") as injector:
                fired = []
                for index in range(200):
                    try:
                        faults.inject("p", index=index)
                    except TransientError:
                        fired.append(index)
                assert injector.fire_count == len(fired)
                return fired

        first, second = run(), run()
        assert first == second
        assert 20 < len(first) < 120  # ~30% of 200

    def test_active_restores_previous_plan(self):
        assert faults.get() is None
        with faults.active("p=error"):
            with faults.active("q=error") as inner:
                assert faults.get() is inner
                faults.inject("p")  # inner plan has no rule for p
            with pytest.raises(TransientError):
                faults.inject("p")
        assert faults.get() is None

    def test_summary_counts_by_point(self):
        with faults.active("a.*=error!1;b=error!2") as injector:
            for point in ("a.x", "b", "b"):
                with pytest.raises(TransientError):
                    faults.inject(point)
            assert injector.summary() == {
                "fired": 3,
                "by_point": {"a.x": 1, "b": 2},
            }


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset=10.0):
        return CircuitBreaker(
            "model",
            BreakerConfig(failure_threshold=threshold, reset_timeout_s=reset),
            clock=clock,
        )

    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(2):
            breaker.before_call()
            breaker.record_failure()
        breaker.record_success()  # resets the streak
        for _ in range(3):
            breaker.before_call()
            breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.before_call()
        assert 0 < excinfo.value.retry_after_s <= 10.0
        assert breaker.rejected_total == 1

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.1)
        breaker.before_call()  # admitted probe
        with pytest.raises(CircuitOpenError):
            breaker.before_call()  # probe budget spent
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.before_call()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.1)
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opened_total == 2
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_context_manager_records_outcomes(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1)
        with pytest.raises(ValueError):
            with breaker:
                raise ValueError("boom")
        assert breaker.state == "open"


# ----------------------------------------------------------------------
# quarantine
# ----------------------------------------------------------------------


class TestQuarantine:
    def test_counts_and_bounded_items(self):
        report = QuarantineReport(max_items=3)
        for index in range(5):
            report.add("GdsiiError", f"bad {index}", source="io.clip", index=index)
        report.add("LayoutError", "no window")
        assert report.total == 6
        assert bool(report)
        assert report.counts_by_kind() == {"GdsiiError": 5, "LayoutError": 1}
        assert len(report.items()) == 3
        document = report.to_dict()
        assert document["truncated"] is True
        assert document["items"][0]["context"] == {"index": "0"}

    def test_merge_and_write(self, tmp_path):
        left, right = QuarantineReport(), QuarantineReport()
        left.add("A", "x")
        right.add("A", "y")
        right.add("B", "z")
        left.merge(right)
        assert left.total == 3
        assert left.counts_by_kind() == {"A": 2, "B": 1}
        path = left.write(tmp_path / "q.json")
        assert json.loads(path.read_text())["total"] == 3

    def test_empty_report_is_falsy(self):
        assert not QuarantineReport()


# ----------------------------------------------------------------------
# corrupt-input corpus
# ----------------------------------------------------------------------


class TestCorruptInputs:
    @pytest.fixture(scope="class")
    def gds_bytes(self, small_benchmark, tmp_path_factory):
        path = tmp_path_factory.mktemp("corpus") / "layout.gds"
        save_layout_auto(small_benchmark.testing.layout, path)
        return path.read_bytes()

    @pytest.fixture(scope="class")
    def oasis_bytes(self, small_benchmark, tmp_path_factory):
        path = tmp_path_factory.mktemp("corpus") / "layout.oas"
        save_layout_auto(small_benchmark.testing.layout, path)
        return path.read_bytes()

    @pytest.mark.parametrize("cut", [0.3, 0.6, 0.95])
    def test_truncated_gds_reports_offset(self, gds_bytes, cut):
        from repro.gdsii.reader import read_library

        with pytest.raises(GdsiiError, match="offset") as excinfo:
            read_library(gds_bytes[: int(len(gds_bytes) * cut)])
        assert isinstance(excinfo.value, InputError)

    @pytest.mark.parametrize("cut", [0.5, 0.9])
    def test_truncated_oasis_reports_offset(self, oasis_bytes, cut):
        from repro.oasis.reader import read_oasis

        with pytest.raises(OasisError, match="offset"):
            read_oasis(oasis_bytes[: int(len(oasis_bytes) * cut)])

    def test_load_layout_names_the_file(self, gds_bytes, tmp_path):
        path = tmp_path / "torn.gds"
        path.write_bytes(gds_bytes[: len(gds_bytes) // 2])
        with pytest.raises(GdsiiError, match="torn.gds"):
            load_layout_gds(path)

    def test_clipset_quarantine_skips_bad_structures(self, small_benchmark):
        from repro.layout.io import clipset_to_library

        library = clipset_to_library(small_benchmark.training)
        total = len(library.structures)
        # A clip structure with no window marker and one with no label.
        bad = library.new_structure("HS_999999")
        bad.add(GdsBoundary(1, 0, [(0, 0), (4, 0), (4, 4), (0, 4)]))
        library.new_structure("WEIRD_000001")
        spec = small_benchmark.training.spec
        with pytest.raises(ReproError):
            library_to_clipset(library, spec)
        quarantine = QuarantineReport()
        clip_set = library_to_clipset(library, spec, quarantine=quarantine)
        assert len(clip_set) == total
        assert quarantine.total == 2
        assert quarantine.counts_by_kind() == {"LayoutError": 2}

    def test_clipset_load_with_injected_faults(self, small_benchmark, tmp_path):
        path = tmp_path / "clips.gds"
        save_clipset_gds(small_benchmark.training, path)
        spec = small_benchmark.training.spec
        with faults.active("seed=3;io.clip=corrupt:0.25"):
            quarantine = QuarantineReport()
            clip_set = load_clipset_gds(path, spec, quarantine=quarantine)
        assert quarantine.total > 0
        assert len(clip_set) + quarantine.total == len(small_benchmark.training)


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------


class TestCheckpointResume:
    def test_training_fingerprint_is_pinned(self):
        """Kernel checkpoints are keyed by this hash: a change to it
        silently discards every interrupted training run's progress."""
        from repro.geometry.rect import Rect
        from repro.layout.clip import Clip, ClipLabel, ClipSet, ClipSpec

        spec = ClipSpec()
        window = Rect(0, 0, spec.clip_side, spec.clip_side)
        training = ClipSet(spec)
        training.add(
            Clip.build(
                window,
                spec,
                [Rect(1200, 1200, 1600, 3600), Rect(2400, 1200, 2800, 3600)],
                ClipLabel.HOTSPOT,
            )
        )
        training.add(
            Clip.build(window, spec, [Rect(1200, 1200, 3600, 1600)], ClipLabel.NON_HOTSPOT)
        )
        assert training_fingerprint(training, DetectorConfig.ours()) == (
            "2c441ee9f0334548a51471e2f97bd618a4eacdaf8cbc7be713d0ff93dd7e037f"
        )
        assert training_fingerprint(training, DetectorConfig.basic()) != (
            training_fingerprint(training, DetectorConfig.ours())
        )

    def test_begin_clears_on_fingerprint_mismatch(self, tmp_path):
        keys = ["0", "1", "2", "3"]
        store = Journal(tmp_path / "ckpt")
        store.begin({"fingerprint": "aaaa"}, keys, True, decode_kernel_payload)
        store.record("1", b"junk")
        assert store.completed() == ["1"]
        loaded = store.begin(
            {"fingerprint": "bbbb"}, keys, True, decode_kernel_payload
        )
        assert loaded == {}
        assert store.completed() == []
        assert sorted(path.name for path in (tmp_path / "ckpt").iterdir()) == [
            "journal.jsonl"
        ]

    def test_corrupt_checkpoint_file_costs_one_kernel(
        self, small_benchmark, tmp_path
    ):
        kernel = train_multi_kernel(
            small_benchmark.training, DetectorConfig.basic()
        ).kernels[0]
        keys = ["0", "1", "2", "3", "4"]
        store = Journal(tmp_path / "ckpt")
        store.begin({"fingerprint": "aaaa"}, keys, True, decode_kernel_payload)
        store.record("0", encode_kernel_payload(kernel))
        store.record("1", encode_kernel_payload(kernel))  # cluster 0, not 1
        store.record("2", b"not an npz")
        store.record("3", encode_kernel_payload(kernel)[:200])  # truncated
        with (tmp_path / "ckpt" / "journal.jsonl").open("a") as handle:
            handle.write('{"key": "4", "fi')  # torn append
        loaded = store.begin(
            {"fingerprint": "aaaa"}, keys, True, decode_kernel_payload
        )
        # Each bad unit is skipped, not fatal; the good one survives intact.
        assert list(loaded) == [0]
        assert loaded[0].hotspot_count == kernel.hotspot_count
        assert np.array_equal(
            loaded[0].model.support_vectors_, kernel.model.support_vectors_
        )
        assert store.completed() == ["0"]

    def test_interrupted_fit_resumes_identically(self, small_benchmark, tmp_path):
        config = DetectorConfig.ours()
        store = Journal(tmp_path / "ckpt")
        with faults.active("train.kernel=error@2!1"):
            with pytest.raises(TransientError):
                HotspotDetector(config).fit(
                    small_benchmark.training, checkpoint=store
                )
        completed = store.completed()
        assert len(completed) >= 1

        calls = {"n": 0}
        original = Journal.record

        def counting(self, key, payload, **summary):
            calls["n"] += 1
            return original(self, key, payload, **summary)

        resumed = HotspotDetector(config)
        try:
            Journal.record = counting
            report = resumed.fit(
                small_benchmark.training, checkpoint=store, resume=True
            )
        finally:
            Journal.record = original
        fresh = HotspotDetector(config)
        fresh.fit(small_benchmark.training)
        kernels = len(fresh.model_.kernels)
        # Completed kernels were reused, and the resumed model is
        # indistinguishable from one trained in a single pass.
        assert report.resumed_kernels == len(completed)
        assert calls["n"] == kernels - len(completed)
        probe = list(small_benchmark.training)[:8]
        assert np.allclose(resumed.margins(probe), fresh.margins(probe))

    def test_resume_false_retrains_everything(self, small_benchmark, tmp_path):
        config = DetectorConfig.ours()
        store = Journal(tmp_path / "ckpt")
        detector = HotspotDetector(config)
        detector.fit(small_benchmark.training, checkpoint=store)
        kernels = len(detector.model_.kernels)
        assert len(store.completed()) == kernels
        identity = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": training_fingerprint(small_benchmark.training, config),
        }
        keys = [str(index) for index in range(kernels)]
        # The identity matches: with reuse every kernel would come back.
        assert len(store.begin(identity, keys, True, decode_kernel_payload)) == kernels
        loaded = store.begin(identity, keys, False, decode_kernel_payload)
        assert loaded == {}
        assert store.completed() == []

    def test_deadline_interrupts_training(self, small_benchmark, tmp_path):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        clock.advance(6.0)
        store = Journal(tmp_path / "ckpt")
        with pytest.raises(StageTimeout):
            HotspotDetector(DetectorConfig.ours()).fit(
                small_benchmark.training, checkpoint=store, deadline=deadline
            )


# ----------------------------------------------------------------------
# serving-path resilience
# ----------------------------------------------------------------------


class TestServeResilience:
    def test_load_signals_do_not_trip_the_circuit(self):
        from repro.errors import RequestTimeoutError, ServerClosedError
        from repro.serve.service import ServeService

        service = ServeService()
        breaker = service.breaker_for("m")
        for exc in (
            QueueFullError("full"),
            RequestTimeoutError("slow"),
            ServerClosedError("bye"),
        ):
            for _ in range(10):
                service._record_outcome(breaker, exc)
        assert breaker.state == "closed"
        for _ in range(breaker.config.failure_threshold):
            service._record_outcome(breaker, ServeError("boom"))
        assert breaker.state == "open"
        service._record_outcome(breaker, None)
        assert breaker.state == "closed"

    def test_evaluate_faults_trip_breaker_end_to_end(
        self, small_benchmark, tmp_path
    ):
        from repro.serve.service import ServeService

        detector = HotspotDetector(DetectorConfig.basic())
        detector.fit(small_benchmark.training)
        path = tmp_path / "model.npz"
        save_detector(detector, path)
        service = ServeService(
            breaker=BreakerConfig(failure_threshold=2, reset_timeout_s=60.0)
        )
        service.load_model(path)
        service.start()
        try:
            clips = small_benchmark.training.hotspots()[:2]
            with faults.active("serve.evaluate=error"):
                for _ in range(2):
                    with pytest.raises(TransientError):
                        service.predict_clips(clips)
            breaker = service.breaker_for("default")
            assert breaker.state == "open"
            with pytest.raises(CircuitOpenError) as excinfo:
                service.predict_clips(clips)
            assert excinfo.value.retry_after_s > 0
            # Cooling down + a healthy probe closes the circuit again.
            breaker._opened_at -= 61.0
            flags, margins, _ = service.predict_clips(clips)
            assert len(flags) == len(clips)
            assert breaker.state == "closed"
        finally:
            service.close()

    def test_client_retries_honour_retry_after(self):
        from repro.serve.client import ServeClient, ServeClientError

        slept = []
        responses = [
            (429, {"error": {"code": "queue_full", "message": "full"}},
             "application/json", {"Retry-After": "2"}),
            (503, {"error": {"code": "circuit_open", "message": "open"}},
             "application/json", {}),
            (200, {"ok": True}, "application/json", {}),
        ]
        client = ServeClient(
            "http://127.0.0.1:1", retries=2, sleep=slept.append
        )
        client._request = lambda *args, **kwargs: responses.pop(0)
        body, attempts = client._request_ok("POST", "/v1/predict", {})
        assert body == {"ok": True}
        assert attempts == 3
        # First sleep follows the server's Retry-After header; the second
        # falls back to the local deterministic backoff schedule.
        assert slept[0] == 2.0
        assert slept[1] == client.backoff.delay(1, label="/v1/predict")

        responses = [
            (429, {"error": {"code": "queue_full", "message": "full"}},
             "application/json", {})
        ] * 3
        client._request = lambda *args, **kwargs: responses.pop(0)
        with pytest.raises(ServeClientError) as excinfo:
            client._request_ok("POST", "/v1/predict", {})
        assert excinfo.value.status == 429

    def test_client_does_not_retry_non_idempotent(self):
        from repro.serve.client import ServeClient, ServeClientError

        calls = {"n": 0}

        def request(*args, **kwargs):
            calls["n"] += 1
            return 503, {"error": {"code": "x", "message": "y"}}, "application/json", {}

        client = ServeClient("http://127.0.0.1:1", retries=5, sleep=lambda s: None)
        client._request = request
        with pytest.raises(ServeClientError):
            client._request_ok("POST", "/v1/predict", {}, idempotent=False)
        assert calls["n"] == 1

    def test_registry_load_retries_torn_reads(self, small_benchmark, tmp_path):
        from repro.serve.registry import ModelRegistry

        detector = HotspotDetector(DetectorConfig.basic())
        detector.fit(small_benchmark.training)
        path = tmp_path / "model.npz"
        save_detector(detector, path)
        registry = ModelRegistry()
        with faults.active("registry.load=error!2") as injector:
            entry = registry.load(path)
        assert injector.fire_count == 2
        assert entry.detector.model_ is not None

    def test_error_status_mapping(self):
        from repro.serve.httpd import _error_status

        status, code, retry_after = _error_status(QueueFullError("full"))
        assert (status, code) == (429, "queue_full")
        assert retry_after is not None
        status, _, retry_after = _error_status(
            CircuitOpenError("open", retry_after_s=7.0)
        )
        assert (status, retry_after) == (503, 7.0)
        assert _error_status(InputError("bad"))[:2] == (400, "bad_geometry")


# ----------------------------------------------------------------------
# CLI end-to-end (chaos + resume)
# ----------------------------------------------------------------------


class TestCliResilience:
    @pytest.fixture(scope="class")
    def workdir(self, small_benchmark, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli")
        save_clipset_gds(small_benchmark.training, path / "clips.gds")
        save_layout_auto(small_benchmark.testing.layout, path / "layout.gds")
        return path

    def test_chaos_scan_reports_quarantine(self, workdir, monkeypatch, capsys):
        model = workdir / "model.npz"
        assert (
            cli_main(
                [
                    "train",
                    "--clips", str(workdir / "clips.gds"),
                    "--model", str(model),
                    "--variant", "basic",
                ]
            )
            == 0
        )
        monkeypatch.setenv("REPRO_FAULTS", "seed=7;extract.clip=corrupt:0.3")
        assert (
            cli_main(
                [
                    "scan",
                    "--model", str(model),
                    "--layout", str(workdir / "layout.gds"),
                    "--quarantine", str(workdir / "quarantine.json"),
                    "--manifest", str(workdir / "scan.manifest.json"),
                ]
            )
            == 0
        )
        assert faults.get() is None  # main() uninstalls the env plan
        manifest = json.loads((workdir / "scan.manifest.json").read_text())
        quarantine = json.loads((workdir / "quarantine.json").read_text())
        assert manifest["metrics"]["quarantined"] > 0
        assert quarantine["total"] == manifest["metrics"]["quarantined"]
        assert "quarantined" in capsys.readouterr().out

    @staticmethod
    def _train_killed_after_first_kernel(workdir, model):
        """Run ``repro train --variant ours`` and SIGTERM it once the
        first kernel is journaled; return the checkpoint directory."""
        script = textwrap.dedent(
            f"""
            import os, signal, sys
            sys.path.insert(0, {str(SRC_DIR)!r})
            from repro.cli import main
            from repro.resilience.checkpoint import Journal

            original = Journal.record

            def killing_record(self, key, payload, **summary):
                original(self, key, payload, **summary)
                os.kill(os.getpid(), signal.SIGTERM)

            Journal.record = killing_record
            sys.exit(main([
                "train",
                "--clips", {str(workdir / "clips.gds")!r},
                "--model", {str(model)!r},
                "--variant", "ours",
                "--no-manifest",
            ]))
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == -signal.SIGTERM, result.stderr
        checkpoint_dir = model.with_suffix(".ckpt")
        assert Journal(checkpoint_dir).completed() == ["0"]
        return checkpoint_dir

    def test_sigterm_mid_train_resumes(self, workdir):
        """A train killed by SIGTERM mid-run resumes via --resume."""
        model = workdir / "resumable.npz"
        checkpoint_dir = self._train_killed_after_first_kernel(workdir, model)

        assert (
            cli_main(
                [
                    "train",
                    "--clips", str(workdir / "clips.gds"),
                    "--model", str(model),
                    "--variant", "ours",
                    "--resume",
                    "--manifest", str(workdir / "train.manifest.json"),
                ]
            )
            == 0
        )
        manifest = json.loads((workdir / "train.manifest.json").read_text())
        assert manifest["metrics"]["resumed_kernels"] == 1
        assert model.exists()
        assert not checkpoint_dir.exists()  # cleared after success

    def test_resume_under_another_config_reports_no_resumed_kernels(
        self, workdir, capsys
    ):
        """The journaled kernel belongs to ``ours``; resuming as ``basic``
        discards it, and the CLI must not claim it was resumed."""
        model = workdir / "switched.npz"
        checkpoint_dir = self._train_killed_after_first_kernel(workdir, model)

        capsys.readouterr()
        assert (
            cli_main(
                [
                    "train",
                    "--clips", str(workdir / "clips.gds"),
                    "--model", str(model),
                    "--variant", "basic",
                    "--resume",
                    "--manifest", str(workdir / "switched.manifest.json"),
                ]
            )
            == 0
        )
        assert "resumed" not in capsys.readouterr().out
        manifest = json.loads((workdir / "switched.manifest.json").read_text())
        assert manifest["metrics"]["resumed_kernels"] == 0
        assert not checkpoint_dir.exists()

    def test_no_checkpoint_flag_leaves_no_directory(self, workdir):
        model = workdir / "plain.npz"
        assert (
            cli_main(
                [
                    "train",
                    "--clips", str(workdir / "clips.gds"),
                    "--model", str(model),
                    "--variant", "basic",
                    "--no-checkpoint",
                    "--no-manifest",
                ]
            )
            == 0
        )
        assert not model.with_suffix(".ckpt").exists()
