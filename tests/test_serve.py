"""Tests for the batched, observable inference service (repro.serve)."""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.persist import save_detector
from repro.errors import (
    ModelNotFoundError,
    QueueFullError,
    RequestTimeoutError,
    ServerClosedError,
)
from repro.serve import (
    BatchingConfig,
    HotspotServer,
    MetricsRegistry,
    MicroBatcher,
    ModelRegistry,
    ServeClient,
    ServeClientError,
    ServeService,
    ServerConfig,
)


# ======================================================================
# metrics
# ======================================================================


class TestMetrics:
    def test_counter_and_labels_render(self):
        metrics = MetricsRegistry()
        requests = metrics.counter("requests_total", "Requests.", labels=("endpoint",))
        requests.labels("/v1/predict").inc()
        requests.labels("/v1/predict").inc()
        requests.labels("/healthz").inc()
        text = metrics.render()
        assert '# TYPE repro_requests_total counter' in text
        assert 'repro_requests_total{endpoint="/v1/predict"} 2' in text
        assert 'repro_requests_total{endpoint="/healthz"} 1' in text

    def test_count_sums_by_label_prefix_and_creates_no_child(self):
        metrics = MetricsRegistry()
        requests = metrics.counter(
            "requests_total", "Requests.", labels=("endpoint", "status")
        )
        requests.labels("/v1/predict", "200").inc(2)
        requests.labels("/v1/predict", "500").inc()
        requests.labels("/healthz", "200").inc()
        text = metrics.render()
        assert requests.count() == 4
        assert requests.count("/v1/predict") == 3
        assert requests.count("/v1/predict", "500") == 1
        assert requests.count("/v1/scan") == 0
        assert metrics.render() == text

    def test_histogram_buckets_cumulative(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("latency_seconds", buckets=(0.01, 0.1, 1.0)).labels()
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        text = metrics.render()
        assert 'repro_latency_seconds_bucket{le="0.01"} 1' in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_latency_seconds_bucket{le="1"} 3' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 4' in text
        assert 'repro_latency_seconds_count 4' in text

    def test_quantiles(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("q").labels()
        for value in range(1, 101):
            hist.observe(value / 100.0)
        assert hist.quantile(0.5) == pytest.approx(0.5, abs=0.02)
        assert hist.quantile(0.99) == pytest.approx(0.99, abs=0.02)

    def test_duck_typed_sink_interface(self):
        metrics = MetricsRegistry()
        metrics.observe("detector_fit_seconds", 1.25)
        metrics.increment("things_total")
        snapshot = metrics.snapshot()
        assert snapshot["repro_detector_fit_seconds"]["count"] == 1
        assert snapshot["repro_things_total"] == 1

    def test_counters_reject_decrease(self):
        metrics = MetricsRegistry()
        with pytest.raises(ValueError):
            metrics.counter("c").labels().inc(-1)

    def test_stats_empty_histogram_has_none_quantiles(self):
        hist = MetricsRegistry().histogram("empty").labels()
        stats = hist.stats()
        assert stats["count"] == 0
        assert stats["sum"] == 0.0
        assert stats["p50"] is None and stats["p99"] is None

    def test_stats_single_sample_every_quantile(self):
        hist = MetricsRegistry().histogram("one").labels()
        hist.observe(0.123)
        stats = hist.stats((0.0, 0.5, 0.99, 1.0))
        assert stats["count"] == 1
        for key in ("p0", "p50", "p99", "p100"):
            assert stats[key] == pytest.approx(0.123)

    def test_stats_rejects_out_of_range_quantile(self):
        hist = MetricsRegistry().histogram("bad").labels()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.stats((1.5,))

    def test_snapshot_empty_histogram_keys_stable(self):
        metrics = MetricsRegistry()
        metrics.histogram("h").labels()
        entry = metrics.snapshot()["repro_h"]
        assert entry["count"] == 0
        assert entry["p50"] is None and entry["p99"] is None

    def test_concurrent_observations_stay_consistent(self):
        hist = MetricsRegistry().histogram("hammer").labels()
        counter = MetricsRegistry().counter("hits").labels()

        def work():
            for _ in range(1000):
                hist.observe(0.001)
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = hist.stats()
        assert stats["count"] == 8000
        assert stats["sum"] == pytest.approx(8.0)
        assert counter.value == 8000


# ======================================================================
# micro-batching engine (no model needed)
# ======================================================================


def _echo_evaluate(group, requests):
    """Default batch function: each item maps to (group, item)."""
    return [[(group, item) for item in items] for items, _context in requests]


class TestMicroBatcher:
    def test_flushes_on_batch_size(self):
        batches = []

        def evaluate(group, requests):
            batches.append(sum(len(items) for items, _ in requests))
            return [[0] * len(items) for items, _ in requests]

        batcher = MicroBatcher(
            evaluate,
            BatchingConfig(max_batch_clips=4, max_delay_s=5.0, workers=1),
        ).start()
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [
                    pool.submit(batcher.submit, "m", [i], timeout=10.0)
                    for i in range(4)
                ]
                started = time.monotonic()
                for future in futures:
                    future.result(timeout=5.0)
                elapsed = time.monotonic() - started
            # Flushed by size, far before the 5 s window expired.
            assert elapsed < 2.0
            assert max(batches) == 4
        finally:
            batcher.close()

    def test_flushes_on_deadline(self):
        batcher = MicroBatcher(
            _echo_evaluate,
            BatchingConfig(max_batch_clips=100, max_delay_s=0.02, workers=1),
        ).start()
        try:
            started = time.monotonic()
            result = batcher.submit("m", ["only"], timeout=5.0)
            elapsed = time.monotonic() - started
            assert result == [("m", "only")]
            # One lone clip must not wait for 99 batch-mates.
            assert elapsed < 1.0
        finally:
            batcher.close()

    def test_backpressure_queue_full(self):
        release = threading.Event()
        entered = threading.Event()

        def evaluate(group, requests):
            entered.set()
            release.wait(10.0)
            return [[0] * len(items) for items, _ in requests]

        batcher = MicroBatcher(
            evaluate,
            BatchingConfig(
                max_batch_clips=8, max_delay_s=0.0, max_queue_clips=8, workers=1
            ),
        ).start()
        try:
            pool = ThreadPoolExecutor(2)
            blocked = pool.submit(batcher.submit, "m", [1], timeout=10.0)
            assert entered.wait(5.0)  # worker is busy inside evaluate
            queued = pool.submit(batcher.submit, "m", list(range(8)), timeout=10.0)
            deadline = time.monotonic() + 5.0
            while batcher.queue_depth() < 8 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert batcher.queue_depth() == 8
            with pytest.raises(QueueFullError) as excinfo:
                batcher.submit("m", [99])
            assert "queue full" in str(excinfo.value)
            release.set()
            blocked.result(5.0)
            queued.result(5.0)
            pool.shutdown()
        finally:
            release.set()
            batcher.close()

    def test_request_timeout(self):
        release = threading.Event()

        def evaluate(group, requests):
            release.wait(10.0)
            return [[0] * len(items) for items, _ in requests]

        batcher = MicroBatcher(
            evaluate, BatchingConfig(max_delay_s=0.0, workers=1)
        ).start()
        try:
            with ThreadPoolExecutor(1) as pool:
                blocked = pool.submit(batcher.submit, "m", [1], timeout=10.0)
                time.sleep(0.05)  # let the worker pick it up
                with pytest.raises(RequestTimeoutError):
                    batcher.submit("m", [2], timeout=0.1)
                release.set()
                blocked.result(5.0)
        finally:
            release.set()
            batcher.close()

    def test_graceful_close_drains_queue(self):
        evaluated = []

        def evaluate(group, requests):
            time.sleep(0.01)
            evaluated.append(sum(len(items) for items, _ in requests))
            return [[0] * len(items) for items, _ in requests]

        batcher = MicroBatcher(
            evaluate,
            BatchingConfig(max_batch_clips=2, max_delay_s=0.5, workers=1),
        ).start()
        pool = ThreadPoolExecutor(6)
        futures = [pool.submit(batcher.submit, "m", [i], timeout=10.0) for i in range(6)]
        time.sleep(0.02)
        batcher.close(drain=True)
        for future in futures:
            future.result(timeout=5.0)  # every request completed, none dropped
        assert sum(evaluated) == 6
        with pytest.raises(ServerClosedError):
            batcher.submit("m", [7])
        pool.shutdown()

    def test_groups_never_mix(self):
        seen_groups = []

        def evaluate(group, requests):
            seen_groups.append((group, sum(len(i) for i, _ in requests)))
            return [[group] * len(items) for items, _ in requests]

        batcher = MicroBatcher(
            evaluate,
            BatchingConfig(max_batch_clips=16, max_delay_s=0.05, workers=1),
        ).start()
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [
                    pool.submit(batcher.submit, name, [1, 2], timeout=10.0)
                    for name in ("a", "b", "a", "b")
                ]
                results = [f.result(5.0) for f in futures]
            assert results[0] == ["a", "a"] and results[1] == ["b", "b"]
            # Every evaluated batch holds exactly one group.
            assert all(group in ("a", "b") for group, _ in seen_groups)
        finally:
            batcher.close()

    def test_evaluate_error_propagates_to_submitter(self):
        def evaluate(group, requests):
            raise RuntimeError("kaboom")

        batcher = MicroBatcher(
            evaluate, BatchingConfig(max_delay_s=0.0, workers=1)
        ).start()
        try:
            with pytest.raises(RuntimeError, match="kaboom"):
                batcher.submit("m", [1], timeout=5.0)
        finally:
            batcher.close()


# ======================================================================
# model registry
# ======================================================================


@pytest.fixture(scope="module")
def trained(small_benchmark):
    detector = HotspotDetector(DetectorConfig.ours())
    detector.fit(small_benchmark.training)
    return detector


@pytest.fixture(scope="module")
def model_file(trained, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "model.npz"
    save_detector(trained, path, name="test-model")
    return path


class TestModelRegistry:
    def test_empty_registry_raises(self):
        registry = ModelRegistry()
        with pytest.raises(ModelNotFoundError):
            registry.get()

    def test_load_and_default_lookup(self, model_file):
        registry = ModelRegistry()
        entry = registry.load(model_file)
        assert entry.name == "default"
        assert registry.get() is entry
        assert registry.get("default") is entry
        with pytest.raises(ModelNotFoundError):
            registry.get("nope")

    def test_multiple_versions_side_by_side(self, trained, model_file, tmp_path):
        other = tmp_path / "other.npz"
        save_detector(trained, other)
        registry = ModelRegistry()
        registry.load(model_file, "v1")
        registry.load(other, "v2")
        assert registry.names() == ["v1", "v2"]
        assert registry.get("v1").path == model_file
        assert registry.get("v2").path == other

    def test_hot_reload_on_file_change(self, trained, small_benchmark, tmp_path):
        path = tmp_path / "hot.npz"
        save_detector(trained, path)
        registry = ModelRegistry(poll_interval=0.0)
        first = registry.load(path, "m")
        assert registry.get("m") is first  # unchanged file -> same entry

        # Deploy a new version by overwriting the archive.
        retuned = HotspotDetector(trained.config.at_threshold(0.42))
        retuned.model_ = trained.model_
        retuned.feedback_ = trained.feedback_
        save_detector(retuned, path)
        import os

        os.utime(path, (time.time() + 5, time.time() + 5))

        second = registry.get("m")
        assert second is not first
        assert second.reloads == first.reloads + 1
        assert second.detector.config.decision_threshold == pytest.approx(0.42)
        probe = small_benchmark.training.hotspots()[:3]
        assert np.allclose(
            first.detector.margins(probe), second.detector.margins(probe)
        )

    def test_registry_metadata_surfaced(self, model_file):
        registry = ModelRegistry()
        registry.load(model_file, "meta")
        (description,) = registry.describe()
        assert description["name"] == "meta"
        assert description["kernels"] >= 1
        assert description["registry"]["name"] == "test-model"
        assert description["spec"]["clip_side"] == 4800


# ======================================================================
# HTTP server + client (ephemeral port)
# ======================================================================


@pytest.fixture(scope="module")
def server(model_file):
    service = ServeService(
        batching=BatchingConfig(max_delay_s=0.002, max_batch_clips=64, workers=2)
    )
    service.load_model(model_file)
    with HotspotServer(service, ServerConfig(host="127.0.0.1", port=0)) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.url)


class TestHttpApi:
    def test_healthz_ok(self, client):
        document = client.healthz()
        assert document["status"] == "ok"
        assert document["models"] == ["default"]

    def test_healthz_unhealthy_without_model(self):
        with HotspotServer(ServeService(), ServerConfig(port=0)) as empty:
            probe = ServeClient(empty.url)
            status, document = probe.health_document()
            assert status == 503
            assert document["status"] == "unavailable"
            with pytest.raises(ServeClientError):
                probe.healthz()

    def test_predict_matches_detector(self, client, trained, small_benchmark):
        clips = (
            small_benchmark.training.hotspots()[:8]
            + small_benchmark.training.non_hotspots()[:8]
        )
        result = client.predict(clips)
        assert np.array_equal(result.flags, trained.predict_clips(clips))
        assert np.allclose(result.margins, trained.margins(clips))

    def test_predict_custom_threshold(self, client, trained, small_benchmark):
        clips = small_benchmark.training.hotspots()[:6]
        result = client.predict(clips, threshold=0.5)
        assert result.threshold == pytest.approx(0.5)
        assert np.array_equal(result.flags, trained.predict_clips(clips, 0.5))

    def test_concurrent_requests_batched_correctly(
        self, client, server, trained, small_benchmark
    ):
        clips = small_benchmark.training.hotspots()[:4]
        expected = trained.predict_clips(clips)

        def one_call(_):
            return ServeClient(server.url).predict(clips).flags

        with ThreadPoolExecutor(8) as pool:
            for flags in pool.map(one_call, range(16)):
                assert np.array_equal(flags, expected)

    def test_scan_full_layout(self, client, trained, small_benchmark):
        rects = small_benchmark.testing.layout.layer(1).rects
        response = client.scan(rects, layer=1)
        reference = trained.detect(small_benchmark.testing.layout)
        assert response["candidates"] == reference.extraction.candidate_count
        assert response["count"] == reference.report_count
        reported = {tuple(item["core"]) for item in response["reports"]}
        expected = {
            (c.core.x0, c.core.y0, c.core.x1, c.core.y1) for c in reference.reports
        }
        assert reported == expected

    def test_scan_threshold_at_or_below_gated_out_is_400(
        self, client, small_benchmark
    ):
        rects = small_benchmark.testing.layout.layer(1).rects[:20]
        with pytest.raises(ServeClientError) as excinfo:
            client.scan(rects, layer=1, threshold=-1e9)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

    def test_models_endpoint(self, client):
        document = client.models()
        (model,) = document["models"]
        assert model["name"] == "default"
        assert model["kernels"] >= 1

    def test_metrics_exposition(self, client):
        client.healthz()
        text = client.metrics_text()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert 'repro_serve_requests_total{endpoint="/healthz",status="200"}' in text
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert "repro_serve_request_seconds_bucket" in text
        assert "repro_serve_batch_size_clips_bucket" in text
        assert "repro_serve_model_loaded_timestamp_seconds" in text

    def test_malformed_payload_structured_400(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.predict_payload({"clips": "not-a-list"})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

    def test_wrong_window_size_rejected(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.predict_payload(
                {"clips": [{"window": [0, 0, 100, 100], "rects": []}]}
            )
        assert excinfo.value.status == 400

    def test_unknown_model_404(self, client, small_benchmark):
        clips = small_benchmark.training.hotspots()[:1]
        with pytest.raises(ServeClientError) as excinfo:
            client.predict(clips, model="missing")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "model_not_found"

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeClientError):
            client._request_ok("GET", "/nope")


class TestRequestId:
    def test_client_id_echoed_in_envelope(self, client, small_benchmark):
        clips = small_benchmark.training.hotspots()[:2]
        result = client.predict(clips, request_id="req-abc-123")
        assert result.request_id == "req-abc-123"

    def test_id_generated_when_absent(self, client, small_benchmark):
        clips = small_benchmark.training.hotspots()[:2]
        first = client.predict(clips)
        second = client.predict(clips)
        assert first.request_id and second.request_id
        assert first.request_id != second.request_id

    def test_header_echoed_on_response(self, server, small_benchmark):
        import http.client

        clips = small_benchmark.training.hotspots()[:1]
        from repro.serve.protocol import encode_clip

        body = json.dumps({"clips": [encode_clip(clip) for clip in clips]})
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/predict",
                body=body,
                headers={
                    "Content-Type": "application/json",
                    "X-Request-Id": "hdr-42",
                },
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert response.headers.get("X-Request-Id") == "hdr-42"
            assert payload["request_id"] == "hdr-42"
        finally:
            conn.close()

    def test_error_envelope_carries_id(self, client):
        status, decoded, _, _ = client._request(
            "POST",
            "/v1/predict",
            {"clips": "not-a-list"},
            request_id="err-7",
        )
        assert status == 400
        assert decoded["request_id"] == "err-7"
        assert decoded["error"]["code"] == "bad_request"

    def test_scan_envelope_carries_id(self, client, small_benchmark):
        rects = list(small_benchmark.testing.layout.layer(1).rects)[:50]
        response, _ = client._request_ok(
            "POST",
            "/v1/scan",
            {
                "rects": [[r.x0, r.y0, r.x1, r.y1] for r in rects],
                "layer": 1,
            },
            request_id="scan-9",
        )
        assert response["request_id"] == "scan-9"


class TestBackpressureAndShutdown:
    def _blocked_server(self, model_file, **batching):
        """A server whose evaluation is gated on an Event we control.

        ``entered`` fires once a worker is inside the gated evaluate,
        so tests can build a known queue state deterministically.
        """
        service = ServeService(batching=BatchingConfig(**batching))
        service.load_model(model_file)
        release = threading.Event()
        entered = threading.Event()
        inner = service.batcher.evaluate

        def gated(group, requests):
            entered.set()
            release.wait(15.0)
            return inner(group, requests)

        service.batcher.evaluate = gated
        server = HotspotServer(service, ServerConfig(port=0)).start()
        return server, release, entered

    def test_full_queue_yields_429(self, model_file, small_benchmark):
        server, release, entered = self._blocked_server(
            model_file,
            max_batch_clips=4,
            max_delay_s=0.0,
            max_queue_clips=4,
            workers=1,
        )
        try:
            clips = small_benchmark.training.hotspots()[:4]
            pool = ThreadPoolExecutor(4)
            # First request: wait for the (only) worker to pick it up and
            # block inside evaluate — the queue is empty again afterwards.
            first = pool.submit(
                ServeClient(server.url, timeout=30.0).predict, clips
            )
            assert entered.wait(10.0), "worker never picked up the batch"
            # Second request: fills the queue to its 4-clip limit while the
            # worker stays occupied, so the state below is stable.
            second = pool.submit(
                ServeClient(server.url, timeout=30.0).predict, clips
            )
            deadline = time.monotonic() + 10.0
            while (
                server.service.batcher.queue_depth() < 4
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert server.service.batcher.queue_depth() == 4
            # retries=0: the queue stays full while the worker is blocked,
            # so retrying would only sleep through Retry-After and re-fail.
            with pytest.raises(ServeClientError) as excinfo:
                ServeClient(server.url, retries=0).predict(clips)
            assert excinfo.value.status == 429
            assert excinfo.value.code == "queue_full"
            release.set()
            for future in (first, second):
                future.result(timeout=15.0)
            pool.shutdown()
        finally:
            release.set()
            server.stop()

    def test_queue_full_429_carries_retry_after_on_the_wire(
        self, model_file, small_benchmark
    ):
        from repro.serve.protocol import encode_clip

        # A request larger than the whole queue is refused at admission.
        service = ServeService(
            batching=BatchingConfig(max_batch_clips=1, max_queue_clips=1)
        )
        service.load_model(model_file)
        clips = small_benchmark.training.hotspots()[:2]
        with HotspotServer(service, ServerConfig(port=0)) as server:
            status, decoded, _, headers = ServeClient(server.url)._request(
                "POST",
                "/v1/predict",
                {"clips": [encode_clip(clip) for clip in clips]},
            )
        assert status == 429
        assert decoded["error"]["code"] == "queue_full"
        assert headers["Retry-After"] == "1"

    def test_request_timeout_yields_504(self, model_file, small_benchmark):
        server, release, _entered = self._blocked_server(
            model_file, max_delay_s=0.0, workers=1, default_timeout_s=0.15
        )
        try:
            clips = small_benchmark.training.hotspots()[:2]
            with pytest.raises(ServeClientError) as excinfo:
                ServeClient(server.url, timeout=30.0).predict(clips)
            assert excinfo.value.status == 504
            assert excinfo.value.code == "timeout"
        finally:
            release.set()
            server.stop()

    def test_graceful_shutdown_drains_in_flight(
        self, model_file, trained, small_benchmark
    ):
        server, release, entered = self._blocked_server(
            model_file, max_batch_clips=4, max_delay_s=0.01, workers=1
        )
        clips = small_benchmark.training.hotspots()[:3]
        expected = trained.predict_clips(clips)
        pool = ThreadPoolExecutor(3)
        in_flight = [
            pool.submit(ServeClient(server.url, timeout=30.0).predict, clips)
            for _ in range(3)
        ]
        # Only stop once all three requests are demonstrably in flight:
        # the single worker blocked on one 3-clip batch, the other two
        # requests (6 clips) waiting in the queue.
        assert entered.wait(10.0), "worker never picked up a batch"
        deadline = time.monotonic() + 10.0
        while (
            server.service.batcher.queue_depth() < 6
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert server.service.batcher.queue_depth() == 6

        stopper = threading.Thread(target=server.stop)
        release.set()
        stopper.start()
        # Every request that was in flight at shutdown still gets its answer.
        for future in in_flight:
            assert np.array_equal(future.result(timeout=15.0).flags, expected)
        stopper.join(timeout=15.0)
        assert not stopper.is_alive()
        pool.shutdown()
        # And the batcher now refuses new work.
        with pytest.raises(ServerClosedError):
            server.service.batcher.submit("default", clips)


# ======================================================================
# CLI integration: `repro serve` / `repro client`
# ======================================================================


class TestCliServe:
    def test_serve_process_sigterm_drains(self, model_file, small_benchmark):
        """`repro serve --model model.npz` serves predictions and exits
        cleanly on SIGTERM."""
        import os
        import signal
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        repo_src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro",
                "serve",
                "--model",
                str(model_file),
                "--port",
                "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            url = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if "serving on " in line:
                    url = line.split("serving on ", 1)[1].split()[0]
                    break
            assert url, "server never reported its URL"
            client = ServeClient(url, timeout=30.0)
            assert client.healthz()["status"] == "ok"
            clips = small_benchmark.training.hotspots()[:3]
            result = client.predict(clips)
            assert len(result.flags) == 3
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()

    def test_client_subcommand(self, server, small_benchmark, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.layout.io import save_clipset_gds

        assert cli_main(["client", "--url", server.url, "health"]) == 0
        assert cli_main(["client", "--url", server.url, "models"]) == 0
        assert cli_main(["client", "--url", server.url, "metrics"]) == 0
        capsys.readouterr()

        clips_path = tmp_path / "clips.gds"
        save_clipset_gds(small_benchmark.training, clips_path)
        assert (
            cli_main(
                [
                    "client",
                    "--url",
                    server.url,
                    "predict",
                    "--clips",
                    str(clips_path),
                    "--limit",
                    "4",
                    "--json",
                ]
            )
            == 0
        )
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["clips"] == 4
        assert len(payload["flags"]) == 4


# ======================================================================
# service-level (no sockets)
# ======================================================================


class TestServeService:
    def test_service_keeps_the_registry_it_is_given(self):
        # An empty registry is falsy (it has a length); it must still be
        # the one the service serves from.
        registry = ModelRegistry()
        service = ServeService(registry=registry)
        try:
            assert service.registry is registry
        finally:
            service.close()

    def test_predict_clips_inprocess(self, model_file, trained, small_benchmark):
        service = ServeService(batching=BatchingConfig(max_delay_s=0.0))
        service.load_model(model_file)
        service.start()
        try:
            clips = small_benchmark.training.hotspots()[:5]
            flags, margins, threshold = service.predict_clips(clips)
            assert np.array_equal(flags, trained.predict_clips(clips))
            assert np.allclose(margins, trained.margins(clips))
            assert threshold == trained.config.decision_threshold
        finally:
            service.close()

    def test_detector_feeds_metrics_through_registry(
        self, model_file, small_benchmark
    ):
        service = ServeService()
        entry = service.load_model(model_file)
        entry.detector.detect(small_benchmark.testing.layout)
        snapshot = service.metrics.snapshot()
        assert snapshot["repro_detector_detect_seconds"]["count"] == 1
