"""Serving throughput — the micro-batched HTTP service under load.

Drives a real :class:`HotspotServer` (ephemeral port, in-process) with
concurrent :class:`ServeClient` callers at request batch sizes 1/16/64
and reports requests/s, clips/s, mean server-side micro-batch size and
client-observed p50/p99 latency.  The shape under test: larger request
batches amortise HTTP + queue overhead, so clips/s must grow with batch
size while the batcher keeps per-request latency bounded.

Runs under the bench harness (``pytest benchmarks/bench_serving_throughput.py``)
or standalone (``python benchmarks/bench_serving_throughput.py``), where
it emits one JSON document per row plus a summary table.
"""

import itertools
import json
import statistics
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.core.persist import save_detector
from repro.serve import (
    BatchingConfig,
    HotspotServer,
    ServeClient,
    ServeService,
    ServerConfig,
)

#: (request batch size, number of requests) per load phase.
PHASES = [(1, 120), (16, 60), (64, 30)]
CONCURRENCY = 8


def _make_batches(clips, batch_size, count):
    source = itertools.cycle(clips)
    return [[next(source) for _ in range(batch_size)] for _ in range(count)]


def _batch_stats(metrics, before):
    snapshot = metrics.snapshot()
    hist = snapshot.get("repro_serve_batch_size_clips", {"count": 0, "sum": 0.0})
    count = hist["count"] - before["count"]
    total = hist["sum"] - before["sum"]
    return hist, (total / count if count else 0.0)


def run_throughput(detector, clips, phases=PHASES, concurrency=CONCURRENCY):
    """Serve ``detector`` and load it; returns one result row per phase."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "model.npz"
        save_detector(detector, model_path, name="bench")
        service = ServeService(
            batching=BatchingConfig(
                max_batch_clips=64, max_delay_s=0.002, max_queue_clips=4096, workers=2
            )
        )
        service.load_model(model_path)
        with HotspotServer(service, ServerConfig(port=0)) as server:
            for batch_size, request_count in phases:
                batches = _make_batches(clips, batch_size, request_count)
                before, _ = _batch_stats(service.metrics, {"count": 0, "sum": 0.0})
                latencies = []

                def one_request(batch):
                    client = ServeClient(server.url, timeout=120.0)
                    started = time.perf_counter()
                    result = client.predict(batch)
                    latencies.append(time.perf_counter() - started)
                    client.close()
                    return result.hotspot_count

                wall_started = time.perf_counter()
                with ThreadPoolExecutor(concurrency) as pool:
                    flagged = sum(pool.map(one_request, batches))
                wall = time.perf_counter() - wall_started
                _, mean_batch = _batch_stats(service.metrics, before)
                ordered = sorted(latencies)
                rows.append(
                    {
                        "batch_size": batch_size,
                        "requests": request_count,
                        "clips": batch_size * request_count,
                        "flagged": flagged,
                        "wall_seconds": wall,
                        "req_per_s": request_count / wall,
                        "clips_per_s": batch_size * request_count / wall,
                        "mean_server_batch": mean_batch,
                        "p50_ms": 1000 * statistics.median(ordered),
                        "p99_ms": 1000
                        * ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))],
                    }
                )
    return rows


def _report(rows):
    from conftest import print_table

    print_table(
        "Serving throughput — micro-batched HTTP inference",
        [
            "req batch",
            "requests",
            "req/s",
            "clips/s",
            "mean srv batch",
            "p50 ms",
            "p99 ms",
        ],
        [
            (
                row["batch_size"],
                row["requests"],
                f"{row['req_per_s']:.1f}",
                f"{row['clips_per_s']:.1f}",
                f"{row['mean_server_batch']:.1f}",
                f"{row['p50_ms']:.1f}",
                f"{row['p99_ms']:.1f}",
            )
            for row in rows
        ],
    )
    print(json.dumps({"bench": "serving_throughput", "rows": rows}))


def test_serving_throughput(once):
    from conftest import get_benchmark, get_detector, record_metrics

    bench = get_benchmark("benchmark5")
    detector = get_detector("benchmark5", "ours")
    clips = list(bench.training)[:64]
    rows = once(run_throughput, detector, clips)
    _report(rows)

    # Larger request batches must move more clips per second end to end.
    assert rows[-1]["clips_per_s"] > rows[0]["clips_per_s"]
    # Every phase saw its work and nothing was dropped.
    assert all(row["requests"] > 0 and row["wall_seconds"] > 0 for row in rows)
    best = max(rows, key=lambda row: row["clips_per_s"])
    record_metrics(
        __file__,
        peak_clips_per_s=round(best["clips_per_s"], 1),
        peak_req_per_s=round(best["req_per_s"], 1),
        peak_batch_size=best["batch_size"],
        p99_ms_at_peak=round(best["p99_ms"], 1),
    )


if __name__ == "__main__":
    from repro.core.config import DetectorConfig
    from repro.core.detector import HotspotDetector
    from repro.data.benchmarks import generate_benchmark

    bench = generate_benchmark("benchmark5", scale=1.0)
    detector = HotspotDetector(DetectorConfig.ours())
    detector.fit(bench.training)
    _report(run_throughput(detector, list(bench.training)[:64]))
