"""Scan parallelism — thread pool vs the supervised process pool.

Times a full-layout scan of benchmark1 on the three execution paths of
:meth:`HotspotDetector.detect`: serial, the in-process
``ThreadPoolExecutor`` margin split, and the crash-isolated
:class:`repro.work.SupervisedPool` sharded scan, across worker counts.
The shape under test: the process backend pays a fixed supervision tax
(fork + per-worker model init + shard journaling), so it must stay
within a small factor of the thread path while buying crash isolation
— and every path must report the identical hotspot set.

Runs under the bench harness (``pytest benchmarks/bench_scan_parallel.py``)
or standalone (``python benchmarks/bench_scan_parallel.py``).
"""

import time
from dataclasses import replace

from repro.core.detector import HotspotDetector
from repro.work import ScanOptions

WORKER_COUNTS = [1, 2, 4]


def _clone_with_config(detector, **overrides):
    """The same trained model behind a different execution config."""
    return HotspotDetector(
        config=replace(detector.config, **overrides),
        model_=detector.model_,
        feedback_=detector.feedback_,
    )


def _report_key(report):
    return sorted((c.core.x0, c.core.y0, c.core.x1, c.core.y1) for c in report.reports)


def run_scan_matrix(detector, layout, worker_counts=WORKER_COUNTS):
    """One result row per (backend, workers) cell; all report-identical."""
    rows = []
    serial = _clone_with_config(detector, parallel=False)
    started = time.perf_counter()
    baseline = serial.detect(layout)
    rows.append(
        {
            "backend": "serial",
            "workers": 1,
            "wall_s": round(time.perf_counter() - started, 3),
            "reports": baseline.report_count,
            "restarts": 0,
        }
    )
    reference = _report_key(baseline)

    for workers in worker_counts:
        threaded = _clone_with_config(
            detector, parallel=True, worker_count=workers
        )
        started = time.perf_counter()
        report = threaded.detect(layout)
        assert _report_key(report) == reference, "thread backend changed reports"
        rows.append(
            {
                "backend": "thread",
                "workers": workers,
                "wall_s": round(time.perf_counter() - started, 3),
                "reports": report.report_count,
                "restarts": 0,
            }
        )

    for workers in worker_counts:
        started = time.perf_counter()
        report = detector.detect(
            layout, work=ScanOptions(workers=workers, journal_dir=None)
        )
        assert _report_key(report) == reference, "process backend changed reports"
        rows.append(
            {
                "backend": "process",
                "workers": workers,
                "wall_s": round(time.perf_counter() - started, 3),
                "reports": report.report_count,
                "restarts": report.worker_restarts,
            }
        )
    return rows


def test_scan_parallel(once):
    from conftest import get_benchmark, get_detector, print_table, record_metrics

    bench = get_benchmark("benchmark1")
    detector = get_detector("benchmark1", "ours")
    rows = once(run_scan_matrix, detector, bench.testing.layout)

    print_table(
        "Scan wall time by execution backend (benchmark1)",
        ["backend", "workers", "wall_s", "reports", "restarts"],
        [[r["backend"], r["workers"], r["wall_s"], r["reports"], r["restarts"]] for r in rows],
    )

    serial_wall = rows[0]["wall_s"]
    best_thread = min(r["wall_s"] for r in rows if r["backend"] == "thread")
    best_process = min(r["wall_s"] for r in rows if r["backend"] == "process")
    record_metrics(
        __file__,
        serial_wall_s=serial_wall,
        best_thread_wall_s=best_thread,
        best_process_wall_s=best_process,
        process_overhead_x=round(best_process / max(best_thread, 1e-9), 3),
        reports=rows[0]["reports"],
    )
    assert all(r["reports"] == rows[0]["reports"] for r in rows)


if __name__ == "__main__":
    import json
    import sys

    sys.path.insert(0, "benchmarks")
    from conftest import get_benchmark, get_detector, print_table

    bench = get_benchmark("benchmark1")
    detector = get_detector("benchmark1", "ours")
    rows = run_scan_matrix(detector, bench.testing.layout)
    print_table(
        "Scan wall time by execution backend (benchmark1)",
        ["backend", "workers", "wall_s", "reports", "restarts"],
        [[r["backend"], r["workers"], r["wall_s"], r["reports"], r["restarts"]] for r in rows],
    )
    print(json.dumps(rows, indent=2))
