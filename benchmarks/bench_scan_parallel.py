"""Scan parallelism — in-process vs the supervised process pool.

Times a full-layout scan of benchmark1 through the one scan driver of
:meth:`HotspotDetector.detect`: its shards evaluated in-process
(``workers=0``, the default) and on the crash-isolated
:class:`repro.work.SupervisedPool`, across worker counts.  The shape
under test: the pool pays a fixed supervision tax (fork + per-worker
model init + result pickling), so it must stay within a small factor of
the in-process scan while buying crash isolation — and every row must
report the identical hotspot set.

Runs under the bench harness (``pytest benchmarks/bench_scan_parallel.py``)
or standalone (``python benchmarks/bench_scan_parallel.py``).
"""

import time

from repro.work import ScanOptions

WORKER_COUNTS = [1, 2, 4]


def _report_key(report):
    return sorted((c.core.x0, c.core.y0, c.core.x1, c.core.y1) for c in report.reports)


def run_scan_matrix(detector, layout, worker_counts=WORKER_COUNTS):
    """One result row per (backend, workers) cell; all report-identical."""
    rows = []
    started = time.perf_counter()
    baseline = detector.detect(layout)
    rows.append(
        {
            "backend": baseline.backend,
            "workers": 0,
            "wall_s": round(time.perf_counter() - started, 3),
            "reports": baseline.report_count,
            "restarts": 0,
        }
    )
    reference = _report_key(baseline)

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
    best_process = min(r["wall_s"] for r in rows if r["backend"] == "process")
    record_metrics(
        __file__,
        serial_wall_s=serial_wall,
        best_process_wall_s=best_process,
        process_overhead_x=round(best_process / max(serial_wall, 1e-9), 3),
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
