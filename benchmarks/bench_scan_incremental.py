"""repro.cache claim — warm and incremental rescans beat cold scans.

Times four passes of the same process-backend sharded scan of
benchmark1 through :meth:`HotspotDetector.detect`:

- **cold**: empty cache, fresh journal — the price of the first scan
  (plus the one-time cost of writing every cache blob);
- **warm**: same layout again with the disk cache populated but no
  journal reuse — every shard re-runs, every margin row hits;
- **incremental**: same layout again with ``incremental=True`` — every
  shard's influence-region hash matches, the pool is skipped entirely;
- **incremental-edit**: one rectangle added — only the touched shards
  re-evaluate.

The acceptance bar: warm or incremental rescans at least 3x faster than
cold.  Every pass must report the identical hotspot set (and the edit
pass the identical set to a fresh scan of the edited layout).

Runs under the bench harness (``pytest benchmarks/bench_scan_incremental.py``)
or standalone (``python benchmarks/bench_scan_incremental.py``).
"""

import shutil
import tempfile
import time
from pathlib import Path

from repro.cache import HotspotCache
from repro.geometry.rect import Rect
from repro.layout.layout import Layout
from repro.work import ScanOptions

WORKERS = 2


def _report_key(report):
    return sorted((c.core.x0, c.core.y0, c.core.x1, c.core.y1) for c in report.reports)


def _edited_copy(layout, layer=1, extra=None):
    out = Layout()
    for rect in layout.layer(layer).rects:
        out.add_rect(layer, rect)
    if extra is not None:
        out.add_rect(layer, extra)
    return out


def run_incremental_matrix(detector, layout):
    """One row per scan mode; all modes report-identical."""
    rows = []
    workdir = Path(tempfile.mkdtemp(prefix="bench-incremental-"))
    try:
        cache_dir = workdir / "cache"
        options = ScanOptions(
            workers=WORKERS,
            journal_dir=workdir / "journal",
            incremental=True,
        )
        detector.attach_cache(HotspotCache(directory=cache_dir))

        def timed(label, target, opts):
            started = time.perf_counter()
            report = detector.detect(target, work=opts)
            rows.append(
                {
                    "mode": label,
                    "wall_s": round(time.perf_counter() - started, 3),
                    "reports": report.report_count,
                    "shards_reused": report.shards_reused,
                    "shards_total": report.shards_total,
                }
            )
            return report

        cold = timed("cold", layout, options)
        reference = _report_key(cold)

        # Warm cache, no journal reuse: shards re-run but margins hit.
        warm = timed(
            "warm",
            layout,
            ScanOptions(workers=WORKERS),
        )
        assert _report_key(warm) == reference, "warm cache changed reports"

        incremental = timed("incremental", _edited_copy(layout), options)
        assert _report_key(incremental) == reference, "incremental changed reports"
        assert incremental.shards_reused == incremental.shards_total

        box = layout.bbox(1)
        edit = Rect(box.x0 + 2000, box.y0 + 2000, box.x0 + 2400, box.y0 + 2600)
        edited = _edited_copy(layout, extra=edit)
        edit_report = timed("incremental-edit", edited, options)
        assert 0 < edit_report.shards_reused < edit_report.shards_total
        fresh = detector.detect(edited)
        assert _report_key(edit_report) == _report_key(fresh), (
            "incremental edit diverged from a fresh scan"
        )
    finally:
        detector.attach_cache(None)
        shutil.rmtree(workdir, ignore_errors=True)
    return rows


def test_scan_incremental(once):
    from conftest import get_benchmark, get_detector, print_table, record_metrics

    bench = get_benchmark("benchmark1")
    detector = get_detector("benchmark1", "ours")
    rows = once(run_incremental_matrix, detector, bench.testing.layout)

    print_table(
        "Rescan wall time by cache/journal mode (benchmark1)",
        ["mode", "wall_s", "reports", "shards_reused", "shards_total"],
        [
            [r["mode"], r["wall_s"], r["reports"], r["shards_reused"], r["shards_total"]]
            for r in rows
        ],
    )

    by_mode = {r["mode"]: r for r in rows}
    cold = by_mode["cold"]["wall_s"]
    best_rescan = min(by_mode["warm"]["wall_s"], by_mode["incremental"]["wall_s"])
    speedup = round(cold / max(best_rescan, 1e-9), 3)
    record_metrics(
        __file__,
        cold_wall_s=cold,
        warm_wall_s=by_mode["warm"]["wall_s"],
        incremental_wall_s=by_mode["incremental"]["wall_s"],
        incremental_edit_wall_s=by_mode["incremental-edit"]["wall_s"],
        rescan_speedup_x=speedup,
        reports=by_mode["cold"]["reports"],
    )
    assert all(r["reports"] == rows[0]["reports"] for r in rows)
    assert speedup >= 3.0, f"rescan speedup {speedup}x below the 3x bar"


if __name__ == "__main__":
    import json
    import sys

    sys.path.insert(0, "benchmarks")
    from conftest import get_benchmark, get_detector, print_table

    bench = get_benchmark("benchmark1")
    detector = get_detector("benchmark1", "ours")
    rows = run_incremental_matrix(detector, bench.testing.layout)
    print_table(
        "Rescan wall time by cache/journal mode (benchmark1)",
        ["mode", "wall_s", "reports", "shards_reused", "shards_total"],
        [
            [r["mode"], r["wall_s"], r["reports"], r["shards_reused"], r["shards_total"]]
            for r in rows
        ],
    )
    print(json.dumps(rows, indent=2))
