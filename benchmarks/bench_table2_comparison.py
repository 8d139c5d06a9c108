"""Table II — comparison with the contest winners.

The 2012 CAD contest winners are closed binaries, so the comparison runs
against behavioural stand-ins built on the same substrate (DESIGN.md):

- ``1st_place(PM)``  — the fuzzy pattern matcher (the actual first-place
  entry was the authors' pattern-matching engine);
- ``single_SVM``     — a plain one-kernel SVM (the classic ML entry);
- ``ours`` / ``ours_med`` / ``ours_low`` — the framework's Table II
  operating points, scanned in-process (the paper's ``ours_nopara``);
- ``ours_para``      — the fitted ``ours`` detector scanned again with
  its shards on two worker processes (§III-G).

The shape under test (paper Table II): ours matches or beats the pattern
matcher on accuracy with far fewer extras; ours_med / ours_low trade hits
for hit/extra ratio; the parallel scan reports exactly the serial hits
and extras (asserted).
"""

import time

from repro.baselines.pattern_match import PatternMatcher
from repro.core.metrics import score_reports
from repro.work import ScanOptions

from conftest import get_benchmark, get_detector, print_table, record_metrics

BENCH_NAMES = ("benchmark1", "benchmark4", "benchmark5")


def _fmt_ratio(score):
    ratio = score.hit_extra_ratio
    return "inf" if ratio == float("inf") else f"{ratio:.3f}"


def run_comparison():
    rows = []
    shape_checks = []
    for name in BENCH_NAMES:
        bench = get_benchmark(name)

        matcher = PatternMatcher()
        started = time.perf_counter()
        matcher.fit(bench.training)
        pm_report = matcher.score(bench.testing)
        pm_seconds = time.perf_counter() - started
        rows.append(
            (
                name,
                "1st_place(PM)",
                pm_report.score.hits,
                pm_report.score.extras,
                f"{pm_report.score.accuracy:.2%}",
                _fmt_ratio(pm_report.score),
                f"{pm_seconds:.1f}s",
            )
        )

        for variant in ("basic", "ours", "ours_med", "ours_low"):
            label = {"basic": "single_SVM"}.get(variant, variant)
            started = time.perf_counter()
            detector = get_detector(name, variant)
            result = detector.score(bench.testing)
            seconds = time.perf_counter() - started
            rows.append(
                (
                    name,
                    label,
                    result.score.hits,
                    result.score.extras,
                    f"{result.score.accuracy:.2%}",
                    _fmt_ratio(result.score),
                    f"{seconds:.1f}s",
                )
            )
            if variant == "ours":
                shape_checks.append((name, pm_report.score, result.score))
                ours, ours_score = detector, result.score

        # §III-G: the same fitted detector, its shards on two processes.
        started = time.perf_counter()
        sharded = ours.detect(bench.testing.layout, work=ScanOptions(workers=2))
        score = score_reports(
            sharded.reports, bench.testing.hotspot_cores(), bench.testing.area_um2
        )
        seconds = time.perf_counter() - started
        assert (score.hits, score.extras) == (ours_score.hits, ours_score.extras), name
        rows.append(
            (
                name,
                "ours_para",
                score.hits,
                score.extras,
                f"{score.accuracy:.2%}",
                _fmt_ratio(score),
                f"{seconds:.1f}s (eval)",
            )
        )
    return rows, shape_checks


def test_table2_comparison(once):
    rows, shape_checks = run_comparison()
    print_table(
        "Table II: comparison with contest-winner stand-ins",
        ["benchmark", "method", "#hit", "#extra", "accuracy", "hit/extra", "runtime"],
        rows,
    )
    # Shape assertions, aggregated over the benchmark set (individual
    # benchmarks can favour PM — e.g. the tiny-training benchmark5, where
    # memorisation shines — but the overall objective must favour ours,
    # as the paper's Table II summary claims).
    def mean(values):
        values = list(values)
        return sum(values) / len(values)

    pm_ratio = mean(
        min(score.hit_extra_ratio, 100.0) for _, score, _ in shape_checks
    )
    ours_ratio = mean(
        min(score.hit_extra_ratio, 100.0) for _, _, score in shape_checks
    )
    assert ours_ratio >= pm_ratio, (ours_ratio, pm_ratio)
    close_or_better = sum(
        1
        for _, pm_score, ours_score in shape_checks
        if ours_score.accuracy >= pm_score.accuracy - 0.10
    )
    assert close_or_better * 2 >= len(shape_checks), shape_checks
    record_metrics(
        __file__,
        pm_hit_extra_ratio=round(pm_ratio, 3),
        ours_hit_extra_ratio=round(ours_ratio, 3),
        ours_mean_accuracy=round(
            mean(score.accuracy for _, _, score in shape_checks), 4
        ),
        benchmarks=len(shape_checks),
    )

    bench = get_benchmark("benchmark5")
    detector = get_detector("benchmark5", "ours")
    once(detector.score, bench.testing)
