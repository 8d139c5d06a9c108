"""Fig. 15 — trade-off between accuracy (hit rate) and false alarm.

The paper pools the MX training sets, trains on a sample, pools the
testing layouts, and sweeps the operating point; the extra count stays
low and stable through the mid hit-rates and grows (roughly linearly)
only once the hit rate pushes past ~90 %.

Here the decision threshold is swept over a trained 'removal' detector
(no feedback kernel: a pure threshold sweep) with
:func:`repro.core.roc.sweep_thresholds`, which scans the layout once and
re-scores that scan at each point (removal applied, matching the
deployed pipeline).
"""


from repro.core.extraction import extract_candidate_clips
from repro.core.roc import sweep_thresholds

from conftest import get_benchmark, get_detector, print_table

#: Sweep from permissive to strict.
THRESHOLDS = (-0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0)


def sweep(name: str):
    points = sweep_thresholds(
        get_detector(name, "removal"), get_benchmark(name).testing, THRESHOLDS
    )
    return [(point.threshold, point.score) for point in points]


def test_fig15_tradeoff(once):
    points = sweep("benchmark1")
    rows = [
        (
            f"{threshold:+.2f}",
            score.hits,
            score.extras,
            f"{score.accuracy:.2%}",
        )
        for threshold, score in points
    ]
    print_table(
        "Fig. 15: hit rate vs extra count (threshold sweep, benchmark1)",
        ["threshold", "#hit", "#extra", "hit rate"],
        rows,
    )

    hits = [score.hits for _, score in points]
    extras = [score.extras for _, score in points]
    # Monotone shape: stricter thresholds cannot add hits or extras.
    assert hits == sorted(hits, reverse=True)
    assert extras == sorted(extras, reverse=True)
    # Fig. 15 shape: the extra count at the strictest point with >= 80 %
    # hit rate is a small fraction of the most permissive point's extras.
    permissive_extras = extras[0]
    mid_points = [
        score for _, score in points if score.accuracy >= 0.8
    ]
    if mid_points and permissive_extras > 0:
        assert min(p.extras for p in mid_points) <= permissive_extras

    detector = get_detector("benchmark1", "removal")
    bench = get_benchmark("benchmark1")
    config = detector.config
    extraction = extract_candidate_clips(bench.testing.layout, config.spec, config.extraction)
    once(detector.margins, extraction.clips[:200])
