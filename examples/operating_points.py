"""Operating points: the accuracy / false-alarm trade-off in practice.

Physical-verification teams run hotspot detection at different operating
points depending on schedule pressure: a signoff run wants every hotspot
(maximum hits, extras triaged by hand), an ECO loop wants a short, highly
trusted list.  This example trains one detector and sweeps its decision
threshold (the Fig. 15 axis), printing the trade-off curve and the three
named operating points from Table II.

Run:  python examples/operating_points.py
"""

from repro import DetectorConfig, HotspotDetector, generate_benchmark, sweep_thresholds


def main() -> None:
    bench = generate_benchmark("benchmark3", scale=0.5)
    detector = HotspotDetector(DetectorConfig.ours())
    detector.fit(bench.training)

    # One scan of the layout; each threshold re-scores it.
    thresholds = (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0)
    print(f"{'threshold':>10} {'hits':>6} {'extras':>7} {'hit rate':>9} {'hit/extra':>10}")
    for point in sweep_thresholds(detector, bench.testing, thresholds):
        score = point.score
        ratio = score.hit_extra_ratio
        ratio_text = "inf" if ratio == float("inf") else f"{ratio:.3f}"
        print(
            f"{point.threshold:>+10.2f} {score.hits:>6} {score.extras:>7} "
            f"{score.accuracy:>8.1%} {ratio_text:>10}"
        )

    print("\nNamed operating points (Table II):")
    for label, config in (
        ("ours", DetectorConfig.ours()),
        ("ours_med", DetectorConfig.ours_med()),
        ("ours_low", DetectorConfig.ours_low()),
    ):
        result = detector.score(bench.testing, threshold=config.decision_threshold)
        score = result.score
        print(
            f"  {label:9s} thr={config.decision_threshold:+.2f}: "
            f"{score.hits}/{score.actual_hotspots} hits, {score.extras} extras "
            f"({score.accuracy:.1%})"
        )


if __name__ == "__main__":
    main()
