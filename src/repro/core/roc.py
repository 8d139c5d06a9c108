"""Operating-curve utilities: threshold sweeps over a fitted detector.

Fig. 15's axis is the decision threshold.  :func:`sweep_thresholds`
scans the layout once and re-scores that scan through ``detect`` at each
threshold (feedback and removal included, exactly as the deployed
pipeline applies them), which makes dense sweeps cheap;
:func:`area_under_curve` gives a single-number summary for regression
tracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.detector import HotspotDetector
from repro.core.metrics import DetectionScore, score_reports
from repro.data.synth import TestingLayout
from repro.errors import NotFittedError


@dataclass(frozen=True)
class CurvePoint:
    """One operating point of the sweep."""

    threshold: float
    score: DetectionScore

    @property
    def hit_rate(self) -> float:
        return self.score.accuracy

    @property
    def extras(self) -> int:
        return self.score.extras


def sweep_thresholds(
    detector: HotspotDetector,
    testing: TestingLayout,
    thresholds: Sequence[float] = tuple(np.linspace(-0.75, 1.0, 8)),
    layer: int = 1,
) -> list[CurvePoint]:
    """Score the detector at each threshold; the layout is scanned once."""
    if detector.model_ is None:
        raise NotFittedError("sweep_thresholds needs a fitted detector")
    scan = detector.detect(testing.layout, layer).extraction
    truth = testing.hotspot_cores()
    points = []
    for threshold in thresholds:
        report = detector.detect(testing.layout, layer, threshold=threshold, scan=scan)
        score = score_reports(report.reports, truth, testing.area_um2)
        points.append(CurvePoint(float(threshold), score))
    return points


def area_under_curve(points: Sequence[CurvePoint]) -> float:
    """Trapezoidal area under hit-rate vs normalised-extras.

    Extras are normalised by the sweep's maximum so the result lands in
    [0, 1]; 1.0 means full hit rate is reached before any extras appear.
    With a single distinct extra level the curve degenerates to its mean
    hit rate.
    """
    if not points:
        return 0.0
    max_extras = max(point.extras for point in points)
    if max_extras == 0:
        return max(point.hit_rate for point in points)
    pairs = sorted(
        {(point.extras / max_extras, point.hit_rate) for point in points}
    )
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    if len(xs) == 1:
        return ys[0]
    trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy 2/1 compat
    return float(trapezoid(ys, xs) / (xs[-1] - xs[0]))


def knee_point(points: Sequence[CurvePoint], min_hit_rate: float = 0.8) -> Optional[CurvePoint]:
    """The cheapest operating point reaching ``min_hit_rate``.

    Returns the point with the fewest extras among those at or above the
    requested hit rate, or ``None`` when no point qualifies — the
    practical "acceptable hit rate" selection the paper discusses under
    Fig. 15.
    """
    qualifying = [p for p in points if p.hit_rate >= min_hit_rate]
    if not qualifying:
        return None
    return min(qualifying, key=lambda p: (p.extras, -p.threshold))
