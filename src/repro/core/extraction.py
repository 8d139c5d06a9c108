"""Layout clip extraction (Section III-E).

Instead of scanning every window position of a testing layout, candidate
clips are derived from the polygon geometry itself:

1. every layout polygon is horizontally sliced into rectangles,
2. rectangles wider or taller than the hotspot core side are cut down,
3. a core window is anchored at the bottom-left corner of each rectangle,
   and the surrounding clip is extracted when the polygon distribution
   inside it meets the requirements (density bounds, polygon count, and
   geometry bounding-box proximity to the clip boundary).

The window-sliding baseline of Table V lives in
:mod:`repro.baselines.window_scan`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ExtractionConfig
from repro.errors import ReproError
from repro.geometry.dissect import cut_to_max_size
from repro.geometry.rect import Rect, bounding_box, total_area
from repro.layout.clip import Clip, ClipSpec
from repro.layout.layout import Layout
from repro.resilience import faults


@dataclass
class ExtractionReport:
    """Candidate clips plus funnel statistics for diagnostics.

    The funnel counts are part of the determinism contract: the sharded
    scan journals them per shard and sums them on incremental reuse, and
    the differential harness (``tests/test_differential.py``) asserts
    they match the uncached scan exactly — so they must not depend on
    work partitioning.  :class:`repro.work.ScanResult` carries the same
    counts for a whole scan, with candidate anchors in place of clips.
    """

    clips: list[Clip]
    anchor_count: int
    rejected_density: int = 0
    rejected_count: int = 0
    rejected_boundary: int = 0
    #: Anchors whose clip could not be cut/validated; skipped, not fatal.
    quarantined: int = 0

    @property
    def candidate_count(self) -> int:
        return len(self.clips)


def _meets_distribution(
    clip: Clip, config: ExtractionConfig
) -> tuple[bool, str]:
    """Check the Section III-E polygon-distribution requirements."""
    core_rects = clip.core_rects()
    if len(core_rects) < config.min_polygon_count:
        return False, "count"
    density = total_area(core_rects) / clip.core.area
    if not config.min_core_density <= density <= config.max_core_density:
        return False, "density"
    box = bounding_box(clip.rects)
    if box is None:
        return False, "count"
    window = clip.window
    worst = max(
        box.x0 - window.x0,
        window.x1 - box.x1,
        box.y0 - window.y0,
        window.y1 - box.y1,
    )
    if worst > config.max_boundary_distance:
        return False, "boundary"
    return True, ""


def candidate_anchors(
    layout: Layout, spec: ClipSpec, layer: int = 1
) -> list[tuple[int, int]]:
    """Deduplicated, sorted candidate anchor positions of a layer.

    Rectangle cutting is per-rectangle deterministic, so bucketing these
    anchors into half-open grid cells partitions the global anchor set
    exactly — the property the sharded scan (:mod:`repro.work`) relies
    on for results that do not depend on the shard grid.
    """
    pieces = cut_to_max_size(layout.layer(layer).rects, spec.core_side)
    return sorted({(piece.x0, piece.y0) for piece in pieces})


def extract_candidate_clips(
    layout: Layout,
    spec: ClipSpec,
    config: ExtractionConfig = ExtractionConfig(),
    layer: int = 1,
    quarantine=None,
) -> ExtractionReport:
    """Extract every candidate clip of a layout layer.

    Cores are deduplicated by anchor position, so overlapping source
    rectangles do not multiply candidates.

    ``quarantine`` is an optional
    :class:`~repro.resilience.quarantine.QuarantineReport`: an anchor
    whose clip raises a :class:`~repro.errors.ReproError` is recorded
    there and skipped instead of aborting the whole extraction.
    """
    anchors = candidate_anchors(layout, spec, layer)
    return extract_from_anchors(layout, spec, config, layer, anchors, quarantine)


def extract_from_anchors(
    layout: Layout,
    spec: ClipSpec,
    config: ExtractionConfig,
    layer: int,
    anchors: list[tuple[int, int]],
    quarantine=None,
) -> ExtractionReport:
    """Cut and validate the clips of an explicit anchor list.

    Clips come back in anchor order.  Every layout scan runs this once
    per shard (:func:`repro.work.shard.evaluate_shard`).
    """
    report = ExtractionReport(clips=[], anchor_count=len(anchors))
    inject_per_anchor = faults.get() is not None
    for x, y in anchors:
        core = Rect(x, y, x + spec.core_side, y + spec.core_side)
        try:
            faults.inject("extract.clip", anchor=(x, y), layer=layer)
            if inject_per_anchor:
                # Anchor-addressed point (``extract.anchor.X_Y``): lets
                # chaos plans target one exact clip no matter which
                # worker or backend ends up processing it.
                faults.inject(f"extract.anchor.{x}_{y}", layer=layer)
            clip = layout.cut_clip_at_core(spec, core, layer)
            ok, reason = _meets_distribution(clip, config)
        except ReproError as exc:
            report.quarantined += 1
            if quarantine is not None:
                quarantine.add(
                    type(exc).__name__,
                    str(exc),
                    source="extract.clip",
                    anchor=[x, y],
                    layer=layer,
                )
            continue
        if ok:
            report.clips.append(clip)
        elif reason == "density":
            report.rejected_density += 1
        elif reason == "count":
            report.rejected_count += 1
        else:
            report.rejected_boundary += 1
    return report

