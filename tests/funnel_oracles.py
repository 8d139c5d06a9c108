"""Reference implementations of the clip funnel (Section III-E).

These are the versions ``repro.core.extraction`` had before it decided
the funnel in integer numpy blocks: every rect is cut to the core side
through ``cut_to_max_size`` to find the anchors, and every anchor's clip
is cut with ``Layout.cut_clip_at_core`` and then checked by
``_meets_distribution``.  ``tests/test_funnel_oracle.py`` compares the
block code with them under Hypothesis.
"""

from __future__ import annotations

from repro.core.config import ExtractionConfig
from repro.core.extraction import ExtractionReport
from repro.errors import ReproError
from repro.geometry.dissect import cut_to_max_size
from repro.geometry.rect import Rect, bounding_box, total_area
from repro.layout.clip import Clip, ClipSpec
from repro.layout.layout import Layout
from repro.resilience import faults


def _meets_distribution(clip: Clip, config: ExtractionConfig) -> tuple[bool, str]:
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
    """The lower-left corners of every rect's core-side pieces, sorted."""
    pieces = cut_to_max_size(layout.layer(layer).rects, spec.core_side)
    return sorted({(piece.x0, piece.y0) for piece in pieces})


def extract_from_anchors(
    layout: Layout,
    spec: ClipSpec,
    config: ExtractionConfig,
    layer: int,
    anchors: list[tuple[int, int]],
    quarantine=None,
) -> ExtractionReport:
    """Cut every anchor's clip, then check it."""
    report = ExtractionReport(clips=[], anchor_count=len(anchors))
    inject_per_anchor = faults.get() is not None
    for x, y in anchors:
        core = Rect(x, y, x + spec.core_side, y + spec.core_side)
        try:
            faults.inject("extract.clip", anchor=(x, y), layer=layer)
            if inject_per_anchor:
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
            report.anchors.append((x, y))
        elif reason == "density":
            report.rejected_density += 1
        elif reason == "count":
            report.rejected_count += 1
        else:
            report.rejected_boundary += 1
    return report
