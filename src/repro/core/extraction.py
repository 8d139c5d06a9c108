"""Layout clip extraction (Section III-E).

Instead of scanning every window position of a testing layout, candidate
clips are derived from the polygon geometry itself:

1. every layout polygon is horizontally sliced into rectangles,
2. rectangles wider or taller than the hotspot core side are cut down,
3. a core window is anchored at the bottom-left corner of each rectangle,
   and the surrounding clip is extracted when the polygon distribution
   inside it meets the requirements (density bounds, polygon count, and
   geometry bounding-box proximity to the clip boundary).

Steps 2 and 3 are integer arithmetic on the layer's rect coordinates
(:meth:`~repro.layout.spatial.RectIndex.coords`): the anchors are the
lattice of core-side steps from each rect's lower-left corner, and the
requirements are decided for :data:`BLOCK` anchors at a time, so only
the clips that pass are built.

The window-sliding baseline of Table V lives in
:mod:`repro.baselines.window_scan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import ExtractionConfig
from repro.errors import ReproError
from repro.geometry.rect import Rect
from repro.layout.clip import Clip, ClipLabel, ClipSpec
from repro.layout.layout import Layout
from repro.layout.spatial import rect_coords
from repro.resilience import faults

#: Anchors decided together.  A block's arrays are (anchors x rects
#: under their windows): enough anchors to amortise the numpy calls,
#: few enough that the arrays stay small (a whole shard at once costs
#: megabytes of peak memory).
BLOCK = 64


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


def _rejection(
    config: ExtractionConfig,
    core_area: int,
    count: int,
    area: int,
    worst: Optional[int],
) -> str:
    """Why a window fails the Section III-E polygon-distribution rule.

    ``count`` and ``area`` are the number and total area of the rects'
    parts in the core; ``worst`` is the widest gap between the clip
    window and the bounding box of its geometry (``None`` when it holds
    none).  Returns ``""`` for a window that passes, else the first
    failed requirement: ``"count"``, ``"density"``, ``"count"`` again
    for an empty window, ``"boundary"``.
    """
    if count < config.min_polygon_count:
        return "count"
    if not config.min_core_density <= area / core_area <= config.max_core_density:
        return "density"
    if worst is None:
        return "count"
    if worst > config.max_boundary_distance:
        return "boundary"
    return ""


def _measure(spec: ClipSpec, xy: np.ndarray, rects: np.ndarray):
    """Every rect's piece in every anchor's clip window, and each
    window's :func:`_rejection` measures.

    ``xy`` holds ``(B, 2)`` anchors and ``rects`` ``(M, 4)`` rect rows,
    both int64.  Returns the pieces as four ``(B, M)`` planes ``x0, y0,
    x1, y1``, the ``(B, M)`` mask of the non-empty ones, and each
    anchor's ``(count, area, worst)`` in Python ints.
    """
    rx0, ry0, rx1, ry1 = rects.T
    cx, cy = xy[:, :1], xy[:, 1:]  # columns: every anchor against every rect
    side, far = spec.core_side, spec.clip_side
    w = np.minimum(rx1, cx + side)
    w -= np.maximum(rx0, cx)
    h = np.minimum(ry1, cy + side)
    h -= np.maximum(ry0, cy)
    in_core = (w > 0) & (h > 0)
    count = in_core.sum(axis=1).tolist()
    w *= h
    area = np.where(in_core, w, 0).sum(axis=1).tolist()
    del w, h  # (B, M) planes set the block's peak memory; free these first
    wx, wy = cx - spec.ambit_margin, cy - spec.ambit_margin
    x0, y0 = np.maximum(rx0, wx), np.maximum(ry0, wy)
    x1, y1 = np.minimum(rx1, wx + far), np.minimum(ry1, wy + far)
    inside = (x0 < x1) & (y0 < y1)
    # Each window edge's gap to the nearest piece, at most the clip side.
    worst = np.maximum.reduce(
        [
            np.where(inside, gap, far).min(axis=1, initial=far)
            for gap in (x0 - wx, y0 - wy, wx + far - x1, wy + far - y1)
        ]
    ).tolist()
    has = inside.any(axis=1).tolist()
    measures = [
        (n, a, gap if any_piece else None)
        for n, a, gap, any_piece in zip(count, area, worst, has)
    ]
    return (x0, y0, x1, y1), inside, measures


class _Block:
    """Up to :data:`BLOCK` consecutive anchors, measured together.

    The block measures the layer's rects under the hull of its anchors'
    clip windows (:func:`_measure`).  A window that shares area with an
    intersection of two layer rects would hold overlapping pieces; only
    those are cut with :meth:`Layout.cut_clip_at_core`, whose
    ``Clip.build`` replaces the pieces by their order-dependent disjoint
    cover, and measured on the clip's rects.  Every other window's
    pieces are already disjoint, so its clip is built straight from
    them.
    """

    def __init__(self, layout: Layout, spec: ClipSpec, layer: int, anchors) -> None:
        self.layout, self.spec, self.layer, self.anchors = layout, spec, layer, anchors
        self.index = index = layout.index(layer)
        self.xy = np.asarray(anchors, dtype=np.int64).reshape(-1, 2)
        low = self.xy - spec.ambit_margin
        high = low + spec.clip_side
        hull = Rect(*low.min(axis=0).tolist(), *high.max(axis=0).tolist())
        self.ids = np.asarray(index.query_ids(hull), dtype=np.intp)
        rects = index.coords()[self.ids]
        self.pieces, self.inside, self.measures = _measure(spec, self.xy, rects)
        overlaps = index.overlap_coords()
        self.union = (
            ((overlaps[:, :2] < high[:, None]) & (low[:, None] < overlaps[:, 2:]))
            .all(axis=2)
            .any(axis=1)
            .tolist()
        )
        #: The clips cut for union windows, by anchor number.
        self.cut: dict[int, Clip] = {}

    def rejection(self, i: int, config: ExtractionConfig) -> str:
        """Why anchor ``i``'s window fails :func:`_rejection`, or ``""``."""
        side = self.spec.core_side
        measures = self.measures[i]
        if self.union[i]:
            x, y = self.anchors[i]
            clip = self.layout.cut_clip_at_core(
                self.spec, Rect(x, y, x + side, y + side), self.layer
            )
            self.cut[i] = clip
            _, _, (measures,) = _measure(
                self.spec, self.xy[i : i + 1], rect_coords(clip.rects)
            )
        return _rejection(config, side * side, *measures)

    def clips(self, passed: list[int]) -> list[Clip]:
        """The clips of anchors ``passed`` (ascending), each holding its
        window's pieces in ``Rect`` order.

        Each piece is ``Rect.intersection``'s, as in ``Clip.build``: the
        layer's own ``Rect`` where the window contains it, else a ``Rect``
        sharing the coordinates of the layer rect and the window.
        """
        build = [i for i in passed if i not in self.cut]
        inside = self.inside[build]
        row, col = np.nonzero(inside)
        at = np.asarray(build, dtype=np.intp)[row], col
        # By anchor, then in Rect's field order (np.lexsort's last key leads).
        order = np.lexsort((*(plane[at] for plane in self.pieces[::-1]), row))
        ids = self.ids[col[order]].tolist()
        ends = np.cumsum(inside.sum(axis=1)).tolist()
        rect, spec, margin = self.index.rect, self.spec, self.spec.ambit_margin
        clips = dict(self.cut)
        for i, start, end in zip(build, [0, *ends], ends):
            x, y = self.anchors[i]
            window = spec.clip_at(x - margin, y - margin)
            pieces = tuple(rect(k).intersection(window) for k in ids[start:end])
            clips[i] = Clip(window, spec, pieces, ClipLabel.UNKNOWN, self.layer)
        return [clips[i] for i in passed]


def candidate_anchors(
    layout: Layout, spec: ClipSpec, layer: int = 1
) -> list[tuple[int, int]]:
    """Deduplicated, sorted candidate anchor positions of a layer.

    The lower-left corners of the pieces that cutting every rect to the
    core side would give (:func:`~repro.geometry.dissect.cut_to_max_size`):
    ``(x0 + i * core_side, y0 + j * core_side)`` inside each rect.  They
    are per-rectangle deterministic, so bucketing these anchors into
    half-open grid cells partitions the global anchor set exactly — the
    property the sharded scan (:mod:`repro.work`) relies on for results
    that do not depend on the shard grid.
    """
    if not layout.layer(layer).rects:
        return []
    coords = layout.index(layer).coords()
    lo, side = coords[:, :2], spec.core_side
    steps = -((lo - coords[:, 2:]) // side)  # pieces along x and y
    counts = steps.prod(axis=1)
    owner = np.repeat(np.arange(len(counts)), counts)
    # Each piece's number within its rect.
    k = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    lattice = lo[owner] + np.stack(np.divmod(k, steps[owner, 1]), axis=1) * side
    return [(x, y) for x, y in np.unique(lattice, axis=0).tolist()]


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
    """Decide the clips of an explicit anchor list, and build those that pass.

    Clips come back in anchor order.  Every layout scan runs this once
    per shard (:func:`repro.work.shard.evaluate_shard`).  Anchors are
    measured :data:`BLOCK` at a time (:class:`_Block`), on the block's
    first anchor that is not faulted, so an error there quarantines that
    anchor as a failed cut does.
    """
    report = ExtractionReport(clips=[], anchor_count=len(anchors))
    inject_per_anchor = faults.get() is not None
    for start in range(0, len(anchors), BLOCK):
        chunk = anchors[start : start + BLOCK]
        block: Optional[_Block] = None
        passed: list[int] = []
        for i, (x, y) in enumerate(chunk):
            try:
                faults.inject("extract.clip", anchor=(x, y), layer=layer)
                if inject_per_anchor:
                    # Anchor-addressed point (``extract.anchor.X_Y``): lets
                    # chaos plans target one exact clip no matter which
                    # worker or backend ends up processing it.
                    faults.inject(f"extract.anchor.{x}_{y}", layer=layer)
                if block is None:
                    block = _Block(layout, spec, layer, chunk)
                reason = block.rejection(i, config)
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
            if not reason:
                passed.append(i)
            elif reason == "density":
                report.rejected_density += 1
            elif reason == "count":
                report.rejected_count += 1
            else:
                report.rejected_boundary += 1
        if passed:
            report.clips.extend(block.clips(passed))
    return report
