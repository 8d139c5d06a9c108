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
requirements are decided for :data:`BLOCK` anchors at a time.  A
candidate that passes keeps the ids of the layer rects in its window;
its clip is built only when a caller reads it, and its content key can
be hashed from the same integer rows without building it
(:class:`CandidateClips`): a scan whose margins are all cached builds
only the clips its feedback kernel judges.

The window-sliding baseline of Table V lives in
:mod:`repro.baselines.window_scan`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cache import keys as cache_keys
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


class CandidateClips(Sequence):
    """The funnel's candidate clips, in anchor order, each built on first
    access (``len`` builds none).

    Until then a candidate keeps only what building its clip needs: its
    anchor and the ids of the layer rects in its window, in its pieces'
    ``Rect`` order.  Each piece is ``Rect.intersection``'s, as in
    ``Clip.build``: the layer's own ``Rect`` where the window contains
    it, else a ``Rect`` sharing the coordinates of the layer rect and the
    window.  A window cut for its union geometry keeps its clip.
    """

    def __init__(self, spec: ClipSpec, layer: int) -> None:
        self.spec, self.layer = spec, layer
        #: The layer's index the rect ids refer to.
        self.rect_index = None
        #: Per candidate: its clip once built, else ``(x, y, rect ids)``.
        self.parts: list = []

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        part = self.parts[i]
        if isinstance(part, tuple):
            x, y, ids = part
            spec, rect = self.spec, self.rect_index.rect
            window = spec.clip_at(x - spec.ambit_margin, y - spec.ambit_margin)
            pieces = tuple(rect(k).intersection(window) for k in ids.tolist())
            part = Clip(window, spec, pieces, ClipLabel.UNKNOWN, self.layer)
            self.parts[i] = part
        return part

    def content_keys(self) -> list[str]:
        """Each candidate's :func:`~repro.cache.keys.clip_content_key`.

        A candidate not yet built is hashed from its rects' rows of the
        layer's coordinates, cut to its window and moved to the origin:
        the built clip's rects, in the same order, so the keys are equal
        and no clip is built.
        """
        spec, side = self.spec, self.spec.clip_side
        keys = []
        # BLOCK candidates at a time keeps the row arrays small.
        for start in range(0, len(self.parts), BLOCK):
            parts = self.parts[start : start + BLOCK]
            rows = self._origin_rows([p for p in parts if isinstance(p, tuple)])
            for part in parts:
                if isinstance(part, tuple):
                    key = cache_keys.rows_content_key(spec, side, side, next(rows))
                else:
                    key = cache_keys.clip_content_key(part)
                keys.append(key)
        return keys

    def _origin_rows(self, unbuilt: list) -> Iterator[list[int]]:
        """Each unbuilt part's rects cut to its window, minus the window's
        lower-left corner, flattened as ``x0, y0, x1, y1, ...``."""
        if not unbuilt:
            return iter(())
        counts = [len(ids) for _, _, ids in unbuilt]
        corners = np.repeat(
            np.asarray([(x, y) for x, y, _ in unbuilt], dtype=np.int64)
            - self.spec.ambit_margin,
            counts,
            axis=0,
        )
        rects = self.rect_index.coords()[np.concatenate([ids for _, _, ids in unbuilt])]
        rows = np.hstack(
            [
                np.maximum(rects[:, :2], corners) - corners,
                np.minimum(rects[:, 2:], corners + self.spec.clip_side) - corners,
            ]
        )
        ends = np.cumsum(counts).tolist()
        return (rows[a:b].ravel().tolist() for a, b in zip([0, *ends], ends))


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

    #: :class:`CandidateClips` from the funnel.
    clips: Sequence[Clip]
    anchor_count: int
    rejected_density: int = 0
    rejected_count: int = 0
    rejected_boundary: int = 0
    #: Anchors whose clip could not be cut/validated; skipped, not fatal.
    quarantined: int = 0
    #: Each candidate's core lower-left corner, in clip order.
    anchors: list[tuple[int, int]] = field(default_factory=list)

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
    pieces are already disjoint, so its clip is built from them on
    first access.
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

    def candidates(self, passed: list[int], report: ExtractionReport) -> None:
        """Append the anchors ``passed`` (ascending) to ``report``, each
        with its :class:`CandidateClips` part: the ids of the layer rects
        in its window, ordered as ``Rect`` orders their pieces.
        """
        plain = np.asarray([i for i in passed if i not in self.cut], dtype=np.intp)
        inside = self.inside[plain]
        row, col = np.nonzero(inside)
        at = plain[row], col
        # By anchor, then in Rect's field order (np.lexsort's last key leads).
        order = np.lexsort((*(plane[at] for plane in self.pieces[::-1]), row))
        ids = self.ids[col[order]]
        ends = np.cumsum(inside.sum(axis=1)).tolist()
        spans = zip([0, *ends], ends)  # the plain anchors', in passed order
        for i in passed:
            x, y = self.anchors[i]
            if i in self.cut:
                part = self.cut[i]
            else:
                start, end = next(spans)
                part = (x, y, ids[start:end])
            report.anchors.append((x, y))
            report.clips.parts.append(part)
        report.clips.rect_index = self.index


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
    """Decide the clips of an explicit anchor list.

    Clips come back in anchor order, each built on first access
    (:class:`CandidateClips`).  Every layout scan runs this once per
    shard (:func:`repro.work.shard.evaluate_shard`).  Anchors are
    measured :data:`BLOCK` at a time (:class:`_Block`), on the block's
    first anchor that is not faulted, so an error there quarantines that
    anchor as a failed cut does.
    """
    report = ExtractionReport(
        clips=CandidateClips(spec, layer), anchor_count=len(anchors)
    )
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
            block.candidates(passed, report)
    return report
