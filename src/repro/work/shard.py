"""The layout scan driver: journaled, resumable, sharded.

Every local scan runs here.  Its :class:`ShardPlan` splits a layout's
candidate anchors into region shards (a grid of ``shard_side`` cells
over the layer bounding box), journals them and merges them; the fleet
coordinator and the chaos drill's journal merge use the same plan.
Each shard is evaluated with :func:`evaluate_shard` — in the calling
process, in shard order (``ScanOptions(workers=0)``, what
``HotspotDetector.detect`` does by default), or as one task per shard on
a :class:`~repro.work.pool.SupervisedPool` (``workers >= 1``).  With a
journal directory, every completed shard is appended to an on-disk
**journal**, so an interrupted run — crash, OOM kill, SIGTERM drain —
resumes from the completed shards instead of restarting a multi-hour
scan from zero.

Each shard comes back as a record of candidate anchors, margins,
feedback verdicts and funnel counts, never clips: the same shape
in-process, from the pool, from a fleet worker and from the journal.
``HotspotDetector.detect`` thresholds the merged margins, applies the
verdicts and cuts only the clips it reports; :class:`ScanResult` cuts
the rest only when asked for them.

Bit-identical by construction: anchors are bucketed into half-open
shard windows (each anchor belongs to exactly one shard), every shard
cuts its clips from the *full* layout (shard membership never changes a
clip's content), margins and verdicts are row-independent, and the
merged candidates are re-sorted into global anchor order — so serial,
pool and fleet scans, faulted + resumed or not, yield the same hotspot
set.

The journal (``<layout>.scanjournal/`` by default) is a
:class:`~repro.resilience.checkpoint.Journal`: one unit per completed
shard, keyed by the shard's grid-cell origin plus its influence-region
geometry hash (:func:`shard_key`), its payload the
:func:`encode_shard_record` npz.  The header identity is the journal
version, :func:`scan_base_fingerprint` (detector config minus the
decision threshold, trained kernels, feedback kernel, layer, shard
grid) and the shard side; a journal of another identity is discarded
with a warning, never mixed in.  A resumed scan reuses every journaled
shard whose key is in its own shard plan, whether a local scan or a
fleet coordinator journaled it, so ``--resume`` after an
edit — like ``--incremental``, which differs only in keeping the
journal after success — re-evaluates just the shards whose influence
region changed.
Margins and verdicts are threshold-independent, so a journaled run may
resume under a different ``--threshold``.  A shard whose feedback
kernel errored is never journaled, so the next run evaluates it again.

A task that repeatedly kills workers is bisected down the anchor list
until the single offending anchor is isolated; that anchor lands in the
run's :class:`~repro.resilience.quarantine.QuarantineReport` (kind
``PoisonTaskError``) and the scan carries on.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from hashlib import sha256
from io import BytesIO
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core import extraction
from repro.core.feedback import guarded_keep_mask, wire_cache
from repro.core.training import GATED_OUT
from repro.errors import CheckpointError, NotFittedError, ScanDrainedError
from repro.geometry.rect import Rect
from repro.layout.clip import Clip
from repro.obs import fingerprint_layout, fingerprint_rows, get_logger, tally, trace
from repro.resilience import faults
from repro.resilience.checkpoint import Journal
from repro.resilience.quarantine import QuarantineReport
from repro.work.pool import PoolStats, PoolTask, SupervisedPool

#: Bump on breaking journal-layout changes.  Version 3 keys every shard
#: by its cell origin and geometry hash in the shared
#: :class:`~repro.resilience.checkpoint.Journal`; version 4 stores
#: feedback verdicts and covers the feedback kernel in the identity.
SCAN_JOURNAL_VERSION = 4

#: Default shard edge, in multiples of the clip side: big enough that
#: per-shard overhead amortises, small enough that losing one shard to a
#: crash costs little recomputation.
DEFAULT_SHARD_CLIPS = 4

_log = get_logger("work.shard")


# ----------------------------------------------------------------------
# options / results
# ----------------------------------------------------------------------
@dataclass
class ScanOptions:
    """Execution knobs of one sharded scan.

    ``ScanOptions()`` scans the way ``HotspotDetector.detect`` does by
    default: in-process, unjournaled.
    """

    #: Supervised worker processes; ``0`` evaluates the shards in the
    #: calling process, in shard order, with the detector's own model
    #: and cache.  Pool workers open the attached cache's ``directory``
    #: (its disk tier) read/write, and no cache without one.
    workers: int = 0
    #: Shard cell edge in DBU (default ``DEFAULT_SHARD_CLIPS * clip_side``).
    shard_side: Optional[int] = None
    #: Journal directory; ``None`` scans without resumability.
    journal_dir: Optional[Union[str, Path]] = None
    #: Reuse every journaled shard whose key (grid-cell origin plus
    #: influence-region geometry hash) is in this run's shard plan.
    resume: bool = False
    #: Set (e.g. from a SIGTERM handler) to drain: in-flight shards
    #: finish and journal, then the scan raises ``ScanDrainedError``.
    stop_event: Optional[threading.Event] = None
    #: ``resume``, and keep the journal after success (any other scan
    #: clears it): the next incremental run then re-evaluates only the
    #: edited regions.  Requires ``journal_dir``.
    incremental: bool = False


@dataclass
class ScanResult:
    """Merged output of a scan, in global anchor order: each candidate's
    anchor, margin and feedback verdict, the funnel counts, and the
    shard and pool counters.

    Candidate clips are not kept: :meth:`cut` cuts the ones asked for
    from the scanned layout, and :attr:`clips` cuts (once) all of them.
    """

    #: Lower-left corner of each candidate's core.
    anchors: list[tuple[int, int]] = field(default_factory=list)
    margins: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: False where the feedback kernel reclaimed a gated candidate
    #: (margin above ``GATED_OUT``); True everywhere else.
    verdicts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    anchor_count: int = 0
    rejected_density: int = 0
    rejected_count: int = 0
    rejected_boundary: int = 0
    #: Anchors whose clip could not be cut/validated; skipped, not fatal.
    quarantined: int = 0
    #: Some shard's feedback kernel errored: its verdicts are void, and
    #: ``detect`` keeps every flagged candidate of every shard.
    feedback_degraded: bool = False
    stats: PoolStats = field(default_factory=PoolStats)
    shards_total: int = 0
    shards_resumed: int = 0
    #: The same journal matches, counted here instead of in
    #: ``shards_resumed`` when the scan is incremental.
    shards_reused: int = 0
    #: Where :meth:`cut` cuts candidates from.
    layout: object = field(default=None, repr=False, compare=False)
    spec: object = field(default=None, repr=False, compare=False)
    layer: int = 1
    _clips: Optional[list[Clip]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def candidate_count(self) -> int:
        return len(self.anchors)

    def cut(self, indices) -> list[Clip]:
        """The candidate clips at ``indices``, cut from the layout."""
        side = self.spec.core_side
        return [
            self.layout.cut_clip_at_core(
                self.spec, Rect(x, y, x + side, y + side), self.layer
            )
            for x, y in (self.anchors[i] for i in indices)
        ]

    @property
    def clips(self) -> list[Clip]:
        """Every candidate clip, cut on first access."""
        if self._clips is None:
            self._clips = self.cut(range(len(self.anchors)))
        return self._clips


@dataclass
class _ShardRecord:
    """One completed shard: candidate anchors, margins, feedback
    verdicts (see :attr:`ScanResult.verdicts`), funnel counts."""

    shard_id: int
    anchors: list[tuple[int, int]]
    margins: np.ndarray
    verdicts: np.ndarray
    anchor_count: int
    rejected_density: int = 0
    rejected_count: int = 0
    rejected_boundary: int = 0
    quarantine: dict = field(default_factory=dict)
    #: The feedback kernel errored on this shard; its verdicts are void.
    feedback_degraded: bool = False
    #: Wall seconds spent evaluating the shard (journaled, so the fleet
    #: status plane's ETA/straggler percentiles survive ``--resume``).
    wall_s: float = 0.0


# ----------------------------------------------------------------------
# fingerprint
# ----------------------------------------------------------------------
def scan_base_fingerprint(
    layer: int, config, model, feedback, shard_side: int
) -> str:
    """The layout-independent part of the scan fingerprint.

    The scan journal's identity: the *layout* may differ between a run
    and its resume (per-shard keys cover that), but the config, model,
    feedback kernel (or its absence), layer and shard grid must match
    for any per-shard reuse to be sound.  The decision threshold is
    excluded — margins and feedback verdicts are computed before
    thresholding, so a resume may change it freely.
    """
    from repro.cache.keys import feedback_fingerprint, model_fingerprint
    from repro.obs import config_summary

    summary = config_summary(config)
    summary.pop("decision_threshold", None)
    blob = json.dumps(
        {
            "version": SCAN_JOURNAL_VERSION,
            "config": summary,
            "model": model_fingerprint(model),
            "feedback": feedback_fingerprint(feedback),
            "layer": layer,
            "shard_side": shard_side,
        },
        sort_keys=True,
        default=str,
    )
    return sha256(blob.encode("utf-8")).hexdigest()


def scan_fingerprint(
    layout, layer: int, config, model, feedback, shard_side: int
) -> str:
    """Hash of everything a fleet worker must share with its coordinator."""
    blob = json.dumps(
        {
            "base": scan_base_fingerprint(layer, config, model, feedback, shard_side),
            "layout": fingerprint_layout(layout.layer(layer)),
        },
        sort_keys=True,
    )
    return sha256(blob.encode("utf-8")).hexdigest()


def shard_geometry_hash(
    layout, layer: int, cell: tuple[int, int], shard_side: int, clip_side: int
) -> str:
    """Content hash of everything that can influence one shard's output.

    The influence region is the grid cell expanded by ``clip_side``:
    rectangle cutting is per-rectangle deterministic, so any source rect
    contributing an anchor inside the half-open cell must overlap the
    cell itself, and a clip anchored in the cell reaches at most
    ``core_side + ambit_margin < clip_side`` beyond it.  Rects outside
    the expanded window therefore cannot change the shard's anchor set,
    clip contents, margins or funnel counts.

    The digest is :func:`~repro.obs.fingerprint_rects` of the region's
    rects in ``Rect`` order, taken from the layer index's coordinate
    rows.
    """
    window = Rect(
        cell[0], cell[1], cell[0] + shard_side, cell[1] + shard_side
    ).expanded(clip_side)
    index = layout.index(layer)
    rows = index.coords()[index.query_ids(window)]
    rows = rows[np.lexsort(rows.T[::-1])]  # x0 leads, as in Rect's order
    return fingerprint_rows(rows.ravel().tolist())


# ----------------------------------------------------------------------
# shard record codec (shared by the journal and the fleet wire format)
# ----------------------------------------------------------------------
def encode_shard_record(record: _ShardRecord) -> bytes:
    """Serialise one shard record to compressed npz bytes.

    ``anchors`` (N,2) int64 + ``margins`` (N,) float64 + ``verdicts``
    (N,) bool + a JSON ``meta`` blob (funnel counts, quarantine dump,
    feedback degradation, wall seconds).  float64
    round-trips exactly through npz, which is what makes both journal
    resume and fleet push/merge bit-identical.
    """
    anchors = np.asarray(
        record.anchors if record.anchors else np.zeros((0, 2)), dtype=np.int64
    ).reshape(-1, 2)
    meta = {
        "shard": record.shard_id,
        "anchor_count": record.anchor_count,
        "rejected_density": record.rejected_density,
        "rejected_count": record.rejected_count,
        "rejected_boundary": record.rejected_boundary,
        "quarantine": record.quarantine,
        "feedback_degraded": record.feedback_degraded,
        "wall_s": round(record.wall_s, 6),
    }
    buffer = BytesIO()
    np.savez_compressed(
        buffer,
        anchors=anchors,
        margins=np.asarray(record.margins, dtype=float),
        verdicts=np.asarray(record.verdicts, dtype=bool),
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8).copy(),
    )
    return buffer.getvalue()


def decode_shard_record(raw: bytes, shard_id: int) -> _ShardRecord:
    """Parse :func:`encode_shard_record` bytes back into a record.

    Raises on malformed input; callers (journal load, fleet push) treat
    that as one lost shard, not a fatal error.
    """
    with np.load(BytesIO(raw)) as archive:
        anchors = archive["anchors"]
        margins = archive["margins"]
        verdicts = archive["verdicts"]
        meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
    if len(anchors) != len(margins):
        raise ValueError("anchors/margins length mismatch")
    if len(anchors) != len(verdicts):
        raise ValueError("anchors/verdicts length mismatch")
    return _ShardRecord(
        shard_id=shard_id,
        anchors=[(int(x), int(y)) for x, y in anchors],
        margins=np.asarray(margins, dtype=float),
        verdicts=np.asarray(verdicts, dtype=bool),
        anchor_count=int(meta.get("anchor_count", len(anchors))),
        rejected_density=int(meta.get("rejected_density", 0)),
        rejected_count=int(meta.get("rejected_count", 0)),
        rejected_boundary=int(meta.get("rejected_boundary", 0)),
        quarantine=dict(meta.get("quarantine", {})),
        feedback_degraded=bool(meta.get("feedback_degraded", False)),
        wall_s=float(meta.get("wall_s", 0.0)),
    )


def evaluate_shard(
    config, model, feedback, layout, layer: int, anchors
) -> _ShardRecord:
    """Extract, score and judge one anchor list: the scan's only shard
    evaluator.

    The in-process scan, the pool task (:func:`_scan_shard_task`) and the
    fleet worker all call it.  Candidates come back in the order of
    ``anchors`` with their margins, feedback verdicts, funnel counts and
    quarantine dump; the caller stamps ``shard_id``.  ``feedback`` (the
    detector's feedback kernel, or ``None``) judges every gated
    candidate — every margin above ``GATED_OUT``, whatever the
    threshold — so the verdicts, like the margins, can be journaled and
    thresholded later.  With a cache attached the margins are looked up
    by content keys hashed from the funnel's integer rows, so only margin
    misses and the gated candidates build their clips; the clips
    themselves stay behind.
    """
    started = time.perf_counter()
    quarantine = QuarantineReport()
    with trace("detect.extract", layer=layer, anchors=len(anchors)) as span:
        report = extraction.extract_from_anchors(
            layout,
            config.spec,
            config.extraction,
            layer,
            [(int(x), int(y)) for x, y in anchors],
            quarantine,
        )
        span.set(
            candidates=len(report.clips),
            rejected_density=report.rejected_density,
            rejected_count=report.rejected_count,
            rejected_boundary=report.rejected_boundary,
            quarantined=report.quarantined,
        )
    with trace("detect.margins", candidates=len(report.clips)):
        margins = (
            np.asarray(model.margins(report.clips), dtype=float)
            if report.clips
            else np.zeros(0)
        )
    verdicts = np.ones(len(margins), dtype=bool)
    degraded = False
    gated = np.flatnonzero(margins > GATED_OUT)
    if feedback is not None and len(gated):
        with trace("detect.feedback", gated=len(gated)):
            keep = guarded_keep_mask(feedback, [report.clips[i] for i in gated])
        if keep is None:
            degraded = True
        else:
            verdicts[gated] = keep
    return _ShardRecord(
        shard_id=-1,
        anchors=report.anchors,
        margins=margins,
        verdicts=verdicts,
        anchor_count=report.anchor_count,
        rejected_density=report.rejected_density,
        rejected_count=report.rejected_count,
        rejected_boundary=report.rejected_boundary,
        quarantine=quarantine.to_dict(),
        feedback_degraded=degraded,
        wall_s=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# the plan: cells, journal keys, the merge
# ----------------------------------------------------------------------
def shard_key(cell: tuple[int, int], geometry_sha: str) -> str:
    """A shard's journal key: its grid-cell origin plus its geometry hash."""
    return f"{cell[0]}_{cell[1]}_{geometry_sha}"


def shard_cells(
    layout, spec, layer: int, shard_side: int
) -> list[tuple[tuple[int, int], list[tuple[int, int]]]]:
    """Bucket the layer's candidate anchors into grid cells.

    Returns ``(cell origin, anchors)`` pairs, where the origin is the
    cell's absolute lower-left in DBU.  The grid is anchored at the layer
    bounding box's lower-left; each anchor falls in exactly one half-open
    cell, so the buckets partition the global anchor set.  Empty cells
    are dropped; bucket order is the cell's (column, row) order, which is
    deterministic for a given layout + ``shard_side``.
    """
    anchors = extraction.candidate_anchors(layout, spec, layer)
    if not anchors:
        return []
    box = layout.bbox(layer)
    buckets: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for x, y in anchors:
        key = ((x - box.x0) // shard_side, (y - box.y0) // shard_side)
        buckets.setdefault(key, []).append((x, y))
    return [
        (
            (box.x0 + cx * shard_side, box.y0 + cy * shard_side),
            buckets[(cx, cy)],
        )
        for cx, cy in sorted(buckets)
    ]


def merge_records(records: list[_ShardRecord], shard_id: int = -1) -> _ShardRecord:
    """Merge shard records into one, its candidates in anchor order.

    The scan's only merge: of a bisected shard's parts, and of a whole
    scan's shards.  Funnel counts and wall seconds add up, quarantine
    dumps merge in ``records`` order, and one degraded record degrades
    the merge.
    """
    triples: list[tuple[tuple[int, int], float, bool]] = []
    quarantine = QuarantineReport()
    for record in records:
        triples.extend(zip(record.anchors, record.margins, record.verdicts))
        if record.quarantine.get("total"):
            quarantine.merge(QuarantineReport.from_dict(record.quarantine))
    triples.sort(key=lambda item: item[0])
    return _ShardRecord(
        shard_id=shard_id,
        anchors=[anchor for anchor, _, _ in triples],
        margins=np.asarray([margin for _, margin, _ in triples], dtype=float),
        verdicts=np.asarray([verdict for _, _, verdict in triples], dtype=bool),
        anchor_count=sum(record.anchor_count for record in records),
        rejected_density=sum(record.rejected_density for record in records),
        rejected_count=sum(record.rejected_count for record in records),
        rejected_boundary=sum(record.rejected_boundary for record in records),
        quarantine=quarantine.to_dict(),
        feedback_degraded=any(record.feedback_degraded for record in records),
        wall_s=sum(record.wall_s for record in records),
    )


class ShardPlan:
    """One scan's shards, journal and merge, shared by every kind of scan.

    The local scan (:func:`run_sharded_scan`), the fleet coordinator
    and the chaos drill's journal merge each build one.  It holds the
    grid cells with their anchors (:func:`shard_cells`) and, for a
    journaled scan, the opened journal and the journaled records this
    run reuses.  Influence regions are hashed only then, to key the
    journal (:func:`shard_key`); its identity is the journal version,
    :func:`scan_base_fingerprint` and the shard side.  With ``reuse``,
    every journaled shard whose key is in this plan is reused, whatever
    layout the journal was written for — see :func:`shard_geometry_hash`
    for why that is sound.
    """

    def __init__(
        self,
        detector,
        layout,
        layer: int = 1,
        shard_side: Optional[int] = None,
        journal_dir: Optional[Union[str, Path]] = None,
        reuse: bool = False,
    ) -> None:
        model = detector.model_
        if model is None:
            raise NotFittedError("scan used before fit()")
        config = detector.config
        self.layout = layout
        self.layer = layer
        self.spec = config.spec
        self.shard_side = shard_side or config.spec.clip_side * DEFAULT_SHARD_CLIPS
        #: ``(cell origin, anchors)`` by shard id.
        self.cells = shard_cells(layout, config.spec, layer, self.shard_side)
        self.shards = [anchors for _, anchors in self.cells]
        self.journal: Optional[Journal] = None
        #: Journaled records this run reuses, by shard id.
        self.reused: dict[int, _ShardRecord] = {}
        if journal_dir is None:
            return
        self._keys = [
            shard_key(
                cell,
                shard_geometry_hash(
                    layout, layer, cell, self.shard_side, config.spec.clip_side
                ),
            )
            for cell, _ in self.cells
        ]
        identity = {
            "version": SCAN_JOURNAL_VERSION,
            "base": scan_base_fingerprint(
                layer, config, model, detector.feedback_, self.shard_side
            ),
            "shard_side": self.shard_side,
        }
        self.journal = Journal(journal_dir)
        self.reused = self.journal.begin(
            identity, self._keys, reuse, decode_shard_record
        )
        if self.reused:
            _log.info(
                "scan_resumed",
                shards=len(self.reused),
                of=len(self.cells),
                directory=str(self.journal.directory),
            )

    def commit(self, shard_id: int, record: _ShardRecord) -> None:
        """Journal one completed shard under its key (if journaled).

        A shard whose feedback kernel errored is left out, so a resumed or
        incremental run evaluates it again instead of reusing void verdicts.
        """
        if self.journal is None or record.feedback_degraded:
            return
        self.journal.record(
            self._keys[shard_id],
            encode_shard_record(record),
            anchors=record.anchor_count,
            candidates=len(record.anchors),
            wall_s=round(record.wall_s, 6),
        )

    def finish(
        self,
        completed: dict[int, _ShardRecord],
        quarantine: Optional[QuarantineReport] = None,
        stats: Optional[PoolStats] = None,
        keep_journal: bool = False,
    ) -> ScanResult:
        """Merge every shard's record into the scan's result.

        Raises :class:`~repro.errors.ScanDrainedError` while a shard is
        missing; the journal keeps the finished ones.  Otherwise the
        journal is cleared, unless ``keep_journal``: a kept journal is
        the state the next incremental run diffs against, so its reused
        records count as ``shards_reused`` rather than ``shards_resumed``.
        """
        if len(completed) < len(self.cells):
            raise ScanDrainedError(
                f"scan drained with {len(completed)}/{len(self.cells)} shards "
                "complete; rerun with --resume to finish"
            )
        merged = merge_records([completed[i] for i in range(len(self.cells))])
        merged_quarantine = QuarantineReport.from_dict(merged.quarantine)
        if quarantine is not None:
            quarantine.merge(merged_quarantine)
        reused = len(self.reused) if keep_journal else 0
        if self.journal is not None and not keep_journal:
            self.journal.clear()
        return ScanResult(
            anchors=merged.anchors,
            margins=merged.margins,
            verdicts=merged.verdicts,
            anchor_count=merged.anchor_count,
            rejected_density=merged.rejected_density,
            rejected_count=merged.rejected_count,
            rejected_boundary=merged.rejected_boundary,
            quarantined=merged_quarantine.total,
            feedback_degraded=merged.feedback_degraded,
            stats=stats if stats is not None else PoolStats(),
            shards_total=len(self.cells),
            shards_resumed=len(self.reused) - reused,
            shards_reused=reused,
            layout=self.layout,
            spec=self.spec,
            layer=self.layer,
        )


# ----------------------------------------------------------------------
# worker side (module-level: payloads must pickle under spawn)
# ----------------------------------------------------------------------
@dataclass
class _WorkerState:
    """Per-worker state built once by the pool's ``init_fn``."""

    config: object
    model: object
    feedback: object
    layout: object
    layer: int


def _scan_worker_init(
    config, model, feedback, layout, layer, cache_dir=None
) -> _WorkerState:
    if cache_dir is not None:
        # Each worker opens its own handle on the shared disk tier; the
        # in-memory LRU (with its lock) never crosses the process
        # boundary.  Concurrent writers are safe: blobs are
        # content-addressed and written via atomic rename.
        from repro.cache import HotspotCache

        wire_cache(model, feedback, HotspotCache(directory=cache_dir))
    return _WorkerState(
        config=config, model=model, feedback=feedback, layout=layout, layer=layer
    )


def _scan_shard_task(state: _WorkerState, payload) -> _ShardRecord:
    """Pool task: evaluate one (possibly bisected) shard's anchor list."""
    _, anchors = payload
    return evaluate_shard(
        state.config, state.model, state.feedback, state.layout, state.layer, anchors
    )


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def run_sharded_scan(
    detector,
    layout,
    layer: int = 1,
    quarantine: Optional[QuarantineReport] = None,
    options: Optional[ScanOptions] = None,
) -> ScanResult:
    """Scan a layout shard by shard; see module docs.

    Returns the merged candidates' anchors, margins and verdicts in
    global anchor order.  An in-process scan (``options.workers == 0``,
    the default) reads the detector's model, feedback kernel and cache
    and writes no detector state, so concurrent calls on one detector
    are safe.  Raises :class:`~repro.errors.ScanDrainedError` when
    ``options.stop_event`` drains the scan before every shard completed
    (finished shards stay journaled for ``resume``).
    """
    options = options or ScanOptions()
    if options.incremental and options.journal_dir is None:
        raise CheckpointError("incremental scans require a journal directory")
    model = detector.model_
    feedback = detector.feedback_
    config = detector.config

    with trace("work.scan", layer=layer, workers=options.workers) as span:
        plan = ShardPlan(
            detector,
            layout,
            layer,
            options.shard_side,
            options.journal_dir,
            reuse=options.resume or options.incremental,
        )
        span.set(shards=len(plan.shards))

        completed: dict[int, _ShardRecord] = dict(plan.reused)
        parts: dict[int, list[_ShardRecord]] = {}
        pending: dict[int, int] = {}
        poison: dict[int, QuarantineReport] = {}
        tasks: list[PoolTask] = []
        for shard_id, anchors in enumerate(plan.shards):
            if shard_id in completed:
                continue
            pending[shard_id] = 1
            parts[shard_id] = []
            tasks.append(
                PoolTask(
                    task_id=f"shard-{shard_id:04d}",
                    fn=_scan_shard_task,
                    payload=(shard_id, anchors),
                    group=shard_id,
                )
            )

        def finalize(shard_id: int) -> None:
            # Parent-side chaos point: an ``error`` plan aborts the run
            # between shard completions (journal keeps finished shards);
            # a ``kill`` plan SIGKILLs the whole parent, which is how
            # the CI chaos job produces a journal to resume.
            faults.inject("work.shard", shard=shard_id)
            # A bisected shard completes in several parts, in any order;
            # its isolated anchors add quarantine entries, no candidates.
            shard_parts = parts.pop(shard_id)
            if shard_id in poison:
                shard_parts.append(
                    _ShardRecord(
                        shard_id=shard_id,
                        anchors=[],
                        margins=np.zeros(0),
                        verdicts=np.zeros(0, dtype=bool),
                        anchor_count=0,
                        quarantine=poison.pop(shard_id).to_dict(),
                    )
                )
            record = merge_records(shard_parts, shard_id)
            completed[shard_id] = record
            plan.commit(shard_id, record)
            tally("work.shard", record.wall_s)

        def on_result(task: PoolTask, result: _ShardRecord, info=None) -> None:
            shard_id = task.group
            parts[shard_id].append(result)
            pending[shard_id] -= 1
            if pending[shard_id] == 0:
                finalize(shard_id)

        def on_poison(task: PoolTask, error: BaseException) -> None:
            shard_id = task.group
            _, anchors = task.payload
            report = poison.setdefault(shard_id, QuarantineReport())
            report.add(
                "PoisonTaskError",
                f"task {task.task_id} isolated by bisection: "
                f"{type(error).__name__}: {error}",
                source="work.poison",
                anchors=[list(a) for a in anchors],
                shard=shard_id,
            )
            pending[shard_id] -= 1
            if pending[shard_id] == 0:
                finalize(shard_id)

        def split(task: PoolTask) -> Optional[list[PoolTask]]:
            shard_id, anchors = task.payload
            if len(anchors) <= 1:
                return None  # atomic: the offending anchor is isolated
            half = len(anchors) // 2
            pending[shard_id] += 1  # one task becomes two
            return [
                PoolTask(
                    task_id=f"{task.task_id}/{side}",
                    fn=_scan_shard_task,
                    payload=(shard_id, chunk),
                    group=shard_id,
                )
                for side, chunk in enumerate((anchors[:half], anchors[half:]))
            ]

        stats = PoolStats()
        if options.workers == 0:
            for task in tasks:
                if options.stop_event is not None and options.stop_event.is_set():
                    break
                _, anchors = task.payload
                on_result(
                    task, evaluate_shard(config, model, feedback, layout, layer, anchors)
                )
        elif tasks:
            # Every shard may come from the journal (a fully-unchanged
            # incremental rescan): then there is nothing to fork for.
            pool = SupervisedPool(
                options.workers,
                init_fn=_scan_worker_init,
                init_args=(
                    config, model, feedback, layout, layer,
                    getattr(detector.cache_, "directory", None),
                ),
            )
            stats = pool.run(
                tasks,
                split=split,
                on_result=on_result,
                on_poison=on_poison,
                stop_event=options.stop_event,
            )
        span.set(restarts=stats.worker_restarts, poison=stats.poison_tasks)
        # An incremental scan's journal IS the state the next incremental
        # run diffs against; clearing it would defeat the mode.
        result = plan.finish(
            completed, quarantine, stats, keep_journal=options.incremental
        )
        span.set(resumed=result.shards_resumed, reused=result.shards_reused)
        return result
