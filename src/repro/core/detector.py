"""The hotspot-detection facade (Fig. 3).

:class:`HotspotDetector` wires the whole framework together:

- ``fit`` runs the training phase: data shifting, topological
  classification, population balancing, multiple-kernel learning and
  feedback-kernel learning;
- ``detect`` runs the evaluation phase on a layout: density-driven clip
  extraction, multiple-kernel evaluation, feedback filtering, redundant
  clip removal;
- ``score`` additionally grades the reports against ground truth.

Typical use::

    from repro import HotspotDetector, DetectorConfig, generate_benchmark

    bench = generate_benchmark("benchmark1", scale=0.3)
    detector = HotspotDetector(DetectorConfig.ours())
    detector.fit(bench.training)
    result = detector.score(bench.testing)
    print(result.score.accuracy, result.score.extras)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.config import DetectorConfig
from repro.obs import trace
from repro.core.feedback import (
    FeedbackKernel,
    guarded_keep_mask,
    train_feedback_kernel,
)
from repro.core.metrics import DetectionScore, score_reports
from repro.core.removal import remove_redundant_clips
from repro.core.training import GATED_OUT, MultiKernelModel, _train_multi_kernel
from repro.data.synth import TestingLayout
from repro.errors import NotFittedError
from repro.layout.clip import Clip, ClipLabel, ClipSet
from repro.layout.layout import Layout

if TYPE_CHECKING:  # repro.work imports repro.core
    from repro.work.shard import ScanResult


@dataclass
class TrainingReport:
    """Telemetry of one ``fit`` call."""

    hotspot_clusters: int
    nonhotspot_centroids: int
    kernels: int
    feedback_trained: bool
    upsampled_hotspots: int
    train_seconds: float
    #: Kernels reused from the training journal instead of retrained.
    resumed_kernels: int = 0

    def total_rounds(self, model: MultiKernelModel) -> int:
        return sum(len(kernel.history) for kernel in model.kernels)


@dataclass
class DetectionReport:
    """Everything one ``detect`` call produced."""

    reports: list[Clip]
    #: The scan itself: candidate anchors, margins, feedback verdicts,
    #: funnel counts, shard counters.
    extraction: ScanResult
    flagged_before_feedback: int
    flagged_after_feedback: int
    eval_seconds: float
    score: Optional[DetectionScore] = None
    #: Candidates skipped (not crashed on) for malformed geometry.
    quarantined: int = 0
    #: A shard's feedback kernel errored, so feedback was bypassed for
    #: the whole run.
    feedback_degraded: bool = False
    #: Who evaluated the shards: "serial" (the calling process),
    #: "process" (a supervised pool) or "fleet".
    backend: str = "serial"
    #: Pool supervision counters (zero unless ``backend == "process"``).
    worker_restarts: int = 0
    poison_tasks: int = 0
    shards_total: int = 0
    shards_resumed: int = 0
    #: Shards reused from a previous run's journal (incremental scans).
    shards_reused: int = 0
    #: Cache counter deltas for this call (``None`` when no cache attached).
    cache_stats: Optional[dict] = None

    @property
    def report_count(self) -> int:
        return len(self.reports)


@dataclass
class HotspotDetector:
    """The complete machine-learning hotspot-detection framework."""

    config: DetectorConfig = field(default_factory=DetectorConfig)
    model_: Optional[MultiKernelModel] = field(default=None, repr=False)
    feedback_: Optional[FeedbackKernel] = field(default=None, repr=False)
    training_report_: Optional[TrainingReport] = field(default=None, repr=False)
    #: Optional duck-typed metrics sink (``observe(name, seconds)``), e.g.
    #: a :class:`repro.serve.metrics.MetricsRegistry`.  The detector feeds
    #: it ``fit``/``detect`` timings; ``None`` costs nothing.
    metrics_sink_: Optional[object] = field(default=None, repr=False, compare=False)
    #: Optional :class:`repro.cache.HotspotCache` memoizing per-clip
    #: features and per-kernel margin rows by geometry content.  Attach
    #: via :meth:`attach_cache`; ``None`` costs nothing.
    cache_: Optional[object] = field(default=None, repr=False, compare=False)

    def attach_cache(self, cache) -> None:
        """Attach (or detach with ``None``) a shared hotspot cache.

        The cache is threaded into the model's extractor, the margin
        stage and the feedback kernel's extractor, so every repeated
        geometry — across ``detect`` calls, serve requests or scans —
        is extracted and scored once.
        """
        self.cache_ = cache
        self._wire_cache()

    def _wire_cache(self) -> None:
        """Point every fitted component at the current cache (idempotent)."""
        if self.model_ is not None:
            self.model_.cache = self.cache_
            self.model_.extractor.cache = self.cache_
        if self.feedback_ is not None:
            self.feedback_.extractor.cache = self.cache_

    def _cache_snapshot(self) -> Optional[dict]:
        if self.cache_ is None:
            return None
        return self.cache_.stats_dict()

    def _cache_delta(self, before: Optional[dict]) -> Optional[dict]:
        if self.cache_ is None or before is None:
            return None
        after = self.cache_.stats_dict()
        # Non-numeric entries (per-node health maps from the remote
        # tier) have no meaningful delta; report their current value.
        return {
            name: (
                value - before.get(name, 0)
                if isinstance(value, (int, float))
                else value
            )
            for name, value in after.items()
        }

    def _observe(self, name: str, seconds: float) -> None:
        sink = self.metrics_sink_
        if sink is not None:
            observe = getattr(sink, "observe", None)
            if callable(observe):
                observe(name, seconds)

    def _increment(self, name: str, amount: float = 1.0) -> None:
        sink = self.metrics_sink_
        if sink is not None:
            increment = getattr(sink, "increment", None)
            if callable(increment):
                increment(name, amount)

    # ------------------------------------------------------------------
    # training phase
    # ------------------------------------------------------------------
    def fit(
        self,
        training: ClipSet,
        checkpoint=None,
        deadline=None,
        resume: bool = True,
    ) -> TrainingReport:
        """Run the training phase on a labelled clip set.

        ``checkpoint``/``deadline``/``resume`` flow into
        :func:`~repro.core.training.train_multi_kernel` — see there for
        the checkpoint/resume and stage-timeout semantics.
        """
        started = time.perf_counter()
        with trace("detector.fit", clips=len(training)) as span:
            self.model_, centroid_features = _train_multi_kernel(
                training,
                self.config,
                classifier=None,
                checkpoint=checkpoint,
                deadline=deadline,
                resume=resume,
            )
            self.feedback_ = (
                train_feedback_kernel(self.model_, self.config, centroid_features)
                if self.config.use_feedback
                else None
            )
            span.set(
                kernels=len(self.model_.kernels),
                feedback=self.feedback_ is not None,
            )
        if self.cache_ is not None:
            self._wire_cache()
        self.training_report_ = TrainingReport(
            hotspot_clusters=len(self.model_.hotspot_clusters),
            nonhotspot_centroids=len(self.model_.nonhotspot_centroids),
            kernels=len(self.model_.kernels),
            feedback_trained=self.feedback_ is not None,
            upsampled_hotspots=len(self.model_.hotspot_clips),
            train_seconds=time.perf_counter() - started,
            resumed_kernels=self.model_.resumed_kernels,
        )
        self._observe("detector_fit_seconds", self.training_report_.train_seconds)
        return self.training_report_

    def _require_model(self) -> MultiKernelModel:
        if self.model_ is None:
            raise NotFittedError("HotspotDetector used before fit()")
        # Re-point components at the current cache on every entry: models
        # and feedback kernels can be swapped underneath the detector
        # (registry hot-reload, ``load_detector``), and wiring is three
        # attribute writes.  A cache attached directly to a component is
        # left alone when the detector has none.
        if self.cache_ is not None:
            self._wire_cache()
        return self.model_

    # ------------------------------------------------------------------
    # clip-level prediction
    # ------------------------------------------------------------------
    def margins(self, clips: Sequence[Clip]) -> np.ndarray:
        """Best kernel margin per clip (before feedback)."""
        return self._require_model().margins(clips)

    def predict_clips(
        self, clips: Sequence[Clip], threshold: Optional[float] = None
    ) -> np.ndarray:
        """Boolean hotspot flags, including the feedback stage."""
        model = self._require_model()
        threshold = (
            self.config.decision_threshold if threshold is None else threshold
        )
        if not clips:
            return np.zeros(0, dtype=bool)
        flags = model.margins(clips) >= threshold
        if self.feedback_ is not None and np.any(flags):
            flagged_indices = np.flatnonzero(flags)
            keep = self._feedback_keep([clips[i] for i in flagged_indices])
            if keep is not None:
                flags[flagged_indices[~keep]] = False
        return flags

    def _feedback_keep(self, flagged: Sequence[Clip]) -> Optional[np.ndarray]:
        """The feedback kernel's keep mask, or ``None`` on degradation
        (see :func:`~repro.core.feedback.guarded_keep_mask`)."""
        assert self.feedback_ is not None
        keep = guarded_keep_mask(self.feedback_, flagged)
        if keep is None:
            self._increment("feedback_degraded_total")
        return keep

    # ------------------------------------------------------------------
    # layout-level evaluation
    # ------------------------------------------------------------------
    def detect(
        self,
        layout: Layout,
        layer: int = 1,
        threshold: Optional[float] = None,
        quarantine=None,
        work=None,
        scan=None,
    ) -> DetectionReport:
        """Evaluate a full layout and return hotspot reports.

        ``quarantine`` is an optional
        :class:`~repro.resilience.quarantine.QuarantineReport`; malformed
        candidate clips are recorded there and skipped instead of failing
        the whole evaluation.

        Every scan runs through :func:`repro.work.shard.run_sharded_scan`.
        ``work`` is an optional :class:`repro.work.ScanOptions`; the
        default, ``ScanOptions()``, evaluates the shards in this
        process.  ``workers >= 1`` runs them on a crash-isolated
        :class:`repro.work.SupervisedPool` — same hotspot set, but a
        worker crash, hang or poison clip no longer kills the run.  A
        ``journal_dir`` makes either kind resumable.

        The shards return margins and feedback verdicts, not clips.
        ``detect`` flags every candidate whose margin reaches
        ``threshold``, drops the flagged candidates the feedback kernel
        reclaimed, and cuts from ``layout`` only the clips that survive,
        for redundancy removal.  If any shard's feedback kernel errored,
        every flagged candidate is kept and ``feedback_degraded`` is set.
        ``threshold`` must lie above ``GATED_OUT``: gated-out candidates
        carry no verdict.

        ``scan`` is an optional precomputed
        :class:`~repro.work.ScanResult` (e.g. from a
        :class:`repro.fleet.FleetCoordinator`); thresholding, feedback
        filtering and redundancy removal then run on its margins and
        verdicts through this exact code path, so a distributed scan's
        report is bit-identical to a local one.
        """
        self._require_model()
        threshold = (
            self.config.decision_threshold if threshold is None else threshold
        )
        if threshold <= GATED_OUT:
            raise ValueError(
                f"threshold {threshold} is at or below GATED_OUT ({GATED_OUT}): "
                "gated-out candidates have no feedback verdict"
            )
        started = time.perf_counter()
        cache_before = self._cache_snapshot()
        with trace("detector.detect", layer=layer, threshold=threshold) as span:
            if scan is None:
                from repro.work.shard import ScanOptions, run_sharded_scan

                options = work or ScanOptions()
                backend = "process" if options.workers else "serial"
                scan = run_sharded_scan(
                    self, layout, layer=layer, quarantine=quarantine, options=options
                )
            else:
                backend = "fleet"
            flags = scan.margins >= threshold
            before_feedback = int(np.count_nonzero(flags))
            feedback_degraded = scan.feedback_degraded
            if not feedback_degraded:
                flags &= scan.verdicts
            flagged = scan.cut(np.flatnonzero(flags))
            after_feedback = len(flagged)

            if self.config.use_removal and flagged:
                def clip_factory(core):
                    return layout.cut_clip_at_core(self.config.spec, core, layer)

                reports = remove_redundant_clips(
                    flagged, self.config.spec, self.config.removal, clip_factory
                )
            else:
                reports = flagged
            reports = [r.with_label(ClipLabel.HOTSPOT) for r in reports]
            span.set(
                candidates=scan.candidate_count,
                flagged_before_feedback=before_feedback,
                flagged_after_feedback=after_feedback,
                reports=len(reports),
                quarantined=scan.quarantined,
                feedback_degraded=feedback_degraded,
                backend=backend,
            )
        if feedback_degraded:
            self._increment("feedback_degraded_total")
        if scan.quarantined:
            self._increment("quarantined_inputs_total", scan.quarantined)
        self._increment("worker_restarts_total", scan.stats.worker_restarts)
        self._increment("poison_tasks_total", scan.stats.poison_tasks)
        self._increment("shards_resumed", scan.shards_resumed)
        if scan.shards_reused:
            self._increment("shards_reused_total", scan.shards_reused)
        self._observe("detector_detect_seconds", time.perf_counter() - started)
        return DetectionReport(
            reports=reports,
            extraction=scan,
            flagged_before_feedback=before_feedback,
            flagged_after_feedback=after_feedback,
            eval_seconds=time.perf_counter() - started,
            quarantined=scan.quarantined,
            feedback_degraded=feedback_degraded,
            backend=backend,
            worker_restarts=scan.stats.worker_restarts,
            poison_tasks=scan.stats.poison_tasks,
            shards_total=scan.shards_total,
            shards_resumed=scan.shards_resumed,
            shards_reused=scan.shards_reused,
            cache_stats=self._cache_delta(cache_before),
        )

    def score(
        self,
        testing: TestingLayout,
        layer: int = 1,
        threshold: Optional[float] = None,
    ) -> DetectionReport:
        """Detect on a testing layout and grade against its ground truth."""
        report = self.detect(testing.layout, layer, threshold)
        report.score = score_reports(
            report.reports, testing.hotspot_cores(), testing.area_um2
        )
        return report
