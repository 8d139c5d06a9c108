"""The transport-independent serving facade.

:class:`ServeService` owns the model registry, the micro-batcher and the
metrics registry, and implements the four operations the HTTP layer (or
an embedding application) exposes: ``predict``, ``scan``, ``health`` and
``metrics_text``.  :class:`~repro.serve.httpd.HotspotServer` routes
HTTP requests into this class and maps its errors to statuses; it runs
on the fleet's HTTP server (:mod:`repro.fleet.protocol`).  Tests and
benchmarks can drive the service in-process, with or without sockets.

Batched evaluation semantics match
:meth:`~repro.core.detector.HotspotDetector.predict_clips` exactly: the
margins of every clip in the batch come from one
:meth:`MultiKernelModel.margins` call, per-request thresholds are
applied to the shared margins, and the feedback kernel filters the
flagged survivors of the whole batch in one pass.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence

import numpy as np

from repro.errors import (
    QueueFullError,
    ReproError,
    RequestTimeoutError,
    ServeError,
    ServerClosedError,
)
from repro.layout.clip import Clip
from repro.obs import get_logger
from repro.resilience import BreakerConfig, CircuitBreaker, QuarantineReport, faults
from repro.serve.batching import BatchingConfig, MicroBatcher
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import (
    decode_predict_request,
    decode_scan_request,
    encode_predict_response,
    encode_scan_response,
    request_model_name,
)
from repro.serve.registry import ModelRegistry


class ServeService:
    """Registry + batcher + metrics behind a payload-level API."""

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        batching: Optional[BatchingConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        breaker: Optional[BreakerConfig] = None,
        cache: Optional[object] = None,
        cache_dir=None,
    ) -> None:
        self.metrics = metrics or MetricsRegistry()
        if cache is None and cache_dir is not None:
            from repro.cache import HotspotCache

            cache = HotspotCache(directory=cache_dir, metrics_sink=self.metrics)
        elif cache is not None and getattr(cache, "metrics_sink", None) is None:
            cache.metrics_sink = self.metrics
        #: Shared across every loaded model version: a clip geometry seen
        #: by any request warms features/margins for all later requests.
        self.cache = cache
        if registry is None:
            registry = ModelRegistry(metrics=self.metrics, cache=cache)
        self.registry = registry
        if self.registry.metrics is None:
            self.registry.metrics = self.metrics
        if self.registry.cache is None and cache is not None:
            self.registry.cache = cache
        self.batcher = MicroBatcher(
            self._evaluate_batch, batching or BatchingConfig(), metrics=self.metrics
        )
        self.started_unix = time.time()
        self._requests = self.metrics.counter(
            "serve_requests_total",
            "Requests by endpoint and outcome.",
            labels=("endpoint", "status"),
        )
        self._latency = self.metrics.histogram(
            "serve_request_seconds",
            "End-to-end request latency by endpoint.",
            labels=("endpoint",),
        )
        self._breaker_rejected = self.metrics.counter(
            "serve_breaker_rejected_total",
            "Requests shed by an open per-model circuit breaker.",
            labels=("model",),
        )
        self._breaker_config = breaker or BreakerConfig()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        self._log = get_logger("serve")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServeService":
        self.batcher.start()
        return self

    def close(self, drain: bool = True) -> None:
        self.batcher.close(drain=drain)

    def load_model(self, path, name: Optional[str] = None):
        return self.registry.load(path, name)

    # ------------------------------------------------------------------
    # request accounting (shared with the HTTP layer)
    # ------------------------------------------------------------------
    def record_request(
        self,
        endpoint: str,
        status: int,
        seconds: float,
        request_id: Optional[str] = None,
    ) -> None:
        self._requests.labels(endpoint, status).inc()
        self._latency.labels(endpoint).observe(seconds)
        self._log.info(
            "request",
            endpoint=endpoint,
            status=status,
            seconds=round(seconds, 6),
            request_id=request_id,
        )

    # ------------------------------------------------------------------
    # load shedding
    # ------------------------------------------------------------------
    def breaker_for(self, model: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one model."""
        with self._breakers_lock:
            breaker = self._breakers.get(model)
            if breaker is None:
                breaker = CircuitBreaker(model, self._breaker_config)
                self._breakers[model] = breaker
            return breaker

    def _guarded(self, model: str):
        """Admit a call through the model's breaker (counting rejections)."""
        breaker = self.breaker_for(model)
        try:
            breaker.before_call()
        except ReproError:
            self._breaker_rejected.labels(model).inc()
            raise
        return breaker

    def _record_outcome(self, breaker: CircuitBreaker, exc: Optional[BaseException]) -> None:
        # Backpressure and client deadline misses are load signals, not
        # evidence the model itself is broken — they must not trip the
        # circuit and turn a busy server into an unavailable one.
        if exc is None:
            breaker.record_success()
        elif not isinstance(
            exc, (QueueFullError, RequestTimeoutError, ServerClosedError)
        ):
            breaker.record_failure()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def predict_payload(
        self,
        document: object,
        timeout: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> dict:
        """Handle a ``/v1/predict`` body; returns the response document."""
        entry = self.registry.get(request_model_name(document))
        clips, threshold, _ = decode_predict_request(document, entry.spec)
        flags, margins, resolved = self.predict_clips(
            clips,
            model=entry.name,
            threshold=threshold,
            timeout=timeout,
            request_id=request_id,
        )
        return encode_predict_response(
            entry.name, resolved, flags, margins, request_id=request_id
        )

    def predict_clips(
        self,
        clips: Sequence[Clip],
        model: Optional[str] = None,
        threshold: Optional[float] = None,
        timeout: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Batched clip prediction: (flags, margins, resolved threshold)."""
        entry = self.registry.get(model)
        if threshold is None:
            threshold = entry.detector.config.decision_threshold
        breaker = self._guarded(entry.name)
        try:
            result = self.batcher.submit(
                entry.name,
                list(clips),
                context=float(threshold),
                timeout=timeout,
                request_id=request_id,
            )
        except (KeyboardInterrupt, SystemExit):
            raise  # process shutdown, not a model failure
        except Exception as exc:
            self._record_outcome(breaker, exc)
            self._log.error(
                "predict_failed",
                model=entry.name,
                error_type=type(exc).__name__,
                error=str(exc),
                request_id=request_id,
            )
            raise
        self._record_outcome(breaker, None)
        flags = np.array([flag for flag, _ in result], dtype=bool)
        margins = np.array([margin for _, margin in result], dtype=float)
        return flags, margins, float(threshold)

    def scan_payload(self, document: object, request_id: Optional[str] = None) -> dict:
        """Handle a ``/v1/scan`` body; full-layout detection, unbatched.

        Malformed clip regions are quarantined (skipped and counted on
        the response and ``/metrics``) rather than failing the scan.
        """
        entry = self.registry.get(request_model_name(document))
        layout, layer, threshold, _ = decode_scan_request(document)
        breaker = self._guarded(entry.name)
        quarantine = QuarantineReport()
        try:
            report = entry.detector.detect(
                layout, layer=layer, threshold=threshold, quarantine=quarantine
            )
        except (KeyboardInterrupt, SystemExit):
            raise  # process shutdown, not a model failure
        except Exception as exc:
            self._record_outcome(breaker, exc)
            self._log.error(
                "scan_failed",
                model=entry.name,
                error_type=type(exc).__name__,
                error=str(exc),
                request_id=request_id,
            )
            raise
        self._record_outcome(breaker, None)
        if quarantine:
            self._log.warning(
                "scan_quarantined",
                model=entry.name,
                quarantined=quarantine.total,
                by_kind=quarantine.counts_by_kind(),
                request_id=request_id,
            )
        return encode_scan_response(entry.name, report, request_id=request_id)

    def health(self) -> tuple[bool, dict]:
        """(healthy?, document) — healthy iff a model is loaded and the
        batcher accepts work."""
        models = self.registry.names()
        healthy = bool(models) and not self.batcher.closing
        document = {
            "status": "ok" if healthy else "unavailable",
            "models": models,
            "registry_version": self.registry.signature(),
            "queue_depth": self.batcher.queue_depth(),
            "uptime_seconds": time.time() - self.started_unix,
            "draining": self.batcher.closing,
        }
        return healthy, document

    def models_document(self) -> dict:
        return {"models": self.registry.describe()}

    def metrics_text(self) -> str:
        return self.metrics.render()

    # ------------------------------------------------------------------
    # batched evaluation (runs on batcher worker threads)
    # ------------------------------------------------------------------
    def _evaluate_batch(
        self, group: str, requests: list[tuple[Sequence[Clip], object]]
    ) -> list[list[tuple[bool, float]]]:
        faults.inject("serve.evaluate", group=group)
        entry = self.registry.get(group)
        detector = entry.detector
        if detector.model_ is None:
            raise ServeError(f"model {group!r} has no trained kernels")

        all_clips: list[Clip] = []
        thresholds: list[float] = []
        spans: list[tuple[int, int]] = []
        for clips, threshold in requests:
            start = len(all_clips)
            all_clips.extend(clips)
            thresholds.extend([float(threshold)] * len(clips))
            spans.append((start, len(all_clips)))

        # One judgement of the whole batch, each clip under its request's
        # threshold: the feedback kernel is per-clip, so batching cannot
        # change any verdict, and an erroring feedback kernel degrades to
        # the primary verdicts instead of failing the batch.
        flags, margins = detector.judge_clips(all_clips, thresholds)
        return [
            list(zip(flags[start:stop].tolist(), margins[start:stop].tolist()))
            for start, stop in spans
        ]
