"""Hierarchical span tracing for the hotspot pipeline.

A :class:`Tracer` records *spans*: named, nested intervals with wall and
CPU time plus arbitrary attributes (cluster counts, kernel rounds, clips
filtered).  Call sites use the module-level :func:`trace` context
manager::

    from repro.obs import trace

    with trace("train.kernels", kernels=len(jobs)) as span:
        ...
        span.set(rounds=total_rounds)

Nesting is tracked per thread (a thread-local span stack), so spans
recorded from worker threads become roots of their own thread row — the
Chrome trace viewer renders one row per ``tid`` anyway.

Tracing is **off by default**: the module-level current tracer is a
:class:`NullTracer` whose ``span()`` returns one shared no-op context
manager, so an uninstrumented run pays a single attribute lookup and
function call per stage — nothing is allocated and nothing is recorded.
Hot per-clip paths additionally guard on :func:`enabled` before doing
any timing work (see :mod:`repro.mtcg.features`).

A tracer can bridge into a Prometheus-style metrics registry
(:class:`repro.serve.metrics.MetricsRegistry` or anything with the same
``histogram(name, help, labels=...)`` surface): every finished span and
tally is observed into one ``pipeline_stage_seconds{stage=...}``
histogram family, so a serving process with tracing on exposes per-stage
latency through ``GET /metrics``.

Exports: :meth:`Tracer.export_chrome` emits the Chrome
``chrome://tracing`` / Perfetto event format (``ph: "X"`` complete
events, microsecond timestamps); :meth:`Tracer.export_json` a plain
span dump for programmatic diffing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Iterable, Optional

#: Bucket bounds (seconds) for pipeline-stage histograms — stages range
#: from sub-millisecond feature extractions to multi-minute kernel fits.
STAGE_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)

#: Name of the bridged metrics family (namespaced by the registry).
STAGE_METRIC = "pipeline_stage_seconds"


class Span:
    """One named, timed interval with attributes.

    Spans are context managers handed out by :meth:`Tracer.span`; use
    :meth:`set` inside the ``with`` block to attach result attributes
    (counts, parameters).  An exception escaping the block marks the
    span ``status="error"`` and re-raises.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "thread_id",
        "start_unix",
        "start_offset_s",
        "wall_s",
        "cpu_s",
        "attrs",
        "status",
        "error",
        "_tracer",
        "_cpu0",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.thread_id = 0
        self.start_unix = 0.0
        self.start_offset_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.attrs = attrs
        self.status = "ok"
        self.error: Optional[str] = None
        self._cpu0 = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on the running span."""
        self.attrs.update(attrs)
        return self

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer._next_id()
        self.thread_id = threading.get_ident()
        stack = tracer._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self.start_unix = time.time()
        self._cpu0 = time.process_time()
        self.start_offset_s = time.perf_counter() - tracer.epoch_perf
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._tracer.epoch_perf - self.start_offset_s
        self.cpu_s = time.process_time() - self._cpu0
        if exc is not None:
            self.status = "error"
            self.error = f"{type(exc).__name__}: {exc}"
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._record(self)
        return False  # never swallow


class _NullSpan:
    """The shared do-nothing span; reentrant and stateless."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``span()`` hands out the one shared :data:`NULL_SPAN`, so the
    disabled path allocates nothing per call.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def tally(self, name: str, seconds: float = 0.0, count: int = 1) -> None:
        pass

    def stage_totals(self) -> dict:
        return {}

    def finished(self) -> list:
        return []


NULL_TRACER = NullTracer()


class Tracer:
    """A recording tracer: thread-local span stacks, bounded span store.

    Parameters
    ----------
    metrics:
        Optional metrics registry; finished spans and tallies are
        observed into the ``pipeline_stage_seconds{stage=...}``
        histogram family (see :data:`STAGE_METRIC`).
    max_spans:
        Hard cap on stored spans; beyond it spans still time and bridge
        into metrics but are not retained (``dropped`` counts them).
    """

    enabled = True

    def __init__(self, metrics: Optional[object] = None, max_spans: int = 100_000):
        self.metrics = metrics
        self.max_spans = max_spans
        self.epoch_perf = time.perf_counter()
        self.epoch_unix = time.time()
        self.dropped = 0
        self._spans: list[Span] = []
        self._tallies: dict[str, list] = {}  # name -> [count, wall_s]
        self._lock = threading.Lock()
        self._seq = 0
        self._local = threading.local()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def tally(self, name: str, seconds: float = 0.0, count: int = 1) -> None:
        """Aggregate a hot-path timing without allocating a span."""
        with self._lock:
            entry = self._tallies.get(name)
            if entry is None:
                self._tallies[name] = [count, seconds]
            else:
                entry[0] += count
                entry[1] += seconds
        self._observe_metric(name, seconds)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) < self.max_spans:
                self._spans.append(span)
            else:
                self.dropped += 1
        self._observe_metric(span.name, span.wall_s)

    def _observe_metric(self, stage: str, seconds: float) -> None:
        if self.metrics is None:
            return
        try:
            self.metrics.histogram(
                STAGE_METRIC,
                "Wall seconds per pipeline stage (span durations).",
                labels=("stage",),
                buckets=STAGE_BUCKETS,
            ).labels(stage).observe(seconds)
        except Exception:
            # Observability must never take the pipeline down with it.
            self.metrics = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def finished(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._tallies.clear()
            self.dropped = 0

    def stage_totals(self) -> dict[str, dict]:
        """Aggregate wall/CPU seconds and call counts per span name."""
        totals: dict[str, dict] = {}
        for span in self.finished():
            entry = totals.setdefault(
                span.name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
            )
            entry["count"] += 1
            entry["wall_s"] += span.wall_s
            entry["cpu_s"] += span.cpu_s
        with self._lock:
            tallies = {name: list(v) for name, v in self._tallies.items()}
        for name, (count, wall) in tallies.items():
            entry = totals.setdefault(
                name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
            )
            entry["count"] += count
            entry["wall_s"] += wall
        return {
            name: {
                "count": entry["count"],
                "wall_s": round(entry["wall_s"], 6),
                "cpu_s": round(entry["cpu_s"], 6),
            }
            for name, entry in sorted(totals.items())
        }

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export_json(self) -> dict:
        """Plain span dump: one dict per span, parent-linked by id."""
        return {
            "epoch_unix": self.epoch_unix,
            "dropped": self.dropped,
            "spans": [
                {
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "name": s.name,
                    "thread": s.thread_id,
                    "start_s": round(s.start_offset_s, 6),
                    "wall_s": round(s.wall_s, 6),
                    "cpu_s": round(s.cpu_s, 6),
                    "status": s.status,
                    "error": s.error,
                    "attrs": s.attrs,
                }
                for s in self.finished()
            ],
            "tallies": self.stage_totals(),
        }

    def export_chrome(self) -> dict:
        """The Chrome ``chrome://tracing`` / Perfetto event document."""
        pid = os.getpid()
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "repro hotspot pipeline"},
            }
        ]
        for span in self.finished():
            args = {key: _json_safe(value) for key, value in span.attrs.items()}
            args["cpu_s"] = round(span.cpu_s, 6)
            if span.status != "ok":
                args["status"] = span.status
                args["error"] = span.error
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round(span.start_offset_s * 1e6, 3),
                    "dur": round(span.wall_s * 1e6, 3),
                    "pid": pid,
                    "tid": span.thread_id,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.export_chrome(), handle)


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


# ----------------------------------------------------------------------
# module-level current tracer
# ----------------------------------------------------------------------

_active: object = NULL_TRACER


def get_tracer():
    """The process-wide current tracer (a :class:`NullTracer` when off)."""
    return _active


def set_tracer(tracer: Optional[object]):
    """Install ``tracer`` as the current tracer; ``None`` disables.

    Returns the installed tracer so call sites can write
    ``tracer = set_tracer(Tracer())``.
    """
    global _active
    _active = NULL_TRACER if tracer is None else tracer
    return _active


def enabled() -> bool:
    """True when a recording tracer is installed — the hot-path guard."""
    return _active.enabled


def trace(name: str, **attrs: Any):
    """A span on the current tracer (no-op context manager when off)."""
    return _active.span(name, **attrs)


def tally(name: str, seconds: float = 0.0, count: int = 1) -> None:
    """Aggregate a hot-path timing on the current tracer."""
    _active.tally(name, seconds, count)


def traced(name: Optional[str] = None) -> Callable:
    """Decorator form: wraps the callable in a span named after it."""

    def decorate(func: Callable) -> Callable:
        span_name = name or func.__qualname__

        def wrapper(*args, **kwargs):
            with _active.span(span_name):
                return func(*args, **kwargs)

        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        return wrapper

    return decorate
