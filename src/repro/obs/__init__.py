"""repro.obs — tracing, structured logging, and run manifests.

Zero-dependency (stdlib only) observability for the hotspot pipeline:

- :func:`trace` / :class:`Tracer` — hierarchical spans with wall + CPU
  time, JSON and Chrome ``chrome://tracing`` export, and an optional
  bridge into a metrics registry (pipeline-stage histograms).
- :func:`get_logger` / :func:`configure_logging` — JSON-lines logs with
  run-scoped bound context; off by default.
- :class:`RunManifest` — the per-run artifact (config, dataset
  fingerprint, stage timings, headline metrics) rendered and compared
  by ``repro report``.

See ``docs/OBSERVABILITY.md`` for the full tour.
"""

from .logs import (
    StructuredLogger,
    configure as configure_logging,
    get_logger,
    log_context,
)
from .manifest import (
    RunManifest,
    config_summary,
    environment_summary,
    fingerprint_clipset,
    fingerprint_layout,
    fingerprint_rects,
    fingerprint_rows,
    new_request_id,
    new_run_id,
)
from .report import compare_manifests, render_manifest
from .trace import (
    NULL_TRACER,
    STAGE_BUCKETS,
    STAGE_METRIC,
    NullTracer,
    Span,
    Tracer,
    enabled,
    get_tracer,
    set_tracer,
    tally,
    trace,
    traced,
)
from .fleet import (
    REQUEST_ID_HEADER,
    TRACE_PARENT_HEADER,
    MetricsAggregator,
    bind_trace_context,
    current_request_id,
    current_trace_parent,
    merge_chrome_traces,
    span_document,
    trace_headers,
)

__all__ = [
    "NULL_TRACER",
    "REQUEST_ID_HEADER",
    "STAGE_BUCKETS",
    "STAGE_METRIC",
    "TRACE_PARENT_HEADER",
    "MetricsAggregator",
    "NullTracer",
    "RunManifest",
    "Span",
    "StructuredLogger",
    "Tracer",
    "bind_trace_context",
    "compare_manifests",
    "config_summary",
    "configure_logging",
    "current_request_id",
    "current_trace_parent",
    "enabled",
    "environment_summary",
    "fingerprint_clipset",
    "fingerprint_layout",
    "fingerprint_rects",
    "fingerprint_rows",
    "get_logger",
    "get_tracer",
    "log_context",
    "merge_chrome_traces",
    "new_request_id",
    "new_run_id",
    "render_manifest",
    "set_tracer",
    "span_document",
    "tally",
    "trace",
    "traced",
]
