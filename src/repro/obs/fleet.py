"""Cross-process observability for the fleet: trace context + federation.

Three pieces, all stdlib-only at import time:

- **Trace context** — a thread-local ``(request_id, parent span)`` pair
  bound on the receiving side of every fleet RPC and stamped by
  :class:`~repro.fleet.protocol.FleetClient` as ``X-Request-Id`` /
  ``X-Trace-Parent`` headers on the sending side, so one scan's RPCs
  share a single root request id across coordinator, workers, cache
  nodes and front end.
- **Trace merging** — workers ship their finished spans back with each
  shard push as :func:`span_document` dumps;
  :func:`merge_chrome_traces` normalizes every process's
  perf-counter-relative timestamps onto one unix timeline and renders a
  single Chrome trace with one process row per fleet node, all stamped
  with the shared root request id.
- **Metrics federation** — :class:`MetricsAggregator` scrapes each
  member's ``GET /metrics/state`` (the lossless JSON form of its
  :class:`~repro.serve.metrics.MetricsRegistry`) and merges them
  bucket-wise and label-preserving via
  :func:`~repro.serve.metrics.merge_metrics_states` into the fleet-wide
  view the coordinator serves on ``GET /fleet/v1/metrics``.

The trace-context fast path matters: with tracing off and no context
bound, :func:`trace_headers` is a two-attribute check returning a shared
empty dict — the ≤5 % traced-run overhead bar holds because the untraced
wire path allocates nothing.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Optional, Union

from repro.obs.trace import Tracer, get_tracer

#: Wire headers carrying the trace context on every fleet RPC.
REQUEST_ID_HEADER = "X-Request-Id"
TRACE_PARENT_HEADER = "X-Trace-Parent"

_EMPTY_HEADERS: dict = {}

_context = threading.local()


# ----------------------------------------------------------------------
# trace context (thread-local, bound per RPC on the server side)
# ----------------------------------------------------------------------
class _TraceContextBinding:
    """Context manager restoring the previous trace context on exit."""

    __slots__ = ("_previous",)

    def __init__(self, previous: Optional[tuple]) -> None:
        self._previous = previous

    def __enter__(self) -> "_TraceContextBinding":
        return self

    def __exit__(self, *exc) -> bool:
        _context.value = self._previous
        return False


def bind_trace_context(
    request_id: str, parent: Optional[str] = None
) -> _TraceContextBinding:
    """Bind ``(request_id, parent)`` onto this thread until exit.

    Outbound :func:`trace_headers` built on this thread stamp the bound
    id, so the context propagates through any RPC the handler makes in
    turn (worker -> cache, frontend -> replica).  Nests and restores.
    """
    previous = getattr(_context, "value", None)
    _context.value = (str(request_id), str(parent) if parent else None)
    return _TraceContextBinding(previous)


def current_request_id() -> Optional[str]:
    """The request id bound on this thread, or ``None``."""
    value = getattr(_context, "value", None)
    return value[0] if value else None


def current_trace_parent() -> Optional[str]:
    """The trace parent bound on this thread, or ``None``."""
    value = getattr(_context, "value", None)
    return value[1] if value else None


def trace_headers() -> dict:
    """Outbound trace-context headers for one fleet RPC.

    Returns a shared empty dict when no context is bound and tracing is
    off — the hot no-op path.  With a recording tracer installed, the
    current span's id rides along as ``X-Trace-Parent`` so the receiving
    process can link its RPC span back to the caller's.
    """
    value = getattr(_context, "value", None)
    tracer = get_tracer()
    if value is None and not tracer.enabled:
        return _EMPTY_HEADERS
    headers: dict = {}
    if value is not None:
        headers[REQUEST_ID_HEADER] = value[0]
    if tracer.enabled:
        span = tracer.current_span()
        if span is not None:
            headers[TRACE_PARENT_HEADER] = f"{span.name}:{span.span_id}"
        elif value is not None and value[1]:
            headers[TRACE_PARENT_HEADER] = value[1]
    elif value is not None and value[1]:
        headers[TRACE_PARENT_HEADER] = value[1]
    return headers


# ----------------------------------------------------------------------
# span shipping + multi-process trace merging
# ----------------------------------------------------------------------
def span_document(
    tracer: Tracer,
    role: str,
    request_id: Optional[str] = None,
    since: int = 0,
) -> dict:
    """One process's shippable span dump for :func:`merge_chrome_traces`.

    ``since`` skips spans already shipped (workers post incrementally
    after every shard push); ``epoch_unix`` anchors the process's
    perf-counter-relative offsets on the shared unix timeline.
    """
    import os

    spans = tracer.finished()[since:]
    return {
        "role": role,
        "pid": os.getpid(),
        "request_id": request_id,
        "epoch_unix": tracer.epoch_unix,
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
            for s in spans
        ],
    }


def merge_chrome_traces(documents: Iterable[dict]) -> dict:
    """Merge per-process :func:`span_document` dumps into one Chrome trace.

    One process row (``pid``) per distinct *role* — a respawned worker
    reuses its predecessor's row, so a traced kill drill still renders
    one row per node.  Every document's span offsets are rebased from
    its own ``epoch_unix`` onto the earliest epoch across the fleet, so
    rows line up on one wall-clock timeline rooted at the coordinator.
    Process metadata rows carry the shared root request id.
    """
    documents = [doc for doc in documents if doc and doc.get("spans") is not None]
    if not documents:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    root_epoch = min(float(doc.get("epoch_unix", 0.0)) for doc in documents)
    request_ids = [str(doc["request_id"]) for doc in documents if doc.get("request_id")]
    root_request = request_ids[0] if request_ids else None

    # Stable row order: coordinator first, then the standby (the
    # failover pair reads top-down), then roles alphabetically.
    roles: list[str] = []
    for doc in documents:
        role = str(doc.get("role", "?"))
        if role not in roles:
            roles.append(role)
    roles.sort(key=lambda r: (r != "coordinator", r != "standby", r))
    row_of = {role: index + 1 for index, role in enumerate(roles)}

    events: list[dict] = []
    for role in roles:
        args: dict = {"name": role}
        if root_request:
            args["request_id"] = root_request
        events.append(
            {"name": "process_name", "ph": "M", "pid": row_of[role], "tid": 0,
             "args": dict(args)}
        )
        events.append(
            {"name": "process_sort_index", "ph": "M", "pid": row_of[role],
             "tid": 0, "args": {"sort_index": row_of[role]}}
        )

    # Threads collide across processes sharing a role row (a respawned
    # worker has fresh thread ids anyway); map each (source pid, thread)
    # to a small per-role tid so rows stay compact and deterministic.
    tids: dict[tuple, int] = {}
    for doc in documents:
        role = str(doc.get("role", "?"))
        pid = row_of[role]
        shift_us = (float(doc.get("epoch_unix", root_epoch)) - root_epoch) * 1e6
        source_pid = doc.get("pid", 0)
        for span in doc.get("spans", ()):
            thread_key = (role, source_pid, span.get("thread", 0))
            tid = tids.setdefault(thread_key, len(tids) + 1)
            args = dict(span.get("attrs") or {})
            args["cpu_s"] = span.get("cpu_s", 0.0)
            if span.get("status", "ok") != "ok":
                args["status"] = span["status"]
                args["error"] = span.get("error")
            if root_request:
                args["request_id"] = root_request
            name = str(span.get("name", "?"))
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round(
                        shift_us + float(span.get("start_s", 0.0)) * 1e6, 3
                    ),
                    "dur": round(float(span.get("wall_s", 0.0)) * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
    merged: dict = {"traceEvents": events, "displayTimeUnit": "ms"}
    if root_request:
        merged["metadata"] = {"request_id": root_request, "processes": roles}
    return merged


# ----------------------------------------------------------------------
# metrics federation
# ----------------------------------------------------------------------
class MetricsAggregator:
    """Scrape registered members' metrics states and merge them.

    Members are either a URL (scraped over HTTP via ``GET
    /metrics/state``) or a zero-argument callable returning a state dict
    (the in-process role, e.g. the coordinator's own registry).  The
    merged view keeps every family's labels and adds one
    ``fleet_member_up{member=...}`` gauge per member so a dashboard sees
    scrape failures instead of silently shrinking totals.
    """

    def __init__(self, timeout_s: float = 3.0) -> None:
        self.timeout_s = timeout_s
        self._members: dict[str, Union[str, Callable[[], dict]]] = {}
        self._lock = threading.Lock()

    def register(self, name: str, source: Union[str, Callable[[], dict]]) -> None:
        with self._lock:
            self._members[name] = source

    def members(self) -> list[str]:
        with self._lock:
            return sorted(self._members)

    # ------------------------------------------------------------------
    def scrape(self) -> dict[str, Optional[dict]]:
        """Every member's state (``None`` for an unreachable member)."""
        with self._lock:
            members = dict(self._members)
        out: dict[str, Optional[dict]] = {}
        for name, source in sorted(members.items()):
            out[name] = self._scrape_one(source)
        return out

    def _scrape_one(self, source: Union[str, Callable[[], dict]]) -> Optional[dict]:
        if callable(source):
            try:
                state = source()
            except Exception:
                return None
            return state if isinstance(state, dict) else None
        from repro.fleet.protocol import FleetClient

        try:
            status, document = FleetClient(
                str(source), timeout=self.timeout_s
            ).get_json("/metrics/state")
        except Exception:
            return None
        return document if status == 200 else None

    def merged(self) -> "Any":
        """One merged :class:`~repro.serve.metrics.MetricsRegistry`.

        Counters/histograms merge bucket-wise and label-preserving; a
        member whose state fails to scrape or to merge is reported down
        via ``fleet_member_up`` and excluded from the totals.
        """
        from repro.serve.metrics import MetricsRegistry

        merged = MetricsRegistry(namespace="")
        up = merged.gauge(
            "fleet_member_up",
            "1 when the member's last metrics scrape merged cleanly.",
            labels=("member",),
        )
        for name, state in self.scrape().items():
            ok = False
            if state is not None:
                try:
                    merged.absorb_state(state)
                    ok = True
                except ValueError:
                    ok = False
            up.labels(name).set(1.0 if ok else 0.0)
        return merged

    def render(self) -> str:
        """The merged fleet view in Prometheus text exposition format."""
        return self.merged().render()
