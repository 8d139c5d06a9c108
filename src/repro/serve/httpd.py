"""The HTTP front end of the serving facade.

:class:`HotspotServer` routes requests into a
:class:`~repro.serve.service.ServeService` and runs as one more app on
the fleet's HTTP stack (:class:`~repro.fleet.protocol.FleetHTTPServer`),
so it shares its handler, request-id echo and body limit with every
fleet role.  Endpoints:

- ``POST /v1/predict`` — batched clip prediction;
- ``POST /v1/scan``    — full-layout detection;
- ``GET  /v1/models``  — loaded model versions;
- ``GET  /healthz``    — liveness/readiness (``503`` when no model);
- ``GET  /metrics``    — Prometheus text metrics.

Error mapping: malformed payload -> ``400``; unknown model or route ->
``404``; body over :data:`MAX_BODY_BYTES` -> ``413``; queue full
(backpressure) -> ``429``; open circuit breaker or draining -> ``503``;
request timeout -> ``504``.  ``429``/``503`` responses carry a
``Retry-After`` header so well-behaved clients back off.  Every error
body is the structured JSON envelope ``{"error": {"code", "message"}}``.

Shutdown is graceful: ``stop()`` (run by the CLI on SIGTERM/SIGINT)
stops accepting connections, then drains the batching queue so every
in-flight request gets its response.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import (
    CircuitOpenError,
    InputError,
    ModelNotFoundError,
    QueueFullError,
    RequestTimeoutError,
    ServeError,
    ServerClosedError,
)
from repro.fleet.protocol import (
    JSON_TYPE,
    METRICS_TEXT_TYPE,
    FleetHTTPServer,
    encode_error,
)
from repro.obs import current_request_id, get_logger
from repro.serve.protocol import ProtocolError
from repro.serve.service import ServeService

#: Request bodies above this are refused unread with ``413`` (64 MiB).
MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class ServerConfig:
    """Network knobs of the HTTP front end."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (tests); read ``server.port`` after
    #: ``start()``.
    port: int = 0


#: Retry-After (seconds) advertised with backpressure rejections.
QUEUE_FULL_RETRY_AFTER_S = 1.0
DRAINING_RETRY_AFTER_S = 2.0


def _error_status(exc: BaseException) -> tuple[int, str, Optional[float]]:
    """Map an exception to (HTTP status, error code, Retry-After seconds)."""
    if isinstance(exc, ProtocolError):
        return 400, "bad_request", None
    if isinstance(exc, ModelNotFoundError):
        return 404, "model_not_found", None
    if isinstance(exc, QueueFullError):
        return 429, "queue_full", QUEUE_FULL_RETRY_AFTER_S
    if isinstance(exc, CircuitOpenError):
        return 503, "circuit_open", exc.retry_after_s
    if isinstance(exc, ServerClosedError):
        return 503, "shutting_down", DRAINING_RETRY_AFTER_S
    if isinstance(exc, RequestTimeoutError):
        return 504, "timeout", None
    if isinstance(exc, InputError):
        return 400, "bad_geometry", None
    if isinstance(exc, ServeError):
        return 500, "serve_error", None
    return 500, "internal_error", None


def _json_body(body: bytes) -> object:
    if not body:
        raise ProtocolError("request requires a JSON body")
    try:
        return json.loads(body)
    except ValueError as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc


class HotspotServer:
    """A running (or startable) HTTP inference server."""

    #: Read by the HTTP handler: larger bodies are refused unread.
    max_body_bytes = MAX_BODY_BYTES

    def __init__(
        self,
        service: ServeService,
        config: Optional[ServerConfig] = None,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.config = config or ServerConfig()
        #: Read by the HTTP handler: write the stdlib access log.
        self.verbose = verbose
        self._http: Optional[FleetHTTPServer] = None

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def _health(self, body: bytes, request_id: str) -> tuple:
        healthy, document = self.service.health()
        return (200 if healthy else 503), document, JSON_TYPE

    def _metrics(self, body: bytes, request_id: str) -> tuple:
        return 200, self.service.metrics_text(), METRICS_TEXT_TYPE

    def _models(self, body: bytes, request_id: str) -> tuple:
        return 200, self.service.models_document(), JSON_TYPE

    def _predict(self, body: bytes, request_id: str) -> tuple:
        document = self.service.predict_payload(
            _json_body(body), request_id=request_id
        )
        return 200, document, JSON_TYPE

    def _scan(self, body: bytes, request_id: str) -> tuple:
        document = self.service.scan_payload(_json_body(body), request_id=request_id)
        return 200, document, JSON_TYPE

    _ROUTES = {
        ("GET", "/healthz"): _health,
        ("GET", "/metrics"): _metrics,
        ("GET", "/v1/models"): _models,
        ("POST", "/v1/predict"): _predict,
        ("POST", "/v1/scan"): _scan,
    }

    def handle(self, method: str, path: str, body: bytes, headers) -> tuple:
        """Answer one request: ``(status, payload, content_type[, headers])``."""
        path = path.split("?", 1)[0]
        # The handler binds the request's own id (sent or minted).
        request_id = current_request_id()
        route = self._ROUTES.get((method, path))
        if route is None:
            return (
                404,
                encode_error("not_found", f"no route {path!r}", request_id),
                JSON_TYPE,
            )
        started = time.perf_counter()
        status = 500
        try:
            status, payload, content_type = route(self, body, request_id)
            return status, payload, content_type
        except Exception as exc:  # mapped to HTTP codes
            status, code, retry_after = _error_status(exc)
            if status >= 500:
                get_logger("serve.httpd").error(
                    "request_failed",
                    endpoint=path,
                    code=code,
                    error_type=type(exc).__name__,
                    error=str(exc),
                    request_id=request_id,
                )
            # Integral seconds per RFC 9110; never advertise zero.
            extra = (
                {}
                if retry_after is None
                else {"Retry-After": str(max(1, round(retry_after)))}
            )
            return status, encode_error(code, str(exc), request_id), JSON_TYPE, extra
        finally:
            self.service.record_request(
                path, status, time.perf_counter() - started, request_id=request_id
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._http is None:
            raise ServeError("server not started")
        return self._http.port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "HotspotServer":
        """Bind the socket and serve on a background thread."""
        if self._http is not None:
            return self
        self.service.start()
        # Stopping leaves live connections open: handler threads may
        # still be writing drained responses, and graceful shutdown
        # promises every in-flight request its answer.
        self._http = FleetHTTPServer(
            self, self.config.host, self.config.port, sever_on_stop=False
        ).start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: close the listener, drain the queue."""
        if self._http is None:
            return
        self._http.stop()
        self.service.close(drain=drain)
        self._http = None

    # Context-manager sugar for tests and the benchmark.
    def __enter__(self) -> "HotspotServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
