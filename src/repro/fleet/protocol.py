"""Wire format + the one HTTP stack every HTTP role runs on.

Every HTTP role speaks two payload kinds over plain HTTP/1.1:

- **JSON documents** for control traffic (leases, heartbeats, membership,
  status) and for the serve API (:mod:`repro.serve`);
- **RPCB1 blobs** for bulk data (pushed shard npz archives, remote cache
  entries) — the cache tier's sha256-enveloped format
  (:func:`repro.cache.wrap_blob` / :func:`repro.cache.open_blob`), so
  every bulk payload is digest-verified on both ends of the wire and a
  corrupt transfer degrades to a miss/retry, never to wrong margins.

Servers subclass nothing: a role implements ``handle(method, path,
body, headers) -> (status, payload, content_type[, extra headers])``
and wraps itself in :class:`FleetHTTPServer`.  The coordinator, its
standby, cache nodes, the serving front end and every ``repro serve``
replica (:class:`repro.serve.httpd.HotspotServer`) run on this one
handler; peers call them through :class:`FleetClient`.  The handler
refuses an over-limit body unread (``413``), echoes the request's own
``X-Request-Id`` on every answer, and answers its own errors with the
``{"error": {"code", "message"}}`` envelope.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.errors import FleetError, FleetProtocolError, TransientError
from repro.obs import get_logger, log_context, new_request_id, trace
from repro.obs.fleet import (
    REQUEST_ID_HEADER,
    TRACE_PARENT_HEADER,
    bind_trace_context,
    trace_headers,
)
from repro.obs.trace import enabled as _tracing_enabled
from repro.resilience import faults

#: Bump on breaking fleet wire-format changes; exchanged in every
#: ``/fleet/v1/config`` handshake.
FLEET_PROTOCOL_VERSION = 1

#: Request bodies above this are refused unread with ``413``.  An app
#: with a tighter limit sets its own ``max_body_bytes``.
MAX_BLOB_BYTES = 256 * 1024 * 1024

JSON_TYPE = "application/json"
BLOB_TYPE = "application/x-repro-blob"

_log = get_logger("fleet.protocol")


def encode_error(code: str, message: str, request_id: Optional[str] = None) -> dict:
    """The structured error envelope of the handler's own answers and
    of every non-2xx serve response."""
    document: dict = {"error": {"code": code, "message": message}}
    if request_id is not None:
        document["request_id"] = request_id
    return document


# ----------------------------------------------------------------------
# server side
# ----------------------------------------------------------------------
class ReuseAddrHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server that rebinds cleanly and reports its port.

    ``SO_REUSEADDR`` lets tests (and the fleet's many localhost servers)
    rebind an address still in ``TIME_WAIT`` without races; binding port
    ``0`` picks an ephemeral port whose real value is reflected back into
    ``server_address`` by the stdlib after ``server_bind``.  Handler
    threads are daemonic so a hung connection never blocks interpreter
    exit.

    Open connections are tracked so :meth:`close_connections` can sever
    live HTTP/1.1 keep-alive peers: ``server_close()`` only closes the
    *listening* socket, and a "stopped" server whose handler threads
    keep answering persistent connections is a zombie — the exact
    split-brain failure the fleet's leader-epoch fence exists for.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._open_connections: set = set()
        self._connections_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._open_connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._open_connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Sever every live keep-alive connection (called on stop)."""
        with self._connections_lock:
            connections = list(self._open_connections)
            self._open_connections.clear()
        for request in connections:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closing on its own


class _Handler(BaseHTTPRequestHandler):
    """Routes every request into the owning server's app."""

    protocol_version = "HTTP/1.1"
    server_version = "repro"

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        # Roles log through repro.obs; an app with ``verbose`` set (``repro
        # serve --verbose``) also gets the stdlib access log on stderr.
        if getattr(self.server.app, "verbose", False):  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _dispatch(self, method: str) -> None:
        # Trace context: adopt the caller's request id (or mint one) and
        # bind it into this thread's log context + span stack for the
        # duration of the handler, echoing it on every response — the
        # 413/400/500 error paths included.
        request_id = (self.headers.get(REQUEST_ID_HEADER, "") or "").strip()
        request_id = request_id or new_request_id()
        parent = (self.headers.get(TRACE_PARENT_HEADER, "") or "").strip() or None
        app = self.server.app  # type: ignore[attr-defined]
        limit = getattr(app, "max_body_bytes", MAX_BLOB_BYTES)
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
            if length > limit:
                # Refused unread; the unread bytes would be parsed as the
                # next request, so this connection closes after the answer.
                answer: tuple = (
                    413,
                    encode_error(
                        "payload_too_large",
                        f"request body exceeds {limit} bytes",
                        request_id,
                    ),
                    JSON_TYPE,
                    {"Connection": "close"},
                )
            else:
                body = self.rfile.read(length) if length > 0 else b""
                with bind_trace_context(request_id, parent), log_context(
                    request_id=request_id
                ):
                    if _tracing_enabled():
                        with trace(
                            "fleet.rpc",
                            method=method,
                            path=self.path.split("?", 1)[0],
                            request_id=request_id,
                            **({"trace_parent": parent} if parent else {}),
                        ):
                            answer = app.handle(method, self.path, body, self.headers)
                    else:
                        answer = app.handle(method, self.path, body, self.headers)
        except FleetProtocolError as exc:
            answer = 400, encode_error("bad_request", str(exc), request_id), JSON_TYPE
        except Exception as exc:  # one bad request never kills the server
            _log.error(
                "fleet_request_failed",
                path=self.path,
                request_id=request_id,
                error_type=type(exc).__name__,
                error=str(exc),
            )
            answer = (
                500, encode_error("internal_error", str(exc), request_id), JSON_TYPE
            )
        self._respond(request_id, *answer)

    def _respond(
        self,
        request_id: str,
        status: int,
        payload,
        content_type: str = JSON_TYPE,
        headers: Optional[dict] = None,
    ) -> None:
        if isinstance(payload, (dict, list)):
            body = json.dumps(payload).encode("utf-8")
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = payload or b""
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.send_header(REQUEST_ID_HEADER, request_id)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # peer vanished mid-response; its retry will re-ask

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802 — stdlib naming
        self._dispatch("PUT")


class FleetHTTPServer:
    """A background-thread HTTP server around one app object.

    ``app.handle(method, path, body, headers)`` returns ``(status,
    payload, content_type)`` where payload is a JSON-able document, text
    or raw bytes; an optional fourth element holds extra response
    headers (``Retry-After``).  The app may set ``max_body_bytes`` (the
    default is :data:`MAX_BLOB_BYTES`) and ``verbose`` (stdlib access
    log).  Port ``0`` binds ephemerally; read ``.url`` after
    ``start()``.

    ``stop()`` severs live keep-alive connections, so a stopped fleet
    role is not a zombie still answering its peers.  ``sever_on_stop=
    False`` leaves them open instead, so handler threads still write
    the answers a draining app owes its in-flight requests (the serve
    front end).
    """

    def __init__(
        self,
        app,
        host: str = "127.0.0.1",
        port: int = 0,
        sever_on_stop: bool = True,
    ) -> None:
        self.app = app
        self.host = host
        self._port = port
        self._sever_on_stop = sever_on_stop
        self._httpd: Optional[ReuseAddrHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise FleetError("fleet server not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "FleetHTTPServer":
        if self._httpd is not None:
            return self
        self._httpd = ReuseAddrHTTPServer((self.host, self._port), _Handler)
        self._httpd.app = self.app  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"repro-fleet-{type(self.app).__name__}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._sever_on_stop:
            self._httpd.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "FleetHTTPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# client side
# ----------------------------------------------------------------------
class FleetClient:
    """Thread-safe JSON/blob HTTP client for one fleet peer.

    Transport errors retry once on a fresh socket (stale keep-alive),
    then surface as :class:`~repro.errors.TransientError` so callers'
    retry policies treat a flapping peer like any other transient.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        parsed = urllib.parse.urlsplit(url)
        netloc = parsed.netloc or parsed.path
        if ":" not in netloc:
            raise FleetError(f"fleet URL needs host:port, got {url!r}")
        host, port = netloc.rsplit(":", 1)
        self.url = url.rstrip("/")
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
        return conn

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: str = JSON_TYPE,
        headers: Optional[dict] = None,
    ) -> tuple[int, bytes, str]:
        """One HTTP round trip: (status, payload bytes, content type)."""
        status, payload, response_headers = self.request_full(
            method, path, body, content_type, headers
        )
        return status, payload, response_headers.get("Content-Type", "")

    def request_full(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: str = JSON_TYPE,
        headers: Optional[dict] = None,
    ) -> tuple[int, bytes, dict]:
        """Like :meth:`request`, but returns the full response headers.

        Every outbound request is stamped with the thread's trace
        context (``X-Request-Id`` / ``X-Trace-Parent``) when one is
        bound — :func:`repro.obs.fleet.trace_headers` is a no-op dict
        on the untraced path.  Explicit ``headers`` win over stamped
        ones (the frontend forwards its caller's request id verbatim).
        """
        # Chaos point: ``fleet.partition.<host>_<port>`` simulates a
        # network partition toward this one peer — an ``error`` plan
        # makes every RPC to it raise TransientError, which is exactly
        # what a worker sees when its coordinator drops off the network
        # (and what drives its re-homing).  Pattern rules cover a whole
        # peer set: ``fleet.partition.*_8990=error:1.0``.
        if faults.get() is not None:
            faults.inject(f"fleet.partition.{self.host}_{self.port}", path=path)
        merged = dict(trace_headers())
        if body is not None:
            merged["Content-Type"] = content_type
        if headers:
            merged.update(headers)
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=merged)
                response = conn.getresponse()
                payload = response.read()
                return response.status, payload, dict(response.headers.items())
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self.close()
                if attempt:
                    raise TransientError(
                        f"fleet peer {self.url} unreachable: {exc}"
                    ) from exc
        raise AssertionError("unreachable")

    def get_json(self, path: str) -> tuple[int, dict]:
        status, payload, _ = self.request("GET", path)
        return status, _decode_json(payload)

    def post_json(self, path: str, document: dict) -> tuple[int, dict]:
        status, payload, _ = self.request(
            "POST", path, json.dumps(document).encode("utf-8")
        )
        return status, _decode_json(payload)

    def post_blob(self, path: str, blob: bytes) -> tuple[int, dict]:
        status, payload, _ = self.request("POST", path, blob, BLOB_TYPE)
        return status, _decode_json(payload)

    def get_blob(self, path: str) -> tuple[int, bytes]:
        """Fetch a raw RPCB1 blob (the standby's shard-mirror path)."""
        status, payload, _ = self.request("GET", path)
        return status, payload


def json_body(body: bytes) -> dict:
    """A request's JSON object body (``{}`` when empty).

    A body that is not JSON, or not an object, raises
    :class:`~repro.errors.FleetProtocolError`, which the shared handler
    answers ``400 bad_request``.
    """
    try:
        document = json.loads(body or b"{}")
    except ValueError as exc:
        raise FleetProtocolError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise FleetProtocolError("request body must be a JSON object")
    return document


def _decode_json(payload: bytes) -> dict:
    if not payload:
        return {}
    try:
        document = json.loads(payload)
    except ValueError as exc:
        raise FleetProtocolError(f"peer sent invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise FleetProtocolError("peer sent a non-object JSON document")
    return document


#: Content type of the Prometheus text exposition format.
METRICS_TEXT_TYPE = "text/plain; version=0.0.4"


def metrics_routes(registry, method: str, path: str) -> Optional[tuple]:
    """The two metrics routes every fleet role serves, or ``None``.

    - ``GET /metrics`` — Prometheus text exposition (human/scraper);
    - ``GET /metrics/state`` — the lossless JSON state
      (:meth:`~repro.serve.metrics.MetricsRegistry.export_state`) the
      :class:`~repro.obs.fleet.MetricsAggregator` federates from.

    Roles call this first in ``handle`` and fall through on ``None``.
    """
    if method != "GET":
        return None
    if path == "/metrics":
        return 200, registry.render(), METRICS_TEXT_TYPE
    if path == "/metrics/state":
        return 200, registry.export_state(), JSON_TYPE
    return None


def wait_until(
    predicate: Callable[[], bool], timeout_s: float, interval_s: float = 0.05
) -> bool:
    """Poll ``predicate`` until true or ``timeout_s`` elapses."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()
