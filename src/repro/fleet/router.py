"""Request routing: consistent hashing for blobs, round-robin for RPCs.

Two small primitives plus the serving front end built on them:

- :class:`HashRing` — consistent hashing over node names.  Cache
  content keys are sha256 hex, so hashing them onto a ring of cache
  nodes spreads blobs evenly, and adding/removing one node only remaps
  the keys that landed on it (the rest of the fleet's warm tier stays
  warm).
- :class:`RoundRobin` — a thread-safe rotating cursor for stateless
  RPCs where any healthy peer will do.
- :class:`FleetFrontend` — the thin HTTP front end that round-robins
  ``/v1/predict`` across the healthy serve replicas registered in a
  :class:`~repro.fleet.membership.MemberTable`, retrying the next
  replica when one drops mid-request (prediction is idempotent).
"""

from __future__ import annotations

import bisect
import itertools
import threading
import time
from hashlib import sha256
from typing import Optional, Sequence

from repro.errors import FleetError, TransientError
from repro.fleet.membership import MemberTable
from repro.fleet.protocol import JSON_TYPE, FleetClient, json_body, metrics_routes
from repro.obs import REQUEST_ID_HEADER, current_request_id, get_logger
from repro.serve.metrics import MetricsRegistry

_log = get_logger("fleet.router")


class HashRing:
    """Consistent-hash ring over node names.

    Each node is hashed onto the ring at ``replicas`` virtual points
    (sha256 of ``"node:i"``), and a key routes to the first node point
    clockwise of the key's own hash.  ``nodes_for`` walks onward around
    the ring, yielding a deterministic fallback order that skips nothing
    and repeats nothing — the lookup path when the primary is down.
    """

    def __init__(self, nodes: Sequence[str], replicas: int = 64) -> None:
        self.replicas = replicas
        self._points: list[tuple[int, str]] = []
        for node in nodes:
            for i in range(replicas):
                point = int.from_bytes(
                    sha256(f"{node}:{i}".encode("utf-8")).digest()[:8], "big"
                )
                self._points.append((point, node))
        self._points.sort()
        self._keys = [point for point, _ in self._points]
        self.nodes = sorted(set(nodes))

    def __len__(self) -> int:
        return len(self.nodes)

    def _key_point(self, key: str) -> int:
        return int.from_bytes(sha256(key.encode("utf-8")).digest()[:8], "big")

    def node_for(self, key: str) -> str:
        """The primary node of one content key."""
        if not self._points:
            raise FleetError("hash ring has no nodes")
        index = bisect.bisect_right(self._keys, self._key_point(key))
        return self._points[index % len(self._points)][1]

    def nodes_for(self, key: str) -> list[str]:
        """Every node, primary first, in deterministic fallback order."""
        if not self._points:
            return []
        start = bisect.bisect_right(self._keys, self._key_point(key))
        seen: list[str] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in seen:
                seen.append(node)
                if len(seen) == len(self.nodes):
                    break
        return seen

    def replicas_for(self, key: str, rf: int) -> list[str]:
        """The key's replica set: the first ``rf`` distinct fallback nodes.

        ``replicas_for(key, 1)[0] == node_for(key)`` (the primary), and
        the successor replicas are the next distinct nodes clockwise —
        so membership changes move only the keys whose replica set
        actually touched the changed node.
        """
        return self.nodes_for(key)[: max(1, int(rf))]


class RoundRobin:
    """Thread-safe rotating cursor over a (mutable) item list."""

    def __init__(self, items: Optional[Sequence] = None) -> None:
        self._items = list(items or [])
        self._cursor = itertools.count()
        self._lock = threading.Lock()

    def set_items(self, items: Sequence) -> None:
        with self._lock:
            self._items = list(items)

    def next(self):
        with self._lock:
            if not self._items:
                raise FleetError("round-robin pool is empty")
            return self._items[next(self._cursor) % len(self._items)]

    def ordered(self) -> list:
        """A full rotation starting at the cursor (retry order)."""
        with self._lock:
            if not self._items:
                return []
            start = next(self._cursor) % len(self._items)
            return self._items[start:] + self._items[:start]


class FleetFrontend:
    """Round-robin ``/v1/predict`` proxy over registered serve replicas.

    Routes (an app for :class:`~repro.fleet.protocol.FleetHTTPServer`):

    - ``POST /fleet/v1/register``  — replica self-registration
      (``{name, url, kind, version}``);
    - ``POST /fleet/v1/heartbeat`` — liveness refresh;
    - ``GET  /fleet/v1/members``   — the membership table;
    - ``POST /v1/predict``         — forwarded to the next healthy
      replica, falling through dead ones (prediction is idempotent);
    - ``GET  /healthz``            — 200 iff ≥1 replica is alive; the
      document reports replica count and version drift.
    """

    def __init__(self, members: Optional[MemberTable] = None) -> None:
        self.members = MemberTable() if members is None else members
        self._rotation = RoundRobin()
        self._clients: dict[str, FleetClient] = {}
        self._clients_lock = threading.Lock()
        self.metrics = MetricsRegistry()
        self._m_proxied = self.metrics.counter(
            "fleet_frontend_requests_total",
            "Predict requests by outcome (forwarded / failed_over / "
            "no_replicas).",
            labels=("outcome",),
        )
        self._m_proxy_seconds = self.metrics.histogram(
            "fleet_frontend_proxy_seconds",
            "Wall seconds per forwarded predict round trip.",
        )

    # ------------------------------------------------------------------
    def _client(self, url: str) -> FleetClient:
        with self._clients_lock:
            client = self._clients.get(url)
            if client is None:
                client = FleetClient(url)
                self._clients[url] = client
            return client

    def _refresh_rotation(self) -> list[str]:
        urls = [m.url for m in self.members.members(kind="serve")]
        self._rotation.set_items(urls)
        return urls

    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body: bytes, headers) -> tuple:
        path = path.split("?", 1)[0]
        routed = metrics_routes(self.metrics, method, path)
        if routed is not None:
            return routed
        if method == "POST" and path == "/fleet/v1/register":
            document = json_body(body)
            member = self.members.register(
                name=str(document.get("name", "")),
                url=str(document.get("url", "")),
                kind=str(document.get("kind", "serve")),
                version=str(document.get("version", "")),
            )
            _log.info(
                "member_registered", name=member.name, url=member.url,
                kind=member.kind, version=member.version,
            )
            return 200, {"status": "ok", "ttl_s": self.members.ttl_s}, JSON_TYPE
        if method == "POST" and path == "/fleet/v1/heartbeat":
            document = json_body(body)
            known = self.members.heartbeat(
                str(document.get("name", "")), document.get("version")
            )
            if not known:
                return 404, {"status": "unknown"}, JSON_TYPE
            return 200, {"status": "ok"}, JSON_TYPE
        if method == "GET" and path == "/fleet/v1/members":
            return 200, {"members": self.members.describe()}, JSON_TYPE
        if method == "GET" and path == "/healthz":
            replicas = self.members.members(kind="serve")
            versions = self.members.versions(kind="serve")
            healthy = bool(replicas)
            return (
                200 if healthy else 503,
                {
                    "status": "ok" if healthy else "no_replicas",
                    "replicas": len(replicas),
                    "versions": sorted(versions),
                    "version_drift": len(versions) > 1,
                    "forwarded": self._m_proxied.count("forwarded"),
                    "failed_over": self._m_proxied.count("failed_over"),
                },
                JSON_TYPE,
            )
        if method == "POST" and path == "/v1/predict":
            return self._forward_predict(body)
        return 404, {"error": f"no route {path!r}"}, JSON_TYPE

    # ------------------------------------------------------------------
    def _forward_predict(self, body: bytes) -> tuple:
        self._refresh_rotation()
        urls = self._rotation.ordered()
        if not urls:
            self._m_proxied.labels("no_replicas").inc()
            return 503, {"error": "no healthy serve replicas"}, JSON_TYPE
        # The caller's request id rides to the replica verbatim, so one
        # id stitches client -> frontend -> replica in every log line.
        request_id = current_request_id()
        forward_headers = (
            {REQUEST_ID_HEADER: request_id} if request_id else None
        )
        last_error = "unreachable"
        for index, url in enumerate(urls):
            client = self._client(url)
            started = time.perf_counter()
            try:
                status, payload, content_type = client.request(
                    "POST", "/v1/predict", body, JSON_TYPE,
                    headers=forward_headers,
                )
            except TransientError as exc:
                # Dead replica: fall through to the next one and stop
                # routing to it until its next heartbeat revives it.
                last_error = str(exc)
                if index == 0:
                    self._m_proxied.labels("failed_over").inc()
                _log.warning("replica_unreachable", url=url, error=str(exc))
                continue
            self._m_proxied.labels("forwarded").inc()
            self._m_proxy_seconds.labels().observe(
                time.perf_counter() - started
            )
            return status, payload, content_type or JSON_TYPE
        return 503, {"error": f"all replicas failed: {last_error}"}, JSON_TYPE
