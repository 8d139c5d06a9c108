"""The fleet scan worker: lease, evaluate in-process, push, repeat.

A worker owns a full copy of the scan state (layout, trained model,
config) and proves it matches the coordinator's by sending its own
:func:`~repro.work.shard.scan_fingerprint` with every lease request —
a mismatched worker is rejected with 409 and aborts loudly
(:class:`~repro.errors.FleetHandshakeError`) instead of contributing
margins computed under different state.

Per lease, a background heartbeat thread extends the lease at TTL/3
while the main thread evaluates the shard with
:func:`~repro.work.shard.evaluate_shard` — the one shard evaluator
every local scan runs too, feedback verdicts included — and pushes the
record of anchors, margins and verdicts; clips never leave the worker.
A heartbeat answered with ``lost`` makes the
evaluation's push come back ``stale``; both are normal outcomes of
lease reassignment and the worker just asks for the next shard.

Workers take an **ordered coordinator list** (primary first, then any
warm standby).  Every RPC carries the leader epoch adopted at
handshake; when the current coordinator drops off the network
(``TransientError`` after retries) or fences a request with ``409
stale_epoch``, the worker *re-homes*: it cycles the endpoint list for a
leader config (skipping un-promoted standbys), re-verifies the scan
fingerprint, adopts the new epoch, and resumes leasing — completed
shards survive in whichever journal accepted them.

When the coordinator hands out remote cache URLs, the worker attaches a
:class:`~repro.cache.HotspotCache` over a
:class:`~repro.fleet.remote_cache.RemoteCacheStore` (plus an optional
local disk tier), so the whole fleet shares one warm tier.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence, Union

from repro.cache import HotspotCache, wrap_blob
from repro.errors import (
    FleetError,
    FleetHandshakeError,
    FleetProtocolError,
    TransientError,
)
from repro.fleet.protocol import (
    JSON_TYPE,
    FleetClient,
    FleetHTTPServer,
    metrics_routes,
)
from repro.obs import (
    Tracer,
    bind_trace_context,
    get_logger,
    get_tracer,
    set_tracer,
    span_document,
    trace,
)
from repro.obs.trace import enabled as _tracing_enabled
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.serve.metrics import MetricsRegistry
from repro.work.shard import encode_shard_record, evaluate_shard, scan_fingerprint

_log = get_logger("fleet.worker")

#: Lease/push RPCs retry transient transport failures with this policy.
RPC_RETRY = RetryPolicy(attempts=4, base_delay_s=0.1, max_delay_s=2.0)


class CoordinatorChannel:
    """Ordered coordinator endpoints with a failover cursor.

    The worker talks to ``current`` until it proves unreachable or
    stale; ``advance`` rotates to the next endpoint in the ordered list
    (primary first, standbys after).  Cursor reads/writes are single
    int assignments, so the heartbeat thread can share the channel with
    the lease loop without a lock.
    """

    def __init__(
        self, urls: Union[str, Sequence[str]], timeout_s: float = 30.0
    ) -> None:
        if isinstance(urls, str):
            urls = [part.strip() for part in urls.split(",") if part.strip()]
        self.clients = [FleetClient(url, timeout=timeout_s) for url in urls]
        if not self.clients:
            raise FleetError("worker needs at least one coordinator URL")
        self._index = 0

    def __len__(self) -> int:
        return len(self.clients)

    @property
    def current(self) -> FleetClient:
        return self.clients[self._index]

    @property
    def url(self) -> str:
        return self.current.url

    def advance(self) -> None:
        self._index = (self._index + 1) % len(self.clients)


class _WorkerApp:
    """The worker's tiny status/metrics HTTP surface.

    Exposes ``/metrics`` + ``/metrics/state`` (scraped by the
    coordinator's federated view) and ``/healthz``; the URL rides along
    in every lease request so the coordinator discovers it.
    """

    def __init__(self, worker: "FleetWorker") -> None:
        self.worker = worker

    def handle(self, method: str, path: str, body: bytes, headers) -> tuple:
        path = path.partition("?")[0]
        routed = metrics_routes(self.worker.metrics, method, path)
        if routed is not None:
            return routed
        if method == "GET" and path == "/healthz":
            return (
                200,
                {"status": "ok", "worker": self.worker.worker_id},
                JSON_TYPE,
            )
        return 404, {"error": f"no route {path!r}"}, JSON_TYPE


class FleetWorker:
    """One scan worker node, identified by ``worker_id``."""

    def __init__(
        self,
        coordinator_url: Union[str, Sequence[str]],
        detector,
        layout,
        worker_id: str,
        cache_dir: Optional[Union[str, "object"]] = None,
        status_server: bool = True,
        rehome_timeout_s: float = 30.0,
    ) -> None:
        self.channel = CoordinatorChannel(coordinator_url)
        self.detector = detector
        self.layout = layout
        self.worker_id = worker_id
        self.cache_dir = cache_dir
        self.status_server = status_server
        self.rehome_timeout_s = rehome_timeout_s
        self.epoch = 0
        self._fingerprint = ""
        self._stop = threading.Event()
        self._server: Optional[FleetHTTPServer] = None
        self._request_id: Optional[str] = None
        self._owns_tracer = False
        self._shipped = 0  # spans already POSTed to /fleet/v1/trace
        self._cache = None
        self._remote_store = None
        self.metrics = MetricsRegistry()
        self._m_shards = self.metrics.counter(
            "fleet_worker_shards_total",
            "Shards this worker finished, by outcome (done / stale).",
            labels=("outcome",),
        )
        from repro.fleet.coordinator import SHARD_SECONDS_BUCKETS

        self._m_shard_seconds = self.metrics.histogram(
            "fleet_worker_shard_seconds",
            "Wall seconds spent evaluating each leased shard.",
            buckets=SHARD_SECONDS_BUCKETS,
        )
        self._m_heartbeat_failures = self.metrics.counter(
            "fleet_heartbeat_failures_total",
            "Lease heartbeats that failed transport before reaching the "
            "coordinator.",
        )
        self._m_rehomes = self.metrics.counter(
            "fleet_worker_rehomes_total",
            "Times this worker re-homed to another coordinator endpoint.",
            labels=("reason",),
        )

    @property
    def client(self) -> FleetClient:
        """The coordinator endpoint currently believed to be the leader."""
        return self.channel.current

    def stop(self) -> None:
        self._stop.set()

    @property
    def status_url(self) -> str:
        return self._server.url if self._server is not None else ""

    def _stats(self) -> dict:
        """Self-report shipped with every lease/heartbeat request."""
        stats = {
            "shards_done": self._m_shards.count("done"),
            "shards_stale": self._m_shards.count("stale"),
        }
        cache = getattr(self.detector, "cache_", None)
        if cache is not None:
            try:
                stats["cache"] = cache.stats_dict()
            except Exception:
                pass
        return stats

    # ------------------------------------------------------------------
    def _handshake(self) -> dict:
        """Find the fleet leader among the ordered endpoints.

        Cycles the endpoint list until one serves a leader
        ``/fleet/v1/config`` (an un-promoted standby answers
        ``role=standby`` and is skipped), verifies the scan fingerprint
        against it, and adopts its leader epoch.  Raises
        :class:`TransientError` when no leader answers within
        ``rehome_timeout_s``.
        """
        deadline = time.monotonic() + self.rehome_timeout_s
        last = "no coordinator endpoint answered"
        while not self._stop.is_set():
            for _ in range(len(self.channel)):
                client = self.channel.current
                try:
                    status, config = client.get_json("/fleet/v1/config")
                except TransientError as exc:
                    last = f"{client.url}: {exc}"
                    self.channel.advance()
                    continue
                if status != 200:
                    last = f"{client.url}: config HTTP {status}"
                    self.channel.advance()
                    continue
                if str(config.get("role", "primary")) == "standby":
                    last = f"{client.url}: standby, not promoted"
                    self.channel.advance()
                    continue
                self._verify_fingerprint(config)
                self.epoch = int(config.get("epoch", 0))
                _log.info(
                    "worker_homed", worker=self.worker_id, url=client.url,
                    epoch=self.epoch,
                )
                return config
            if time.monotonic() >= deadline:
                raise TransientError(f"no fleet leader reachable: {last}")
            time.sleep(0.2)
        raise TransientError("worker stopped while locating a leader")

    def _verify_fingerprint(self, config: dict) -> None:
        fingerprint = scan_fingerprint(
            self.layout,
            int(config["layer"]),
            self.detector.config,
            self.detector.model_,
            self.detector.feedback_,
            int(config["shard_side"]),
        )
        if fingerprint != config["fingerprint"]:
            raise FleetHandshakeError(
                f"worker {self.worker_id} disagrees with coordinator: "
                f"{fingerprint[:16]} != {str(config['fingerprint'])[:16]}"
            )
        self._fingerprint = fingerprint

    def _rehome(self, reason: str) -> dict:
        """Locate the current leader again after losing this one."""
        self._m_rehomes.labels(reason).inc()
        _log.warning(
            "worker_rehoming", worker=self.worker_id, reason=reason,
            epoch=self.epoch,
        )
        if reason == "unreachable":
            # The current endpoint is dark; probing it again first would
            # just spend another connect timeout.
            self.channel.advance()
        return self._handshake()

    def _attach_cache(self, cache_urls: list[str]) -> None:
        if not cache_urls and self.cache_dir is None:
            return
        stores = []
        if cache_urls:
            from repro.fleet.remote_cache import RemoteCacheStore

            self._remote_store = RemoteCacheStore(
                cache_urls, metrics=self.metrics
            )
            stores.append(self._remote_store)
        self._cache = HotspotCache(
            directory=self.cache_dir, stores=stores, write_behind=True
        )
        self.detector.attach_cache(self._cache)

    def _update_cache_topology(self, cache_urls) -> None:
        """Adopt a coordinator-announced cache ring membership change."""
        if not isinstance(cache_urls, list) or not cache_urls:
            return
        urls = [str(url) for url in cache_urls if url]
        if not urls:
            return
        if self._remote_store is None:
            # A cache tier appeared mid-scan (first node joined).
            self._attach_cache(urls)
            if self._remote_store is not None:
                _log.info(
                    "worker_cache_attached", worker=self.worker_id, nodes=urls
                )
            return
        if self._remote_store.set_nodes(urls):
            _log.info(
                "worker_cache_topology", worker=self.worker_id, nodes=urls
            )

    def _flush_cache(self) -> None:
        cache = self._cache or getattr(self.detector, "cache_", None)
        flush = getattr(cache, "flush", None)
        if flush is not None:
            try:
                flush()
            except Exception:  # noqa: BLE001 — cache is best-effort
                pass

    # ------------------------------------------------------------------
    def run(self, poll_interval_s: float = 0.05) -> dict:
        """Work the lease queue until the coordinator reports ``done``.

        Returns a summary dict (shards completed/stale) for logging.
        """
        config = self._handshake()
        self._attach_cache([str(u) for u in config.get("cache_urls", [])])
        layer = int(config["layer"])
        ttl_s = float(config.get("lease_ttl_s", 5.0))

        # Adopt the coordinator's root request id, and — when the scan
        # is traced and this process has no tracer of its own (a real
        # subprocess worker, not an in-process test worker sharing the
        # driver's) — record spans locally and ship them back.
        self._request_id = str(config.get("request_id") or "") or None
        if config.get("trace") and not _tracing_enabled():
            set_tracer(Tracer())
            self._owns_tracer = True
        if self.status_server and self._server is None:
            try:
                self._server = FleetHTTPServer(_WorkerApp(self)).start()
            except OSError:
                self._server = None  # status plane is best-effort

        binding = (
            bind_trace_context(self._request_id) if self._request_id else None
        )
        try:
            while not self._stop.is_set():
                try:
                    status, document = call_with_retry(
                        lambda: self.channel.current.post_json(
                            "/fleet/v1/lease",
                            {
                                "worker": self.worker_id,
                                "fingerprint": self._fingerprint,
                                "epoch": self.epoch,
                                "url": self.status_url,
                                "stats": self._stats(),
                            },
                        ),
                        RPC_RETRY,
                        label="fleet.lease",
                    )
                except TransientError:
                    config = self._rehome("unreachable")
                    layer = int(config["layer"])
                    ttl_s = float(config.get("lease_ttl_s", ttl_s))
                    continue
                if status == 409:
                    if document.get("status") == "stale_epoch":
                        # A new leader took over; adopt its epoch and
                        # keep leasing — completed shards are safe.
                        config = self._rehome("stale_epoch")
                        continue
                    raise FleetHandshakeError(
                        f"coordinator rejected worker {self.worker_id}: "
                        f"{document.get('status')}"
                    )
                if status == 503 and document.get("status") == "standby":
                    # Raced an endpoint that has not promoted yet.
                    config = self._rehome("standby")
                    continue
                if status != 200:
                    raise FleetProtocolError(
                        f"lease request failed with HTTP {status}"
                    )
                self._update_cache_topology(document.get("cache_urls"))
                state = document.get("status")
                if state == "done":
                    break
                if state == "wait":
                    time.sleep(
                        float(document.get("retry_after_s", poll_interval_s))
                    )
                    continue
                if state != "lease":
                    raise FleetProtocolError(
                        f"unexpected lease response {document!r}"
                    )
                self._work_lease(document, layer, ttl_s)
        finally:
            self._flush_cache()
            self._ship_spans()
            if binding is not None:
                binding.__exit__(None, None, None)
            if self._owns_tracer:
                set_tracer(None)
                self._owns_tracer = False
            if self._server is not None:
                self._server.stop()
                self._server = None
        summary = {
            "worker": self.worker_id,
            "shards_done": self._m_shards.count("done"),
            "shards_stale": self._m_shards.count("stale"),
            "rehomes": self._m_rehomes.count(),
            "heartbeat_failures": self._m_heartbeat_failures.count(),
        }
        _log.info("worker_finished", **summary)
        return summary

    def _ship_spans(self) -> None:
        """POST finished spans since the last ship (own tracer only)."""
        tracer = get_tracer()
        if not self._owns_tracer or not tracer.enabled:
            return
        document = span_document(
            tracer,
            role=f"worker:{self.worker_id}",
            request_id=self._request_id,
            since=self._shipped,
        )
        if not document["spans"]:
            return
        try:
            status, _ = self.client.post_json("/fleet/v1/trace", document)
        except TransientError:
            return  # unshipped spans go with the next push's ship
        if status == 200:
            self._shipped += len(document["spans"])

    # ------------------------------------------------------------------
    def _work_lease(self, lease_doc: dict, layer: int, ttl_s: float) -> None:
        shard_id = int(lease_doc["shard"])
        lease_id = int(lease_doc["lease"])
        anchors = [(int(x), int(y)) for x, y in lease_doc["anchors"]]
        # Chaos point: a ``kill`` plan SIGKILLs this worker the moment it
        # accepts a lease — the scenario the lease TTL exists for.
        faults.inject("fleet.lease", shard=shard_id, worker=self.worker_id)

        lost = threading.Event()
        beat_stop = threading.Event()

        def _beat() -> None:
            while not beat_stop.wait(max(0.05, ttl_s / 3)):
                try:
                    code, answer = self.channel.current.post_json(
                        "/fleet/v1/heartbeat",
                        {
                            "worker": self.worker_id,
                            "shard": shard_id,
                            "lease": lease_id,
                            "epoch": self.epoch,
                            "stats": self._stats(),
                        },
                    )
                except TransientError as exc:
                    # The lease may survive a coordinator blip, but a
                    # flapping coordinator must be visible before leases
                    # start expiring.
                    self._m_heartbeat_failures.labels().inc()
                    _log.warning(
                        "heartbeat_failed", worker=self.worker_id,
                        shard=shard_id, lease=lease_id, error=str(exc),
                    )
                    continue
                if code == 409 or answer.get("status") in (
                    "lost", "stale_epoch", "standby",
                ):
                    lost.set()
                    return

        beater = threading.Thread(
            target=_beat, name=f"repro-fleet-beat-{shard_id}", daemon=True
        )
        beater.start()
        try:
            with trace(
                "fleet.shard",
                shard=shard_id,
                worker=self.worker_id,
                anchors=len(anchors),
            ):
                record = evaluate_shard(
                    self.detector.config, self.detector.model_,
                    self.detector.feedback_, self.layout, layer, anchors,
                )
            record.shard_id = shard_id
            blob = wrap_blob(encode_shard_record(record))
        finally:
            beat_stop.set()
            # Push this shard's buffered remote-cache writes in one RPC
            # per node, so other workers can hit them.
            self._flush_cache()
        if record.wall_s > 0:
            self._m_shard_seconds.labels().observe(record.wall_s)
        if lost.is_set():
            # The coordinator reassigned this shard; pushing anyway is
            # harmless (first push wins) but skipping saves the transfer.
            self._m_shards.labels("stale").inc()
            _log.warning("lease_lost", shard=shard_id, worker=self.worker_id)
            return
        try:
            status, answer = call_with_retry(
                lambda: self.channel.current.post_blob(
                    f"/fleet/v1/push?shard={shard_id}&lease={lease_id}"
                    f"&epoch={self.epoch}",
                    blob,
                ),
                RPC_RETRY,
                label="fleet.push",
            )
        except TransientError:
            # The coordinator died between lease and push.  Drop the
            # result: the next lease RPC re-homes, and whoever leads
            # next re-leases this shard — first push wins keeps it
            # single-counted.
            self._m_shards.labels("stale").inc()
            _log.warning(
                "push_unreachable", shard=shard_id, worker=self.worker_id
            )
            return
        if status != 200:
            # A 4xx/5xx push (e.g. an injected coordinator fault) leaves
            # the lease alive; the reaper will reassign the shard, so
            # dropping it here is safe — and retrying the whole lease
            # loop is the worker's only job anyway.
            self._m_shards.labels("stale").inc()
            _log.warning(
                "push_rejected", shard=shard_id, status=status,
                detail=str(answer)[:200],
            )
            return
        if answer.get("status") == "stale":
            self._m_shards.labels("stale").inc()
        else:
            self._m_shards.labels("done").inc()
        # Ship the spans this shard produced while the trace is fresh —
        # a worker killed mid-scan has already shipped everything up to
        # its last completed shard.
        self._ship_spans()
