"""The scan coordinator: leases shards to workers, merges their pushes.

The coordinator plans a layout scan with the local scan's own
:class:`~repro.work.shard.ShardPlan`: the same grid of shards, the same
journal keys and identity, the same merge.  That is what makes a fleet
scan bit-identical to a local one and lets ``--resume`` reuse what a
crashed coordinator (or a local scan) journaled — and a local scan
resume what a coordinator journaled.

Lease protocol (all JSON over HTTP, see ``docs/FLEET.md``):

- ``POST /fleet/v1/lease`` — a worker (identified by name + scan
  fingerprint) asks for work.  Response: a shard (id, anchors, lease
  id + TTL), ``{"status": "wait"}`` when all
  remaining shards are leased out, or ``{"status": "done"}``.
- ``POST /fleet/v1/heartbeat`` — extends a lease; a worker whose lease
  already expired learns it via ``{"status": "lost"}`` and abandons the
  shard.
- ``POST /fleet/v1/push`` — the shard's npz record in an RPCB1
  envelope.  First push wins: a push for an already-completed shard is
  acknowledged as ``stale`` and discarded, so reassignment can never
  double-count a shard.  Accepted pushes are journaled immediately —
  the journal, not coordinator memory, is the durable state.

A background reaper expires leases whose worker stopped heartbeating
and returns their shards to the *front* of the queue (they are the
oldest work, and front-of-queue reassignment keeps tail latency down).

High availability (``docs/FLEET.md``, :mod:`repro.fleet.ha`): every
coordinator serves under a monotonically increasing **leader epoch**.
Workers adopt the epoch at handshake and send it with every lease,
heartbeat and push; a request carrying any *other* epoch is fenced with
``409 {"status": "stale_epoch"}`` — so after a warm standby promotes
(epoch + 1), a zombie primary's leases can never double-accept a shard
on the new leader.  The standby mirrors durable state through ``GET
/fleet/v1/replicate`` (completed-shard ids + the live lease table) and
fetches journaled shard records via ``GET /fleet/v1/shard?id=N``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.cache import open_blob, wrap_blob
from repro.errors import FleetError, FleetProtocolError
from repro.fleet.membership import MemberTable
from repro.fleet.protocol import (
    BLOB_TYPE,
    FLEET_PROTOCOL_VERSION,
    JSON_TYPE,
    METRICS_TEXT_TYPE,
    FleetHTTPServer,
    json_body,
    metrics_routes,
)
from repro.obs import MetricsAggregator, get_logger, new_request_id, trace
from repro.serve.metrics import MetricsRegistry
from repro.resilience import faults
from repro.resilience.checkpoint import Journal
from repro.resilience.quarantine import QuarantineReport
from repro.work.shard import (
    ScanResult,
    ShardPlan,
    _ShardRecord,
    decode_shard_record,
    encode_shard_record,
    scan_fingerprint,
)

_log = get_logger("fleet.coordinator")


@dataclass
class FleetOptions:
    """Coordinator-side knobs of one fleet scan."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Seconds a lease survives without a heartbeat before reassignment.
    lease_ttl_s: float = 5.0
    shard_side: Optional[int] = None
    journal_dir: Optional[Union[str, Path]] = None
    resume: bool = False
    keep_journal: bool = False
    #: Remote cache node URLs, handed to workers via ``/fleet/v1/config``.
    cache_urls: list[str] = field(default_factory=list)
    #: Root trace/request id of the whole scan; minted when unset.  Every
    #: worker adopts it from ``/fleet/v1/config``, so one fleet scan's
    #: RPCs and spans all share a single root id.
    request_id: Optional[str] = None
    #: Tell workers to record spans and ship them back with pushes.
    trace: bool = False
    #: Leader epoch this coordinator serves under.  A journal directory
    #: that has seen a leader before bumps past its stored epoch, and a
    #: promoted standby serves at the dead primary's epoch + 1 — the
    #: epoch only ever moves forward for a given worker population.
    epoch: int = 1


#: Shard-duration buckets (seconds) — shards run from tens of ms on a
#: toy layout up to minutes on a dense full-chip layer.
SHARD_SECONDS_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0,
)


@dataclass
class _Lease:
    """One outstanding shard lease."""

    lease_id: int
    shard_id: int
    worker: str
    expires: float  # time.monotonic()
    granted: float = 0.0  # time.monotonic() at grant, for straggler age


class FleetCoordinator:
    """Owns the shard queue of one fleet scan; its :class:`ShardPlan`
    (``plan``) owns the shards, the journal and the merge."""

    def __init__(
        self,
        detector,
        layout,
        layer: int = 1,
        options: Optional[FleetOptions] = None,
    ) -> None:
        self.layer = layer
        self.options = options or FleetOptions()
        self.plan = ShardPlan(
            detector,
            layout,
            layer,
            self.options.shard_side,
            self.options.journal_dir,
            reuse=self.options.resume,
        )
        self.shard_side = self.plan.shard_side
        self.cells = self.plan.cells
        self.shards = self.plan.shards
        self.fingerprint = scan_fingerprint(
            layout,
            layer,
            detector.config,
            detector.model_,
            detector.feedback_,
            self.shard_side,
        )

        # Leader epoch: monotone across restarts of the same journal dir
        # (the sidecar survives a crash, so a resumed coordinator never
        # reuses the epoch its predecessor's leases were granted under).
        self.role = "primary"
        self.epoch = int(self.options.epoch)
        if self.options.journal_dir is not None:
            stored = _read_epoch(Path(self.options.journal_dir))
            if stored is not None:
                self.epoch = max(self.epoch, stored + 1)
            _write_epoch(Path(self.options.journal_dir), self.epoch)

        self._lock = threading.Lock()
        self._completed: dict[int, _ShardRecord] = dict(self.plan.reused)
        self._pending: deque[int] = deque(
            shard_id
            for shard_id in range(len(self.shards))
            if shard_id not in self._completed
        )
        self._leases: dict[int, _Lease] = {}  # keyed by shard_id
        self._next_lease = 0
        self._done = threading.Event()
        if not self._pending:
            self._done.set()

        self.members = MemberTable(ttl_s=max(10.0, 3 * self.options.lease_ttl_s))
        self.reassignments: dict[int, int] = {}

        # Root trace context of the whole scan: workers adopt it from
        # /fleet/v1/config so every RPC and shipped span shares one id.
        self.request_id = self.options.request_id or new_request_id()

        # Live metrics, scraped on GET /metrics(/state) and federated
        # with the workers' registries on GET /fleet/v1/metrics.
        self.metrics = MetricsRegistry()
        self._m_leases = self.metrics.counter(
            "fleet_leases_total",
            "Shard leases by outcome (granted / expired).",
            labels=("outcome",),
        )
        self._m_pushes = self.metrics.counter(
            "fleet_pushes_total",
            "Shard pushes by outcome (accepted / stale / rejected).",
            labels=("outcome",),
        )
        self._m_shard_seconds = self.metrics.histogram(
            "fleet_shard_seconds",
            "Worker-reported wall seconds per completed shard.",
            buckets=SHARD_SECONDS_BUCKETS,
        )
        self._m_stale_epoch = self.metrics.counter(
            "fleet_stale_epoch_total",
            "Requests fenced with 409 stale_epoch, by route.",
            labels=("route",),
        )
        self._m_epoch = self.metrics.gauge(
            "fleet_epoch", "Leader epoch this coordinator serves under."
        )
        self._m_epoch.labels().set(float(self.epoch))

        # Status-plane state: per-shard wall clock (resumed shards keep
        # theirs via the journal), per-worker self-reports and push
        # tallies, and shipped trace documents.
        self._started = time.monotonic()
        self._shard_wall: dict[int, float] = {
            shard_id: record.wall_s
            for shard_id, record in self.plan.reused.items()
            if record.wall_s > 0
        }
        self._worker_reports: dict[str, dict] = {}
        self._worker_pushes: dict[str, int] = {}
        self._trace_docs: list[dict] = []
        for record in self.plan.reused.values():
            if record.wall_s > 0:
                self._m_shard_seconds.labels().observe(record.wall_s)

        self._server: Optional[FleetHTTPServer] = None
        self._reaper: Optional[threading.Thread] = None
        self._closing = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        if self._server is None:
            raise FleetError("coordinator not started")
        return self._server.url

    def start(self) -> "FleetCoordinator":
        if self._server is not None:
            return self
        self._server = FleetHTTPServer(
            self, host=self.options.host, port=self.options.port
        ).start()
        self.start_reaper()
        _log.info(
            "coordinator_started",
            url=self._server.url,
            shards=len(self.shards),
            resumed=len(self.plan.reused),
            epoch=self.epoch,
            fingerprint=self.fingerprint[:16],
        )
        return self

    def start_reaper(self) -> None:
        """Start the lease-expiry thread (separately from the server).

        A :class:`~repro.fleet.ha.StandbyCoordinator` serves this app
        through its own HTTP server and only starts the reaper at
        promotion — mirrored state must never expire leases the primary
        still owns.
        """
        if self._reaper is not None:
            return
        self._closing.clear()
        self._reaper = threading.Thread(
            target=self._reap_loop, name="repro-fleet-reaper", daemon=True
        )
        self._reaper.start()

    def stop(self) -> None:
        self._closing.set()
        if self._reaper is not None:
            self._reaper.join(timeout=5.0)
            self._reaper = None
        if self._server is not None:
            self._server.stop()
            self._server = None

    def __enter__(self) -> "FleetCoordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # leader epoch
    # ------------------------------------------------------------------
    def set_epoch(self, epoch: int) -> None:
        """Adopt a new (strictly larger) leader epoch.

        Called by a promoting standby with the dead primary's epoch + 1;
        persisted beside the journal so a later ``--resume`` of this
        directory keeps moving forward.
        """
        if epoch <= self.epoch:
            raise FleetError(
                f"epoch must increase: {epoch} <= current {self.epoch}"
            )
        self.epoch = int(epoch)
        self._m_epoch.labels().set(float(self.epoch))
        if self.options.journal_dir is not None:
            _write_epoch(Path(self.options.journal_dir), self.epoch)

    def _fence_epoch(self, raw, route: str) -> Optional[tuple]:
        """The 409 fence response for a stale-epoch request, or ``None``.

        A request carrying no epoch at all is let through (hand-rolled
        clients and pre-HA peers); :class:`~repro.fleet.worker.FleetWorker`
        always sends the epoch it handshook under, which is what makes
        the zombie-primary fence airtight for real fleets.
        """
        if raw is None or raw == "":
            return None
        try:
            theirs = int(raw)
        except (TypeError, ValueError) as exc:
            raise FleetProtocolError(f"bad epoch {raw!r}") from exc
        if theirs == self.epoch:
            return None
        self._m_stale_epoch.labels(route).inc()
        _log.warning(
            "stale_epoch_fenced", route=route, got=theirs, expected=self.epoch
        )
        return (
            409,
            {"status": "stale_epoch", "expected": self.epoch, "got": theirs},
            JSON_TYPE,
        )

    # ------------------------------------------------------------------
    # lease state machine
    # ------------------------------------------------------------------
    def _reap_loop(self) -> None:
        interval = max(0.05, self.options.lease_ttl_s / 4)
        while not self._closing.wait(interval):
            self._expire_leases()

    def _expire_leases(self) -> None:
        now = time.monotonic()
        with self._lock:
            expired = [
                lease for lease in self._leases.values() if lease.expires <= now
            ]
            for lease in expired:
                del self._leases[lease.shard_id]
                # Front of the queue: an expired shard is the oldest
                # outstanding work, so it is reassigned first.
                self._pending.appendleft(lease.shard_id)
                self._m_leases.labels("expired").inc()
                self.reassignments[lease.shard_id] = (
                    self.reassignments.get(lease.shard_id, 0) + 1
                )
        for lease in expired:
            _log.warning(
                "lease_expired",
                shard=lease.shard_id,
                worker=lease.worker,
                lease=lease.lease_id,
            )

    def _grant(self, worker: str) -> dict:
        with self._lock:
            if len(self._completed) == len(self.shards):
                return {"status": "done"}
            if not self._pending:
                return {
                    "status": "wait",
                    "retry_after_s": max(0.05, self.options.lease_ttl_s / 4),
                }
            shard_id = self._pending.popleft()
            self._next_lease += 1
            now = time.monotonic()
            lease = _Lease(
                lease_id=self._next_lease,
                shard_id=shard_id,
                worker=worker,
                expires=now + self.options.lease_ttl_s,
                granted=now,
            )
            self._leases[shard_id] = lease
            self._m_leases.labels("granted").inc()
        anchors = self.shards[shard_id]
        _log.info(
            "lease_granted",
            shard=shard_id,
            worker=worker,
            lease=lease.lease_id,
            anchors=len(anchors),
        )
        return {
            "status": "lease",
            "shard": shard_id,
            "lease": lease.lease_id,
            "ttl_s": self.options.lease_ttl_s,
            "anchors": [[int(x), int(y)] for x, y in anchors],
        }

    def _heartbeat(self, shard_id: int, lease_id: int) -> dict:
        with self._lock:
            lease = self._leases.get(shard_id)
            if lease is None or lease.lease_id != lease_id:
                return {"status": "lost"}
            lease.expires = time.monotonic() + self.options.lease_ttl_s
            return {"status": "ok"}

    def _accept_push(self, shard_id: int, lease_id: int, body: bytes) -> dict:
        if not 0 <= shard_id < len(self.shards):
            raise FleetProtocolError(f"push for unknown shard {shard_id}")
        payload = open_blob(body)
        if payload is None:
            # Digest-verified on receipt: a corrupt push is re-leased,
            # never merged.
            self._m_pushes.labels("rejected").inc()
            raise FleetProtocolError(f"corrupt push envelope for shard {shard_id}")
        try:
            record = decode_shard_record(payload, shard_id)
        except (KeyError, ValueError, OSError) as exc:
            self._m_pushes.labels("rejected").inc()
            raise FleetProtocolError(
                f"undecodable push for shard {shard_id}: {exc}"
            ) from exc
        with self._lock:
            if shard_id in self._completed:
                # First push won already (the lease expired and another
                # worker finished the reassigned shard first).
                self._m_pushes.labels("stale").inc()
                return {"status": "stale"}
            # Chaos point: an ``error`` plan aborts between pushes (the
            # journal keeps accepted shards for --resume); a ``kill``
            # plan SIGKILLs the coordinator, which is how the resume
            # tests produce a half-finished journal.
            faults.inject("fleet.push", shard=shard_id)
            self._completed[shard_id] = record
            lease = self._leases.pop(shard_id, None)
            self.plan.commit(shard_id, record)
            self._m_pushes.labels("accepted").inc()
            if record.wall_s > 0:
                self._shard_wall[shard_id] = record.wall_s
            worker = lease.worker if lease is not None else "?"
            self._worker_pushes[worker] = self._worker_pushes.get(worker, 0) + 1
            done = len(self._completed) == len(self.shards)
        if record.wall_s > 0:
            self._m_shard_seconds.labels().observe(record.wall_s)
        _log.info(
            "push_accepted",
            shard=shard_id,
            lease=lease_id,
            candidates=len(record.anchors),
        )
        if done:
            self._done.set()
        return {"status": "ok"}

    # ------------------------------------------------------------------
    # replication (standby tail)
    # ------------------------------------------------------------------
    def absorb_replicated(self, record: _ShardRecord) -> bool:
        """Mirror one already-validated shard record from the primary.

        The standby's replication loop calls this for every completed
        shard id it has not mirrored yet; the record lands in this
        coordinator's own journal, so a promotion (or a crash of the
        promoted standby followed by ``--resume``) starts from
        everything the feed delivered.  Returns ``False`` for a
        duplicate.
        """
        shard_id = record.shard_id
        if not 0 <= shard_id < len(self.shards):
            raise FleetProtocolError(f"replicated unknown shard {shard_id}")
        with self._lock:
            if shard_id in self._completed:
                return False
            self._completed[shard_id] = record
            try:
                self._pending.remove(shard_id)
            except ValueError:
                pass
            self.plan.commit(shard_id, record)
            if record.wall_s > 0:
                self._shard_wall[shard_id] = record.wall_s
            done = len(self._completed) == len(self.shards)
        if record.wall_s > 0:
            self._m_shard_seconds.labels().observe(record.wall_s)
        if done:
            self._done.set()
        return True

    def replicate_document(self) -> dict:
        """The ``GET /fleet/v1/replicate`` feed a warm standby tails.

        Everything a standby needs to mirror durable state and take
        over: the leader epoch, the scan identity, every completed
        shard id (blobs fetched separately via ``/fleet/v1/shard``) and
        the live lease table (status continuity — on promotion leased
        shards are simply re-queued, first push still wins).
        """
        now = time.monotonic()
        with self._lock:
            completed = sorted(self._completed)
            leases = [
                {
                    "shard": lease.shard_id,
                    "worker": lease.worker,
                    "lease": lease.lease_id,
                    "expires_in_s": round(lease.expires - now, 3),
                }
                for lease in sorted(self._leases.values(), key=lambda l: l.shard_id)
            ]
        return {
            **self.config_document(),
            "completed": completed,
            "leases": leases,
            "done": self._done.is_set(),
        }

    def shard_blob(self, shard_id: int) -> Optional[bytes]:
        """One completed shard re-encoded as an RPCB1 blob, or ``None``."""
        with self._lock:
            record = self._completed.get(shard_id)
        if record is None:
            return None
        return wrap_blob(encode_shard_record(record))

    # ------------------------------------------------------------------
    # HTTP app (FleetHTTPServer)
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body: bytes, headers) -> tuple:
        path, _, query = path.partition("?")
        routed = metrics_routes(self.metrics, method, path)
        if routed is not None:
            return routed
        if method == "GET" and path == "/fleet/v1/config":
            return 200, self.config_document(), JSON_TYPE
        if method == "GET" and path == "/fleet/v1/status":
            return 200, self.status(), JSON_TYPE
        if method == "GET" and path == "/fleet/v1/metrics":
            return 200, self.federated_metrics().render(), METRICS_TEXT_TYPE
        if method == "GET" and path == "/fleet/v1/replicate":
            return 200, self.replicate_document(), JSON_TYPE
        if method == "GET" and path == "/fleet/v1/shard":
            params = dict(
                pair.split("=", 1) for pair in query.split("&") if "=" in pair
            )
            try:
                shard_id = int(params.get("id", ""))
            except ValueError as exc:
                raise FleetProtocolError(f"bad shard query {query!r}") from exc
            blob = self.shard_blob(shard_id)
            if blob is None:
                return 404, {"error": f"shard {shard_id} not completed"}, JSON_TYPE
            return 200, blob, BLOB_TYPE
        if method == "GET" and path == "/healthz":
            return (
                200,
                {
                    "status": "ok",
                    "done": self._done.is_set(),
                    "role": self.role,
                    "epoch": self.epoch,
                },
                JSON_TYPE,
            )
        if method == "POST" and path == "/fleet/v1/trace":
            document = json_body(body)
            with self._lock:
                self._trace_docs.append(document)
            return 200, {"status": "ok"}, JSON_TYPE
        if method == "POST" and path == "/fleet/v1/lease":
            document = json_body(body)
            fenced = self._fence_epoch(document.get("epoch"), "lease")
            if fenced is not None:
                return fenced
            worker = str(document.get("worker", "?"))
            theirs = str(document.get("fingerprint", ""))
            if theirs != self.fingerprint:
                # Handshake failure: the worker loaded a different
                # model/layout/config — its margins would be wrong.
                return (
                    409,
                    {
                        "status": "fingerprint_mismatch",
                        "expected": self.fingerprint,
                        "got": theirs,
                    },
                    JSON_TYPE,
                )
            self.members.register(
                worker,
                str(document.get("url", "") or ""),
                kind="worker",
                version=theirs,
            )
            stats = document.get("stats")
            if isinstance(stats, dict):
                with self._lock:
                    self._worker_reports[worker] = stats
            answer = self._grant(worker)
            # Piggyback the live cache topology on every lease response,
            # so workers adopt ring membership changes mid-scan.
            answer["cache_urls"] = list(self.options.cache_urls)
            return 200, answer, JSON_TYPE
        if method == "POST" and path == "/fleet/v1/cache-join":
            document = json_body(body)
            url = str(document.get("url", "")).strip()
            if not url:
                return 400, {"error": "cache-join needs a url"}, JSON_TYPE
            joined = self.join_cache_node(url)
            return (
                200,
                {
                    "status": "joined" if joined else "known",
                    "cache_urls": list(self.options.cache_urls),
                },
                JSON_TYPE,
            )
        if method == "POST" and path == "/fleet/v1/heartbeat":
            document = json_body(body)
            fenced = self._fence_epoch(document.get("epoch"), "heartbeat")
            if fenced is not None:
                return fenced
            self.members.heartbeat(str(document.get("worker", "?")))
            stats = document.get("stats")
            if isinstance(stats, dict):
                with self._lock:
                    self._worker_reports[str(document.get("worker", "?"))] = stats
            return (
                200,
                self._heartbeat(
                    int(document.get("shard", -1)), int(document.get("lease", -1))
                ),
                JSON_TYPE,
            )
        if method == "POST" and path == "/fleet/v1/push":
            params = dict(
                pair.split("=", 1) for pair in query.split("&") if "=" in pair
            )
            try:
                shard_id = int(params.get("shard", ""))
                lease_id = int(params.get("lease", "-1"))
            except ValueError as exc:
                raise FleetProtocolError(f"bad push query {query!r}") from exc
            fenced = self._fence_epoch(params.get("epoch"), "push")
            if fenced is not None:
                return fenced
            return 200, self._accept_push(shard_id, lease_id, body), JSON_TYPE
        return 404, {"error": f"no route {path!r}"}, JSON_TYPE

    def join_cache_node(self, url: str) -> bool:
        """Admit one cache node into the announced ring topology.

        Consistent hashing bounds the key movement: only keys whose
        replica set now touches the new node re-home, the rest of the
        fleet's warm tier stays where it is.  Workers pick the new
        membership up from their next lease response.
        """
        url = str(url).rstrip("/")
        if not url:
            return False
        with self._lock:
            if url in self.options.cache_urls:
                return False
            self.options.cache_urls.append(url)
            nodes = list(self.options.cache_urls)
        _log.info("cache_node_joined", url=url, nodes=nodes)
        return True

    def config_document(self) -> dict:
        return {
            "protocol": FLEET_PROTOCOL_VERSION,
            "epoch": self.epoch,
            "role": self.role,
            "fingerprint": self.fingerprint,
            "shard_side": self.shard_side,
            "layer": self.layer,
            "shards": len(self.shards),
            "lease_ttl_s": self.options.lease_ttl_s,
            "cache_urls": list(self.options.cache_urls),
            "request_id": self.request_id,
            "trace": bool(self.options.trace),
        }

    def status(self) -> dict:
        """The live status plane served on ``GET /fleet/v1/status``.

        Beyond the raw queue counters this reports per-lease age, per-
        worker throughput and cache behaviour (from their lease/heartbeat
        self-reports), shard-duration percentiles, an ETA, and straggler
        shards — leases older than the p95 completed-shard duration.
        """
        now = time.monotonic()
        with self._lock:
            completed = len(self._completed)
            leased = len(self._leases)
            pending = len(self._pending)
            leases = [
                {
                    "shard": lease.shard_id,
                    "worker": lease.worker,
                    "lease": lease.lease_id,
                    "age_s": round(max(0.0, now - lease.granted), 3),
                    "expires_in_s": round(lease.expires - now, 3),
                }
                for lease in sorted(
                    self._leases.values(), key=lambda l: l.shard_id
                )
            ]
            walls = sorted(self._shard_wall.values())
            reports = {name: dict(doc) for name, doc in self._worker_reports.items()}
            pushes = dict(self._worker_pushes)
            # Read under the lock that guards the lease and push state
            # these count, so no lease is ever gone but not yet counted.
            counts = {
                "leases_granted": self._m_leases.count("granted"),
                "leases_expired": self._m_leases.count("expired"),
                "pushes_accepted": self._m_pushes.count("accepted"),
                "pushes_stale": self._m_pushes.count("stale"),
                "pushes_rejected": self._m_pushes.count("rejected"),
            }
        durations: dict = {"count": len(walls)}
        if walls:
            durations.update(
                p50=round(_percentile(walls, 0.50), 6),
                p95=round(_percentile(walls, 0.95), 6),
                mean=round(sum(walls) / len(walls), 6),
            )
        stragglers = []
        if walls:
            p95 = _percentile(walls, 0.95)
            stragglers = [
                entry["shard"] for entry in leases if entry["age_s"] > p95
            ]
        alive = {m.name for m in self.members.members(kind="worker")}
        workers = []
        for name in sorted(set(alive) | set(reports) | set(pushes)):
            report = reports.get(name, {})
            workers.append(
                {
                    "name": name,
                    "alive": name in alive,
                    "pushes": pushes.get(name, 0),
                    "shards_done": int(report.get("shards_done", 0)),
                    "shards_stale": int(report.get("shards_stale", 0)),
                    "cache": report.get("cache") or {},
                }
            )
        elapsed = max(1e-9, now - self._started)
        fresh = completed - len(self.plan.reused)
        throughput = fresh / elapsed
        eta_s = None
        if pending + leased and walls:
            mean = sum(walls) / len(walls)
            eta_s = round(
                (pending + leased) * mean / max(1, len(alive) or 1), 3
            )
        cache = _merged_cache_stats(reports.values())
        return {
            "shards": len(self.shards),
            "epoch": self.epoch,
            "role": self.role,
            "completed": completed,
            "leased": leased,
            "pending": pending,
            "resumed": len(self.plan.reused),
            "stale_epoch_fenced": self._m_stale_epoch.count(),
            **counts,
            "reassigned_shards": {
                str(k): v for k, v in sorted(self.reassignments.items())
            },
            "workers": [m.name for m in self.members.members(kind="worker")],
            "done": self._done.is_set(),
            "request_id": self.request_id,
            "elapsed_s": round(elapsed, 3),
            "throughput_shards_per_s": round(throughput, 6),
            "eta_s": eta_s,
            "durations": durations,
            "leases": leases,
            "stragglers": stragglers,
            "worker_details": workers,
            "cache": cache,
        }

    # ------------------------------------------------------------------
    # observability plane
    # ------------------------------------------------------------------
    def federated_metrics(self) -> MetricsRegistry:
        """The fleet-wide merged registry served on ``/fleet/v1/metrics``.

        Scrapes every alive worker that registered a status URL plus the
        configured cache nodes, and merges their states with the
        coordinator's own registry (bucket-wise, label-preserving).
        """
        aggregator = MetricsAggregator()
        aggregator.register("coordinator", self.metrics.export_state)
        for member in self.members.members(kind="worker", alive_only=True):
            if member.url:
                aggregator.register(member.name, member.url)
        for index, url in enumerate(self.options.cache_urls):
            aggregator.register(f"cache-{index}", url)
        return aggregator.merged()

    def trace_documents(self) -> list[dict]:
        """Span documents shipped by workers via ``POST /fleet/v1/trace``."""
        with self._lock:
            return list(self._trace_docs)

    # ------------------------------------------------------------------
    # completion + merge
    # ------------------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every shard is pushed (or the timeout elapses)."""
        return self._done.wait(timeout)

    def result(
        self, quarantine: Optional[QuarantineReport] = None
    ) -> ScanResult:
        """Merge completed shards into the global candidate order.

        Exactly :meth:`~repro.work.shard.ShardPlan.finish` — the same
        merge every local scan runs, so a fleet scan's hotspot set,
        margins, verdicts and funnel counts are bit-identical to a local
        scan of the same layout.  Raises
        :class:`~repro.errors.ScanDrainedError` while shards are still
        outstanding (the journal keeps what finished).
        """
        with self._lock:
            completed = dict(self._completed)
        with trace(
            "fleet.merge", shards=len(self.shards), resumed=len(self.plan.reused)
        ):
            return self.plan.finish(
                completed, quarantine, keep_journal=self.options.keep_journal
            )


#: Sidecar file (in the journal dir) persisting the leader epoch; a
#: cleared journal takes it along.
EPOCH_FILE = Journal.EPOCH


def _read_epoch(journal_dir: Path) -> Optional[int]:
    try:
        document = json.loads((journal_dir / EPOCH_FILE).read_text())
        return int(document["epoch"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _write_epoch(journal_dir: Path, epoch: int) -> None:
    try:
        journal_dir.mkdir(parents=True, exist_ok=True)
        (journal_dir / EPOCH_FILE).write_text(json.dumps({"epoch": int(epoch)}))
    except OSError:
        pass  # best-effort: a lost sidecar only costs monotonicity-on-resume


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return float(ordered[rank])


#: Worst-state-wins ordering when several workers disagree on a node.
_NODE_STATE_RANK = {"up": 0, "half_open": 1, "down": 2}


def _merged_cache_stats(reports) -> dict:
    """Sum workers' self-reported remote-cache counters into fleet totals.

    Beyond hit/miss/corrupt totals this merges per-node liveness (the
    worst state any worker observed wins), repair/probe counters and
    RPC counts, feeding ``fleet-status`` and the chaos drills.
    """
    totals = {
        "remote_hits": 0,
        "remote_misses": 0,
        "remote_corrupt": 0,
        "remote_rpcs": 0,
        "remote_batch_rpcs": 0,
        "remote_repairs": 0,
        "remote_probes": 0,
    }
    nodes: dict = {}
    for report in reports:
        cache = report.get("cache") or {}
        totals["remote_hits"] += int(cache.get("remote_hits", 0))
        totals["remote_corrupt"] += int(cache.get("remote_corrupt", 0))
        gets = int(cache.get("remote_store_gets", 0))
        hits = int(cache.get("remote_store_hits", 0))
        totals["remote_misses"] += max(0, gets - hits)
        for key in (
            "remote_rpcs", "remote_batch_rpcs", "remote_repairs",
            "remote_probes",
        ):
            totals[key] += int(cache.get(key, 0))
        for url, health in (cache.get("remote_nodes") or {}).items():
            if not isinstance(health, dict):
                continue
            merged = nodes.setdefault(
                url,
                {
                    "state": "up",
                    "failures": 0,
                    "errors": 0,
                    "probes": 0,
                    "repairs": 0,
                    "hints_pending": 0,
                },
            )
            state = str(health.get("state", "up"))
            if (
                _NODE_STATE_RANK.get(state, 0)
                > _NODE_STATE_RANK.get(merged["state"], 0)
            ):
                merged["state"] = state
            merged["failures"] = max(
                merged["failures"], int(health.get("failures", 0))
            )
            for key in ("errors", "probes", "repairs", "hints_pending"):
                merged[key] += int(health.get(key, 0))
    lookups = totals["remote_hits"] + totals["remote_misses"]
    totals["hit_rate"] = (
        round(totals["remote_hits"] / lookups, 6) if lookups else 0.0
    )
    if nodes:
        totals["nodes"] = nodes
    return totals
