"""Warm-standby coordinator: tail the primary, promote on its death.

A :class:`StandbyCoordinator` wraps a fully constructed (but not
started) :class:`~repro.fleet.coordinator.FleetCoordinator` and runs a
single replication loop against the primary's ``GET
/fleet/v1/replicate`` feed.  Each tick doubles as a health probe and a
state sync: the standby mirrors every completed shard it has not seen
(fetching the RPCB1 blob via ``/fleet/v1/shard`` and landing it in its
*own* journal through ``absorb_replicated``), and resets its
missed-probe counter.  When ``max_missed_probes`` consecutive ticks
fail with :class:`~repro.errors.TransientError`, the primary is
declared dead and the standby **promotes**:

1. fire the ``fleet.promote`` chaos point (a drill can fail the
   promotion itself),
2. adopt leader epoch ``primary_epoch + 1`` via
   :meth:`~repro.fleet.coordinator.FleetCoordinator.set_epoch`,
3. start the lease reaper (never running while the primary owned the
   leases), and
4. begin answering lease/heartbeat/push as the new leader.

The replication feed intentionally does **not** mirror live leases into
the inner lease table — on promotion a shard that was leased under the
old leader is simply still pending here, gets re-leased, and first push
wins exactly as it does for an expired lease.  Any push the zombie
primary accepts after hand-off is unreachable by workers (they carry
the new epoch and the old leader fences nothing — it is dead or
partitioned), and any worker still pushing to the *new* leader under
the old epoch is fenced with ``409 stale_epoch``.  The replication gap
— pushes the primary accepted after the standby's last successful tick
— costs only recomputation: those shards are re-leased and their
recomputed records are bit-identical by construction.

Before promotion the standby's HTTP surface answers health/config/
status (``role=standby``), exposes ``POST /fleet/v1/promote`` for
operator- or drill-forced hand-off, and turns work RPCs away with
``503 {"status": "standby"}`` so a worker that re-homes too early keeps
cycling its endpoint list.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.cache import open_blob
from repro.errors import (
    FleetError,
    FleetHandshakeError,
    FleetProtocolError,
    TransientError,
)
from repro.fleet.coordinator import FleetCoordinator, FleetOptions
from repro.fleet.protocol import JSON_TYPE, FleetClient, FleetHTTPServer
from repro.obs import get_logger
from repro.resilience import faults
from repro.work.shard import decode_shard_record

_log = get_logger("fleet.ha")


class StandbyCoordinator:
    """A warm standby for one fleet scan, promotable under a new epoch."""

    def __init__(
        self,
        detector,
        layout,
        primary_url: str,
        layer: int = 1,
        options: Optional[FleetOptions] = None,
        probe_interval_s: float = 0.5,
        max_missed_probes: int = 2,
    ) -> None:
        self.inner = FleetCoordinator(detector, layout, layer, options)
        self.inner.role = "standby"
        self.probe_interval_s = max(0.05, float(probe_interval_s))
        self.max_missed_probes = max(1, int(max_missed_probes))
        # The probe client's timeout tracks the probe interval so a
        # SIGSTOPped (zombie) primary cannot stall detection much past
        # the missed-probe budget.
        self.primary = FleetClient(
            primary_url, timeout=max(0.2, self.probe_interval_s)
        )
        self.promoted = threading.Event()
        self.failed: Optional[str] = None
        self.primary_epoch = 0
        self.primary_done = False
        self.missed_probes = 0
        self._promote_lock = threading.Lock()
        self._stop = threading.Event()
        self._server: Optional[FleetHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._m_mirrored = self.inner.metrics.counter(
            "fleet_standby_mirrored_total",
            "Completed shards mirrored from the primary's replicate feed.",
        )
        self._m_missed = self.inner.metrics.counter(
            "fleet_standby_missed_probes_total",
            "Replication ticks that failed to reach the primary.",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        if self._server is None:
            raise FleetError("standby not started")
        return self._server.url

    @property
    def metrics(self):
        return self.inner.metrics

    def start(self) -> "StandbyCoordinator":
        if self._server is not None:
            return self
        self._server = FleetHTTPServer(
            self,
            host=self.inner.options.host,
            port=self.inner.options.port,
        ).start()
        self._thread = threading.Thread(
            target=self._run, name="repro-fleet-standby", daemon=True
        )
        self._thread.start()
        _log.info(
            "standby_started",
            url=self._server.url,
            primary=self.primary.url,
            probe_interval_s=self.probe_interval_s,
        )
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.inner.stop()  # reaper, if promoted; inner never owns a server
        if self._server is not None:
            self._server.stop()
            self._server = None

    def __enter__(self) -> "StandbyCoordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """True once every shard is mirrored or merged (inner done)."""
        return self.inner.wait(timeout)

    # ------------------------------------------------------------------
    # replication loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set() and not self.promoted.is_set():
            try:
                self._sync_once()
                self.missed_probes = 0
            except FleetHandshakeError as exc:
                # Different model/layout/config than the primary: this
                # standby could only corrupt the scan, so it refuses to
                # ever promote.
                self.failed = str(exc)
                _log.error("standby_mismatched", error=str(exc))
                return
            except (TransientError, FleetProtocolError, ValueError, KeyError, OSError) as exc:
                self.missed_probes += 1
                self._m_missed.labels().inc()
                _log.warning(
                    "primary_probe_missed",
                    missed=self.missed_probes,
                    of=self.max_missed_probes,
                    error=str(exc)[:200],
                )
                if self.missed_probes >= self.max_missed_probes:
                    if self.inner._done.is_set():
                        # Nothing to lead: every shard is already
                        # mirrored — the primary finished and exited.
                        # Promoting would report a spurious failover.
                        return
                    try:
                        self.promote()
                    except TransientError as fault:
                        self.failed = str(fault)
                        _log.error("standby_promote_failed", error=str(fault))
                    return
            if self._stop.wait(self.probe_interval_s):
                return

    def _sync_once(self) -> None:
        """One replication tick: probe, adopt epoch, mirror new shards."""
        status, feed = self.primary.get_json("/fleet/v1/replicate")
        if status != 200:
            raise TransientError(
                f"replicate feed answered HTTP {status} from {self.primary.url}"
            )
        if str(feed.get("fingerprint", "")) != self.inner.fingerprint:
            raise FleetHandshakeError(
                "standby disagrees with primary: "
                f"{self.inner.fingerprint[:16]} != "
                f"{str(feed.get('fingerprint'))[:16]}"
            )
        self.primary_epoch = int(feed.get("epoch", self.primary_epoch))
        self.primary_done = bool(feed.get("done"))
        for raw_id in feed.get("completed", []):
            shard_id = int(raw_id)
            if shard_id in self.inner._completed:
                continue
            code, blob = self.primary.get_blob(f"/fleet/v1/shard?id={shard_id}")
            if code != 200:
                continue  # raced result()/cleanup; next tick retries
            payload = open_blob(blob)
            if payload is None:
                continue  # digest-rejected transfer; next tick retries
            record = decode_shard_record(payload, shard_id)
            if self.inner.absorb_replicated(record):
                self._m_mirrored.labels().inc()

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------
    def promote(self) -> bool:
        """Take over as leader; returns False when already promoted."""
        with self._promote_lock:
            if self.promoted.is_set():
                return False
            # Chaos point: an ``error`` plan here models a standby that
            # dies during hand-off itself.
            faults.inject("fleet.promote", primary_epoch=self.primary_epoch)
            epoch = max(self.primary_epoch + 1, self.inner.epoch + 1)
            self.inner.set_epoch(epoch)
            self.inner.role = "primary"
            self.inner.start_reaper()
            self.promoted.set()
        _log.warning(
            "standby_promoted",
            epoch=epoch,
            mirrored=self._m_mirrored.count(),
            pending=len(self.inner._pending),
        )
        return True

    # ------------------------------------------------------------------
    # HTTP app (FleetHTTPServer)
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body: bytes, headers) -> tuple:
        bare = path.partition("?")[0]
        if method == "POST" and bare == "/fleet/v1/promote":
            fresh = self.promote()
            return (
                200,
                {
                    "status": "ok" if fresh else "already_promoted",
                    "epoch": self.inner.epoch,
                },
                JSON_TYPE,
            )
        if self.promoted.is_set():
            return self.inner.handle(method, path, body, headers)
        if method == "GET" and bare == "/healthz":
            return (
                200,
                {
                    "status": "failed" if self.failed else "ok",
                    "role": "standby",
                    "epoch": self.inner.epoch,
                    "primary_epoch": self.primary_epoch,
                    "mirrored": self._m_mirrored.count(),
                    "missed_probes": self.missed_probes,
                },
                JSON_TYPE,
            )
        if method == "GET" and bare == "/fleet/v1/config":
            return 200, self.inner.config_document(), JSON_TYPE
        if method == "GET" and bare == "/fleet/v1/status":
            document = self.inner.status()
            document["primary_epoch"] = self.primary_epoch
            document["mirrored"] = self._m_mirrored.count()
            document["missed_probes"] = self.missed_probes
            return 200, document, JSON_TYPE
        if method == "GET" and bare == "/fleet/v1/replicate":
            # Chained standbys are not supported, but the feed is
            # harmless to serve: it reports this mirror's view.
            return 200, self.inner.replicate_document(), JSON_TYPE
        if bare in (
            "/fleet/v1/lease",
            "/fleet/v1/heartbeat",
            "/fleet/v1/push",
        ):
            return 503, {"status": "standby"}, JSON_TYPE
        return self.inner.handle(method, path, body, headers)
