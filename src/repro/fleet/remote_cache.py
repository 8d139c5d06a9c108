"""The fleet's shared warm tier: an HTTP blob cache + its store client.

:class:`CacheServer` serves RPCB1-enveloped blobs over HTTP, backed by
any :class:`~repro.cache.CacheStore` (memory by default, disk with a
directory).  :class:`RemoteCacheStore` is the matching client-side tier
that plugs straight into :class:`~repro.cache.HotspotCache`'s store
list, routing each content key to its replica set via a consistent-hash
ring (:class:`~repro.fleet.router.HashRing`).

Churn tolerance
---------------

- **Replication.**  Every ``put`` writes the blob to the key's first
  ``REPLICATION_FACTOR`` distinct ring nodes (primary + successor), so
  one dead node loses no warmth.
- **Read-repair.**  ``get`` falls through the replica set; when a later
  replica serves the hit, the blob is written back to every earlier
  replica that missed (or hinted to it if it is down), healing holes
  left by churn.
- **Half-open recovery.**  A node failing ``NODE_FAILURE_LIMIT`` times
  in a row is *down*: the next ``PROBE_AFTER_SKIPS`` uses skip it (each
  skip counted), after which the node is *half-open* and the next use
  is admitted as a probe.  Probe success re-opens the node (and flushes
  its hint log); failure re-arms the skip counter.  Everything is
  counter-based — no wall clock — so seeded tests stay deterministic.
- **Hinted handoff.**  Writes that could not reach a replica land in a
  bounded per-node hint log and are flushed when the node's probe
  succeeds, so a recovered node is re-warmed instead of staying a cold
  spot.

Digest verification happens on **both** ends of the wire:

- the server re-verifies the envelope on every ``PUT`` (single or
  batch) and rejects a corrupt upload with 400 — one worker with a bad
  NIC cannot poison the fleet's shared tier;
- the reading :class:`HotspotCache` verifies every blob coming back
  from ``get`` — a corrupt download (or a corrupt server store) is
  counted as ``remote_corrupt`` and treated as a miss, never decoded.

``POST /cache/v1/batch`` carries many gets/puts in one RPC (see
:func:`pack_batch`), so a shard costs one round trip per node instead
of one per clip.

Every client operation passes the ``fleet.cache`` fault point (the
server side passes ``fleet.cache_server``, whose ``corrupt`` kind makes
the node serve deliberately rotten bytes), and any failure — injected
or real — degrades to a miss/no-op: the remote tier is an accelerator,
never a correctness dependency.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from collections import OrderedDict
from typing import Optional, Sequence

from repro.cache import CacheStore, MemoryCacheStore, open_blob
from repro.errors import FleetError, InputError
from repro.fleet.protocol import BLOB_TYPE, JSON_TYPE, FleetClient, metrics_routes
from repro.fleet.router import HashRing
from repro.obs import get_logger
from repro.resilience import faults
from repro.serve.metrics import MetricsRegistry

_log = get_logger("fleet.cache")

#: Consecutive failures after which a cache node is down (skipped).
NODE_FAILURE_LIMIT = 3

#: Skipped uses of a down node before it turns half-open (probe-due).
PROBE_AFTER_SKIPS = 4

#: Blobs replicated per key: primary + ring successor.
REPLICATION_FACTOR = 2

#: Per-node hint-log bound (oldest hints dropped first).
HINT_LOG_LIMIT = 512

#: Magic prefix of the ``/cache/v1/batch`` wire framing.
BATCH_MAGIC = b"RPCBATCH1\n"

#: Numeric node states for the ``fleet_cache_node_state`` gauge.
NODE_STATE_VALUES = {"down": 0.0, "half_open": 1.0, "up": 2.0}


def _split_blob_path(path: str) -> Optional[tuple[str, str, str]]:
    """``/cache/v1/<kind>/<fingerprint>/<key>`` -> its three components."""
    parts = path.strip("/").split("/")
    if len(parts) != 5 or parts[0] != "cache" or parts[1] != "v1":
        return None
    kind, fingerprint, key = (urllib.parse.unquote(p) for p in parts[2:])
    if not (kind and fingerprint and key):
        return None
    return kind, fingerprint, key


# ----------------------------------------------------------------------
# batch wire framing
# ----------------------------------------------------------------------


def pack_batch(document: dict, blobs: Sequence[bytes] = ()) -> bytes:
    """Frame a JSON header + concatenated blobs into one batch body.

    Layout: ``RPCBATCH1\\n`` + 4-byte big-endian header length + JSON
    header (which carries ``blob_lengths``) + the raw blobs backtoback.
    The blobs themselves are RPCB1 envelopes, so each one still carries
    its own digest.
    """
    blobs = list(blobs)
    document = dict(document)
    document["blob_lengths"] = [len(blob) for blob in blobs]
    header = json.dumps(document, separators=(",", ":")).encode("utf-8")
    return (
        BATCH_MAGIC
        + len(header).to_bytes(4, "big")
        + header
        + b"".join(blobs)
    )


def unpack_batch(raw: bytes) -> Optional[tuple[dict, list[bytes]]]:
    """Inverse of :func:`pack_batch`; ``None`` on any framing damage."""
    if not raw.startswith(BATCH_MAGIC):
        return None
    offset = len(BATCH_MAGIC)
    if len(raw) < offset + 4:
        return None
    header_len = int.from_bytes(raw[offset : offset + 4], "big")
    offset += 4
    if len(raw) < offset + header_len:
        return None
    try:
        document = json.loads(raw[offset : offset + header_len])
    except (ValueError, UnicodeDecodeError):
        return None
    offset += header_len
    lengths = document.get("blob_lengths")
    if not isinstance(lengths, list):
        return None
    blobs: list[bytes] = []
    for length in lengths:
        if not isinstance(length, int) or length < 0:
            return None
        blobs.append(raw[offset : offset + length])
        offset += length
    if offset != len(raw):
        return None
    return document, blobs


class CacheServer:
    """HTTP blob-cache app for :class:`~repro.fleet.protocol.FleetHTTPServer`.

    Routes::

        GET  /cache/v1/<kind>/<fingerprint>/<key>   blob | 404
        PUT  /cache/v1/<kind>/<fingerprint>/<key>   verify + store
        POST /cache/v1/batch                        many gets/puts, one RPC
        GET  /cache/v1/stats                        hit/corruption counters
        GET  /healthz                               liveness
    """

    def __init__(self, store: Optional[CacheStore] = None) -> None:
        self.store = store or MemoryCacheStore()
        self.gets = 0
        self.hits = 0
        self.puts = 0
        self.batches = 0
        self.rejected_corrupt = 0
        self.metrics = MetricsRegistry()
        self._m_ops = self.metrics.counter(
            "fleet_cache_ops_total",
            "Cache node operations by outcome "
            "(hit / miss / put / rejected_corrupt).",
            labels=("outcome",),
        )

    def _serve_blob(self, blob: bytes, key: str) -> bytes:
        """Pass the ``fleet.cache_server`` fault point on the way out.

        A ``corrupt`` fault here rots the payload on the wire — the
        reading tier must catch it via the envelope digest and count it
        as ``remote_corrupt``, never decode it.
        """
        try:
            faults.inject("fleet.cache_server", op="get", key=key)
        except InputError:
            return blob[:-1] + bytes([blob[-1] ^ 0x01])
        return blob

    def handle(self, method: str, path: str, body: bytes, headers) -> tuple:
        path = path.split("?", 1)[0]
        routed = metrics_routes(self.metrics, method, path)
        if routed is not None:
            return routed
        if method == "GET" and path == "/healthz":
            healthy = self.store.healthy()
            return (
                200 if healthy else 503,
                {"status": "ok" if healthy else "degraded"},
                JSON_TYPE,
            )
        if method == "GET" and path == "/cache/v1/stats":
            return 200, self.stats(), JSON_TYPE
        if method == "POST" and path == "/cache/v1/batch":
            return self._handle_batch(body)
        blob_key = _split_blob_path(path)
        if blob_key is None:
            return 404, {"error": f"no route {path!r}"}, JSON_TYPE
        kind, fingerprint, key = blob_key
        if method == "GET":
            self.gets += 1
            blob = self.store.get(kind, fingerprint, key)
            if blob is None:
                self._m_ops.labels("miss").inc()
                return 404, {"error": "miss"}, JSON_TYPE
            self.hits += 1
            self._m_ops.labels("hit").inc()
            return 200, self._serve_blob(blob, key), BLOB_TYPE
        if method == "PUT":
            # Server-side digest check: a corrupt upload never lands.
            if open_blob(body) is None:
                self.rejected_corrupt += 1
                self._m_ops.labels("rejected_corrupt").inc()
                return 400, {"error": "corrupt blob envelope"}, JSON_TYPE
            self.store.put(kind, fingerprint, key, body)
            self.puts += 1
            self._m_ops.labels("put").inc()
            return 200, {"status": "ok"}, JSON_TYPE
        return 405, {"error": f"method {method} not allowed"}, JSON_TYPE

    def _handle_batch(self, body: bytes) -> tuple:
        parsed = unpack_batch(body)
        if parsed is None:
            return 400, {"error": "corrupt batch framing"}, JSON_TYPE
        document, blobs = parsed
        self.batches += 1
        hit_keys: list[list] = []
        hit_blobs: list[bytes] = []
        for entry in document.get("gets") or []:
            kind, fingerprint, key = (str(part) for part in entry)
            self.gets += 1
            blob = self.store.get(kind, fingerprint, key)
            if blob is None:
                self._m_ops.labels("miss").inc()
                continue
            self.hits += 1
            self._m_ops.labels("hit").inc()
            hit_keys.append([kind, fingerprint, key])
            hit_blobs.append(self._serve_blob(blob, key))
        put_ok = 0
        put_rejected = 0
        for entry, blob in zip(document.get("puts") or [], blobs):
            kind, fingerprint, key = (str(part) for part in entry)
            if open_blob(blob) is None:
                self.rejected_corrupt += 1
                put_rejected += 1
                self._m_ops.labels("rejected_corrupt").inc()
                continue
            self.store.put(kind, fingerprint, key, blob)
            self.puts += 1
            put_ok += 1
            self._m_ops.labels("put").inc()
        response = {
            "hits": hit_keys,
            "put_ok": put_ok,
            "put_rejected": put_rejected,
        }
        return 200, pack_batch(response, hit_blobs), BLOB_TYPE

    def stats(self) -> dict:
        return {
            "gets": self.gets,
            "hits": self.hits,
            "misses": self.gets - self.hits,
            "puts": self.puts,
            "batches": self.batches,
            "rejected_corrupt": self.rejected_corrupt,
            "entries": len(self.store) if hasattr(self.store, "__len__") else None,
            "hit_rate": (self.hits / self.gets) if self.gets else 0.0,
        }


class RemoteCacheStore(CacheStore):
    """Client-side remote tier: replicated, self-healing HTTP blob store.

    Plugs into ``HotspotCache(stores=[...])``.  Each key's replica set
    is the first ``rf`` distinct ring nodes; ``put`` writes to all of
    them and ``get`` falls through them, read-repairing earlier
    replicas when a later one serves the hit.

    A node failing ``NODE_FAILURE_LIMIT`` times in a row is *down*.  It
    is **not** blacklisted forever: after ``PROBE_AFTER_SKIPS`` skipped
    uses the node is half-open and the next call through it is admitted
    as a recovery probe — success re-opens the node (and flushes its
    hint log back to it), failure re-arms the skip counter.  The whole
    scheme is counter-based, never wall-clock-based, so seeded tests
    stay deterministic.
    """

    name = "remote"

    def __init__(
        self,
        urls: Sequence[str],
        timeout: float = 10.0,
        rf: int = REPLICATION_FACTOR,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        urls = [url.rstrip("/") for url in urls]
        if not urls:
            raise FleetError("remote cache tier needs at least one URL")
        self.timeout = timeout
        self.rf = max(1, int(rf))
        self.ring = HashRing(urls)
        self._clients = {url: FleetClient(url, timeout=timeout) for url in urls}
        self._failures = {url: 0 for url in urls}
        self._skips = {url: 0 for url in urls}
        self._node_errors = {url: 0 for url in urls}
        self._node_probes = {url: 0 for url in urls}
        self._node_repairs = {url: 0 for url in urls}
        self._hints: dict[str, OrderedDict] = {url: OrderedDict() for url in urls}
        self._lock = threading.Lock()
        self.gets = 0
        self.hits = 0
        self.puts = 0
        self.errors = 0
        self.rpcs = 0
        self.batch_rpcs = 0
        self.repairs = 0
        self.probes = 0
        self.hints_recorded = 0
        self.hints_flushed = 0
        self._m_rpcs = None
        self._m_repairs = None
        self._m_node_state = None
        if metrics is not None:
            self._m_rpcs = metrics.counter(
                "fleet_cache_client_rpcs_total",
                "Remote-cache client RPCs by op "
                "(get / put / batch / probe).",
                labels=("op",),
            )
            self._m_repairs = metrics.counter(
                "fleet_cache_repairs_total",
                "Read-repair writes + hint-log flushes to cache nodes.",
            )
            self._m_node_state = metrics.gauge(
                "fleet_cache_node_state",
                "Cache node liveness (2 up, 1 half-open, 0 down).",
                labels=("node",),
            )
            for url in urls:
                self._m_node_state.labels(url).set(NODE_STATE_VALUES["up"])

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def set_nodes(self, urls: Sequence[str]) -> bool:
        """Swap in a new ring membership; ``True`` when it changed.

        Counters and hint logs of retained nodes survive, so a node
        that was down stays down across a topology change.  Thanks to
        consistent hashing only the keys whose replica set touches the
        changed node move.
        """
        urls = [url.rstrip("/") for url in urls if url]
        if not urls:
            return False
        with self._lock:
            if sorted(set(urls)) == self.ring.nodes:
                return False
            self.ring = HashRing(urls)
            for url in self.ring.nodes:
                self._clients.setdefault(url, FleetClient(url, timeout=self.timeout))
                self._failures.setdefault(url, 0)
                self._skips.setdefault(url, 0)
                self._node_errors.setdefault(url, 0)
                self._node_probes.setdefault(url, 0)
                self._node_repairs.setdefault(url, 0)
                self._hints.setdefault(url, OrderedDict())
        _log.info("remote_cache_topology", nodes=list(self.ring.nodes))
        for url in self.ring.nodes:
            self._publish_state(url)
        return True

    def add_node(self, url: str) -> bool:
        """Join one node into the ring; ``True`` when it was new."""
        return self.set_nodes([*self.ring.nodes, url])

    # ------------------------------------------------------------------
    # half-open recovery state machine (all counter-based)
    # ------------------------------------------------------------------
    def _blob_path(self, kind: str, fingerprint: str, key: str) -> str:
        return "/cache/v1/{}/{}/{}".format(
            *(urllib.parse.quote(p, safe="") for p in (kind, fingerprint, key))
        )

    def _replicas(self, kind: str, fingerprint: str, key: str) -> list[str]:
        return self.ring.replicas_for(f"{kind}/{fingerprint}/{key}", self.rf)

    def _node_up(self, url: str) -> bool:
        return self._failures.get(url, 0) < NODE_FAILURE_LIMIT

    def _state_of(self, url: str) -> str:
        if self._node_up(url):
            return "up"
        if self._skips.get(url, 0) >= PROBE_AFTER_SKIPS:
            return "half_open"
        return "down"

    def _publish_state(self, url: str) -> None:
        if self._m_node_state is not None:
            self._m_node_state.labels(url).set(
                NODE_STATE_VALUES[self._state_of(url)]
            )

    def _admit(self, url: str) -> bool:
        """Deterministic gate in front of every node use.

        Up nodes pass.  A down node counts the skipped use; once it has
        been skipped ``PROBE_AFTER_SKIPS`` times it is half-open and
        this call is admitted as the recovery probe (re-arming the skip
        counter so a failed probe waits another full cycle).
        """
        with self._lock:
            if self._node_up(url):
                return True
            if self._skips[url] >= PROBE_AFTER_SKIPS:
                self._skips[url] = 0
                self.probes += 1
                self._node_probes[url] += 1
                probe = True
            else:
                self._skips[url] += 1
                probe = False
        self._publish_state(url)
        if probe:
            if self._m_rpcs is not None:
                self._m_rpcs.labels("probe").inc()
            _log.info("remote_cache_probe", node=url)
        return probe

    def _mark(self, url: str, ok: bool) -> None:
        recovered = False
        with self._lock:
            was_down = not self._node_up(url)
            if ok:
                self._failures[url] = 0
                self._skips[url] = 0
                recovered = was_down
            else:
                self._node_errors[url] = self._node_errors.get(url, 0) + 1
                self._failures[url] = self._failures.get(url, 0) + 1
                self._skips[url] = 0
        self._publish_state(url)
        if recovered:
            _log.info("remote_cache_node_recovered", node=url)
            self._flush_hints(url)

    def healthy(self) -> bool:
        """``True`` while the tier is worth calling.

        When *every* node is down the tier itself would be skipped by
        the cache, so no per-call skip counting could ever arm a probe.
        This method counts those skipped tier uses instead, turning
        true once a node is probe-due — which re-admits the tier and
        lets the probe fire.
        """
        with self._lock:
            if any(self._node_up(url) for url in self.ring.nodes):
                return True
            due = False
            for url in self.ring.nodes:
                if self._skips[url] >= PROBE_AFTER_SKIPS:
                    due = True
                else:
                    self._skips[url] += 1
        return due

    # ------------------------------------------------------------------
    # hinted handoff
    # ------------------------------------------------------------------
    def _hint(self, url: str, kind: str, fingerprint: str, key: str,
              blob: bytes) -> None:
        with self._lock:
            log = self._hints.setdefault(url, OrderedDict())
            log[(kind, fingerprint, key)] = blob
            log.move_to_end((kind, fingerprint, key))
            while len(log) > HINT_LOG_LIMIT:
                log.popitem(last=False)
            self.hints_recorded += 1

    def _flush_hints(self, url: str) -> None:
        """Replay the node's hint log after a successful probe."""
        with self._lock:
            pending = self._hints.get(url)
            if not pending:
                return
            items = list(pending.items())
            pending.clear()
        entries = [
            (kind, fingerprint, key, blob)
            for (kind, fingerprint, key), blob in items
        ]
        sent = self._send_batch_put(url, entries, record_hints=False)
        if sent:
            with self._lock:
                self.hints_flushed += len(entries)
                self.repairs += len(entries)
                self._node_repairs[url] = (
                    self._node_repairs.get(url, 0) + len(entries)
                )
            if self._m_repairs is not None:
                self._m_repairs.labels().inc(len(entries))
            _log.info("remote_cache_hints_flushed", node=url,
                      count=len(entries))

    # ------------------------------------------------------------------
    # single-key ops
    # ------------------------------------------------------------------
    def get(self, kind: str, fingerprint: str, key: str) -> Optional[bytes]:
        self.gets += 1
        path = self._blob_path(kind, fingerprint, key)
        missed_live: list[str] = []
        unreachable: list[str] = []
        for url in self._replicas(kind, fingerprint, key):
            if not self._admit(url):
                unreachable.append(url)
                continue
            try:
                faults.inject("fleet.cache", op="get", node=url, key=key)
                self.rpcs += 1
                if self._m_rpcs is not None:
                    self._m_rpcs.labels("get").inc()
                status, payload, _ = self._clients[url].request("GET", path)
            except Exception as exc:
                self.errors += 1
                self._mark(url, ok=False)
                unreachable.append(url)
                _log.warning("remote_cache_get_failed", node=url,
                             error=str(exc))
                continue
            self._mark(url, ok=True)
            if status == 200:
                # Raw enveloped bytes: HotspotCache verifies the digest
                # before decoding (corrupt -> remote_corrupt + miss).
                self.hits += 1
                self._repair(missed_live, unreachable, kind, fingerprint,
                             key, payload)
                return payload
            missed_live.append(url)
        return None  # every replica answered miss or is unreachable

    def put(self, kind: str, fingerprint: str, key: str, blob: bytes) -> None:
        path = self._blob_path(kind, fingerprint, key)
        for url in self._replicas(kind, fingerprint, key):
            if not self._admit(url):
                self._hint(url, kind, fingerprint, key, blob)
                continue
            try:
                faults.inject("fleet.cache", op="put", node=url, key=key)
                self.rpcs += 1
                if self._m_rpcs is not None:
                    self._m_rpcs.labels("put").inc()
                status, payload, _ = self._clients[url].request(
                    "PUT", path, blob, BLOB_TYPE
                )
            except Exception as exc:
                self.errors += 1
                self._mark(url, ok=False)
                self._hint(url, kind, fingerprint, key, blob)
                _log.warning("remote_cache_put_failed", node=url,
                             error=str(exc))
                continue
            self._mark(url, ok=True)
            if status == 200:
                self.puts += 1
            else:
                _log.warning(
                    "remote_cache_put_rejected",
                    node=url,
                    status=status,
                    detail=str(payload[:100]),
                )

    def _repair(self, missed_live: Sequence[str], unreachable: Sequence[str],
                kind: str, fingerprint: str, key: str, blob: bytes) -> None:
        """Write a deep-replica hit back to the earlier replicas."""
        path = self._blob_path(kind, fingerprint, key)
        for url in unreachable:
            self._hint(url, kind, fingerprint, key, blob)
        for url in missed_live:
            try:
                faults.inject("fleet.cache", op="put", node=url, key=key)
                self.rpcs += 1
                if self._m_rpcs is not None:
                    self._m_rpcs.labels("put").inc()
                status, _, _ = self._clients[url].request(
                    "PUT", path, blob, BLOB_TYPE
                )
            except Exception:
                self.errors += 1
                self._mark(url, ok=False)
                self._hint(url, kind, fingerprint, key, blob)
                continue
            self._mark(url, ok=True)
            if status == 200:
                with self._lock:
                    self.repairs += 1
                    self._node_repairs[url] = self._node_repairs.get(url, 0) + 1
                if self._m_repairs is not None:
                    self._m_repairs.labels().inc()
                _log.info("remote_cache_read_repair", node=url, key=key)

    # ------------------------------------------------------------------
    # batch ops (one RPC per node per shard)
    # ------------------------------------------------------------------
    def _batch_rpc(
        self, url: str, gets: Sequence[tuple] = (), puts: Sequence[tuple] = ()
    ) -> Optional[tuple[dict, list[bytes]]]:
        """One ``POST /cache/v1/batch`` round trip; ``None`` on failure."""
        document = {
            "gets": [[k, f, key] for (k, f, key) in gets],
            "puts": [[k, f, key] for (k, f, key, _) in puts],
        }
        body = pack_batch(document, [blob for (_, _, _, blob) in puts])
        try:
            faults.inject("fleet.cache", op="batch", node=url,
                          key=f"batch:{len(gets)}g{len(puts)}p")
            self.rpcs += 1
            self.batch_rpcs += 1
            if self._m_rpcs is not None:
                self._m_rpcs.labels("batch").inc()
            status, payload, _ = self._clients[url].request(
                "POST", "/cache/v1/batch", body, BLOB_TYPE
            )
        except Exception as exc:
            self.errors += 1
            self._mark(url, ok=False)
            _log.warning("remote_cache_batch_failed", node=url,
                         error=str(exc))
            return None
        self._mark(url, ok=True)
        if status != 200:
            _log.warning("remote_cache_batch_rejected", node=url,
                         status=status)
            return None
        parsed = unpack_batch(payload)
        if parsed is None:
            _log.warning("remote_cache_batch_unparseable", node=url)
            return None
        return parsed

    def get_many(
        self, entries: Sequence[tuple[str, str, str]]
    ) -> dict[tuple[str, str, str], bytes]:
        """Batched multi-get across the ring, with replica fall-through.

        Returns the found blobs keyed by ``(kind, fingerprint, key)``.
        Keys missed at an earlier replica but found at a later one are
        read-repaired (batched per node).
        """
        entries = [tuple(entry) for entry in entries]
        self.gets += len(entries)
        results: dict[tuple[str, str, str], bytes] = {}
        repair_now: dict[str, list[tuple]] = {}
        hint_later: dict[str, list[tuple]] = {}
        tried: dict[tuple, list[tuple[str, bool]]] = {e: [] for e in entries}
        remaining = list(dict.fromkeys(entries))
        for attempt in range(self.rf):
            if not remaining:
                break
            groups: dict[str, list[tuple]] = {}
            exhausted: list[tuple] = []
            for entry in remaining:
                replicas = self._replicas(*entry)
                if attempt >= len(replicas):
                    exhausted.append(entry)
                    continue
                groups.setdefault(replicas[attempt], []).append(entry)
            next_round: list[tuple] = list(exhausted)
            for url, batch_entries in groups.items():
                if not self._admit(url):
                    for entry in batch_entries:
                        tried[entry].append((url, False))
                    next_round.extend(batch_entries)
                    continue
                parsed = self._batch_rpc(url, gets=batch_entries)
                if parsed is None:
                    for entry in batch_entries:
                        tried[entry].append((url, False))
                    next_round.extend(batch_entries)
                    continue
                document, blobs = parsed
                found = {
                    tuple(str(p) for p in entry): blob
                    for entry, blob in zip(document.get("hits") or [], blobs)
                }
                for entry in batch_entries:
                    blob = found.get(entry)
                    if blob is None:
                        tried[entry].append((url, True))
                        next_round.append(entry)
                        continue
                    self.hits += 1
                    results[entry] = blob
                    for earlier_url, live in tried[entry]:
                        target = repair_now if live else hint_later
                        target.setdefault(earlier_url, []).append(
                            (*entry, blob)
                        )
            remaining = [e for e in next_round if e not in results]
        for url, hinted in hint_later.items():
            for (kind, fingerprint, key, blob) in hinted:
                self._hint(url, kind, fingerprint, key, blob)
        for url, repairs in repair_now.items():
            if self._send_batch_put(url, repairs, record_hints=True):
                with self._lock:
                    self.repairs += len(repairs)
                    self._node_repairs[url] = (
                        self._node_repairs.get(url, 0) + len(repairs)
                    )
                if self._m_repairs is not None:
                    self._m_repairs.labels().inc(len(repairs))
        return results

    def _send_batch_put(
        self,
        url: str,
        entries: Sequence[tuple[str, str, str, bytes]],
        record_hints: bool = True,
    ) -> bool:
        if not entries:
            return True
        parsed = self._batch_rpc(url, puts=entries)
        if parsed is None:
            if record_hints:
                for (kind, fingerprint, key, blob) in entries:
                    self._hint(url, kind, fingerprint, key, blob)
            return False
        document, _ = parsed
        self.puts += int(document.get("put_ok", 0))
        return True

    def put_many(
        self, entries: Sequence[tuple[str, str, str, bytes]]
    ) -> None:
        """Batched multi-put: each blob to its full replica set."""
        groups: dict[str, list[tuple]] = {}
        for (kind, fingerprint, key, blob) in entries:
            for url in self._replicas(kind, fingerprint, key):
                groups.setdefault(url, []).append(
                    (kind, fingerprint, key, blob)
                )
        for url, batch in groups.items():
            if not self._admit(url):
                for (kind, fingerprint, key, blob) in batch:
                    self._hint(url, kind, fingerprint, key, blob)
                continue
            self._send_batch_put(url, batch, record_hints=True)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "gets": self.gets,
                "hits": self.hits,
                "puts": self.puts,
                "errors": self.errors,
                "rpcs": self.rpcs,
                "batch_rpcs": self.batch_rpcs,
                "repairs": self.repairs,
                "probes": self.probes,
                "hints_pending": sum(len(h) for h in self._hints.values()),
                "hints_flushed": self.hints_flushed,
                "nodes": {url: self._failures[url] for url in self.ring.nodes},
            }

    def node_health(self) -> dict:
        """Per-node liveness + repair counters (client's view)."""
        with self._lock:
            return {
                url: {
                    "state": self._state_of(url),
                    "failures": self._failures.get(url, 0),
                    "skips": self._skips.get(url, 0),
                    "errors": self._node_errors.get(url, 0),
                    "probes": self._node_probes.get(url, 0),
                    "repairs": self._node_repairs.get(url, 0),
                    "hints_pending": len(self._hints.get(url, ())),
                }
                for url in self.ring.nodes
            }

    def tier_stats(self) -> dict:
        """Extra keys merged into ``HotspotCache.stats_dict()``."""
        return {
            "remote_store_gets": self.gets,
            "remote_store_hits": self.hits,
            "remote_rpcs": self.rpcs,
            "remote_batch_rpcs": self.batch_rpcs,
            "remote_repairs": self.repairs,
            "remote_probes": self.probes,
            "remote_hints_flushed": self.hints_flushed,
            "remote_nodes": self.node_health(),
        }
