"""repro.fleet — distributed scans and horizontally-replicated serving.

The fleet layer spans the single-node primitives across machines while
preserving the repo's core invariant: **a 1-node and an N-node scan are
bit-identical** (same hotspot set, margins and funnel counts).

- :mod:`repro.fleet.protocol` — the JSON + RPCB1-blob wire format and
  the shared HTTP server/client plumbing;
- :mod:`repro.fleet.coordinator` — :class:`FleetCoordinator`: shard
  leasing with heartbeat TTLs, first-push-wins merge, journal-backed
  crash recovery (``--resume`` works across coordinator death);
- :mod:`repro.fleet.worker` — :class:`FleetWorker`: pull a lease,
  evaluate the shard with the exact single-node code path, push the
  npz record back; takes an ordered coordinator list and re-homes to
  the promoted standby on leader failure;
- :mod:`repro.fleet.ha` — :class:`StandbyCoordinator`: tails the
  primary's replicate feed and promotes itself under a new leader
  epoch when health probes go unanswered;
- :mod:`repro.fleet.remote_cache` — an HTTP blob cache
  (:class:`CacheServer`) and the :class:`RemoteCacheStore` tier that
  plugs it into :class:`~repro.cache.HotspotCache`: RF=2 replication
  over the hash ring, read-repair, half-open node recovery with hinted
  handoff, and a batch RPC (``/cache/v1/batch``) for shard-sized
  multi-get/multi-put;
- :mod:`repro.fleet.membership` / :mod:`repro.fleet.router` — TTL'd
  peer registry, consistent-hash + round-robin routing, and the
  :class:`~repro.fleet.router.FleetFrontend` predict proxy;
- :mod:`repro.fleet.launch` — the ``fleet-coordinator`` (primary and
  standby) and ``fleet-worker`` command lines of one fleet scan.

CLI entry points: ``repro fleet-scan | fleet-worker | fleet-cache |
fleet-frontend | fleet-coordinator | chaos``.  See ``docs/FLEET.md``.
"""

from repro.fleet.coordinator import FleetCoordinator, FleetOptions
from repro.fleet.ha import StandbyCoordinator
from repro.fleet.membership import Member, MemberTable
from repro.fleet.protocol import (
    FLEET_PROTOCOL_VERSION,
    METRICS_TEXT_TYPE,
    FleetClient,
    FleetHTTPServer,
    metrics_routes,
)
from repro.fleet.remote_cache import (
    REPLICATION_FACTOR,
    CacheServer,
    RemoteCacheStore,
    pack_batch,
    unpack_batch,
)
from repro.fleet.router import FleetFrontend, HashRing, RoundRobin
from repro.fleet.worker import CoordinatorChannel, FleetWorker

__all__ = [
    "FLEET_PROTOCOL_VERSION",
    "METRICS_TEXT_TYPE",
    "REPLICATION_FACTOR",
    "CacheServer",
    "CoordinatorChannel",
    "FleetClient",
    "FleetCoordinator",
    "FleetFrontend",
    "FleetHTTPServer",
    "FleetOptions",
    "FleetWorker",
    "HashRing",
    "Member",
    "MemberTable",
    "RemoteCacheStore",
    "RoundRobin",
    "StandbyCoordinator",
    "metrics_routes",
    "pack_batch",
    "unpack_batch",
]
