"""Churn tolerance of the replicated remote cache tier.

The warm tier must survive its own membership being unreliable:

- a node failing ``NODE_FAILURE_LIMIT`` times in a row is skipped, but
  **never blacklisted forever** — the counter-based half-open probe
  re-admits it the moment it answers again, and its hint log re-warms
  it;
- every blob lives on ``REPLICATION_FACTOR`` ring nodes, ``get`` falls
  through the replica set, and a deep hit read-repairs the replicas
  that missed;
- batch RPCs carry a whole shard's gets/puts in one round trip per
  node;
- none of it may ever change scan output: a fleet scan through a tier
  with a dead member stays bit-identical to the quiet single-node run.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cache import HotspotCache, MemoryCacheStore, wrap_blob
from repro.fleet import (
    CacheServer,
    FleetClient,
    FleetHTTPServer,
    FleetOptions,
    RemoteCacheStore,
    pack_batch,
    unpack_batch,
)
from repro.fleet.remote_cache import (
    NODE_FAILURE_LIMIT,
    PROBE_AFTER_SKIPS,
)
from repro.fleet.protocol import wait_until
from repro.resilience import faults
from repro.resilience.drill import DrillSchedule

from tests.test_fleet import (  # noqa: F401 — fixtures re-exported
    assert_identical,
    detached,
    fitted,
    run_fleet,
    signature,
)


@pytest.fixture()
def cache_node():
    app = CacheServer(store=MemoryCacheStore())
    with FleetHTTPServer(app) as server:
        yield app, server.url


@pytest.fixture()
def two_nodes():
    apps = [CacheServer(store=MemoryCacheStore()) for _ in range(2)]
    with FleetHTTPServer(apps[0]) as first, FleetHTTPServer(apps[1]) as second:
        yield (apps[0], first.url), (apps[1], second.url)


BLOB = wrap_blob(b"some cached payload")


# ----------------------------------------------------------------------
# half-open recovery: down is a state, not a sentence
# ----------------------------------------------------------------------
class TestHalfOpenRecovery:
    def test_node_failing_three_times_then_healed_serves_again(self, cache_node):
        app, url = cache_node
        store = RemoteCacheStore([url], timeout=2.0)
        with faults.active(f"seed=1;fleet.cache=error:1.0!{NODE_FAILURE_LIMIT}"):
            store.put("margins", "fp", "key", BLOB)  # fails -> hinted
            assert store.get("margins", "fp", "key") is None
            assert store.get("margins", "fp", "key") is None
        health = store.node_health()[url]
        assert health["state"] == "down"
        assert health["failures"] == NODE_FAILURE_LIMIT
        assert health["hints_pending"] == 1

        # While down, uses are skipped without ever reaching the server.
        for _ in range(PROBE_AFTER_SKIPS):
            assert store.get("margins", "fp", "key") is None
        assert app.stats()["gets"] == 0

        # The next use is the recovery probe.  It answers (a miss — the
        # put never landed), which re-opens the node and flushes the
        # hinted put back to it; traffic flows again.
        assert store.get("margins", "fp", "key") is None
        assert store.node_health()[url]["state"] == "up"
        assert store.tier_stats()["remote_probes"] == 1
        assert store.hints_flushed == 1
        assert store.get("margins", "fp", "key") == BLOB
        assert store.hits == 1

    def test_failed_probe_rearms_the_skip_cycle(self, cache_node):
        app, url = cache_node
        store = RemoteCacheStore([url], timeout=2.0)
        limit = NODE_FAILURE_LIMIT + 1  # 3 to go down + 1 failed probe
        with faults.active(f"seed=1;fleet.cache=error:1.0!{limit}"):
            for _ in range(NODE_FAILURE_LIMIT):
                assert store.get("margins", "fp", "key") is None
            assert store.node_health()[url]["state"] == "down"
            for _ in range(PROBE_AFTER_SKIPS):
                store.get("margins", "fp", "key")
            # Probe fires into the still-failing node: re-armed, down.
            assert store.get("margins", "fp", "key") is None
        assert store.tier_stats()["remote_probes"] == 1
        assert store.node_health()[url]["state"] == "down"
        # A full skip cycle later the *second* probe finds it healed.
        for _ in range(PROBE_AFTER_SKIPS + 1):
            store.get("margins", "fp", "key")
        assert store.tier_stats()["remote_probes"] == 2
        assert store.node_health()[url]["state"] == "up"

    def test_all_down_tier_turns_healthy_to_fire_the_probe(self):
        store = RemoteCacheStore(["http://127.0.0.1:9"], timeout=0.2)
        for _ in range(NODE_FAILURE_LIMIT):
            store.get("margins", "fp", "key")
        assert not store.healthy()
        # healthy() itself counts the skipped tier uses; once the lone
        # node is probe-due the tier re-admits itself.
        states = [store.healthy() for _ in range(PROBE_AFTER_SKIPS)]
        assert states[-1] is True


# ----------------------------------------------------------------------
# replication + read-repair
# ----------------------------------------------------------------------
class TestReplication:
    def test_put_writes_to_both_replicas(self, two_nodes):
        (app0, url0), (app1, url1) = two_nodes
        store = RemoteCacheStore([url0, url1])
        store.put("margins", "fp", "key", BLOB)
        assert app0.stats()["puts"] == 1 and app1.stats()["puts"] == 1
        assert store.puts == 2

    def test_get_falls_through_to_the_surviving_replica(self, two_nodes):
        (app0, url0), (app1, url1) = two_nodes
        store = RemoteCacheStore([url0, url1])
        store.put("margins", "fp", "key", BLOB)
        primary = store.ring.replicas_for("margins/fp/key", 2)[0]
        primary_app = app0 if primary == url0 else app1
        primary_app.store._blobs.clear()  # the primary lost everything
        assert store.get("margins", "fp", "key") == BLOB

    def test_deep_hit_read_repairs_the_primary(self, two_nodes):
        (app0, url0), (app1, url1) = two_nodes
        store = RemoteCacheStore([url0, url1])
        store.put("margins", "fp", "key", BLOB)
        primary = store.ring.replicas_for("margins/fp/key", 2)[0]
        primary_app = app0 if primary == url0 else app1
        primary_app.store._blobs.clear()
        assert store.get("margins", "fp", "key") == BLOB
        assert store.tier_stats()["remote_repairs"] == 1
        # The hole is healed: the primary answers by itself again.
        assert len(primary_app.store) == 1
        assert store.get("margins", "fp", "key") == BLOB

    def test_unreachable_replica_gets_a_hint_not_a_repair(self, cache_node):
        app, url = cache_node
        dead = "http://127.0.0.1:9"
        store = RemoteCacheStore([url, dead], timeout=0.2)
        keys = [f"k{i}" for i in range(12)]
        for key in keys:
            store.put("margins", "fp", key, BLOB)
        # Some puts hit the dead node first: hinted, not lost.
        assert store.node_health()[dead]["state"] in ("down", "half_open")
        assert store.hints_recorded > 0
        for key in keys:
            assert store.get("margins", "fp", key) == BLOB


# ----------------------------------------------------------------------
# batch protocol: one RPC per node per shard
# ----------------------------------------------------------------------
class TestBatchProtocol:
    def test_framing_round_trips(self):
        document = {"gets": [["margins", "fp", "k"]], "puts": []}
        raw = pack_batch(document, [BLOB, b"x"])
        parsed = unpack_batch(raw)
        assert parsed is not None
        decoded, blobs = parsed
        assert decoded["gets"] == document["gets"]
        assert blobs == [BLOB, b"x"]
        assert unpack_batch(raw[:-1]) is None  # truncated
        assert unpack_batch(b"junk" + raw) is None  # bad magic

    def test_put_many_get_many_round_trip_counts_rpcs(self, two_nodes):
        (app0, url0), (app1, url1) = two_nodes
        store = RemoteCacheStore([url0, url1])
        entries = [
            ("margins", "fp", f"k{i}", wrap_blob(bytes([i]) * 8))
            for i in range(16)
        ]
        store.put_many(entries)
        # RF=2 on a 2-node ring: every node holds every key, and each
        # node saw exactly ONE batch RPC for all 16 puts.
        assert store.tier_stats()["remote_batch_rpcs"] == 2
        assert app0.stats()["puts"] == app1.stats()["puts"] == 16
        assert app0.batches == app1.batches == 1

        found = store.get_many([(k, f, key) for (k, f, key, _) in entries])
        assert len(found) == 16
        assert found[("margins", "fp", "k3")] == entries[3][3]
        # The multi-get grouped by primary replica: at most one more
        # batch RPC per node.
        batch_rpcs = store.tier_stats()["remote_batch_rpcs"]
        assert batch_rpcs <= 4
        assert app0.batches + app1.batches == batch_rpcs

    def test_get_many_falls_through_and_read_repairs_in_batch(self, two_nodes):
        (app0, url0), (app1, url1) = two_nodes
        store = RemoteCacheStore([url0, url1])
        entries = [
            ("margins", "fp", f"k{i}", wrap_blob(bytes([i]) * 8))
            for i in range(16)
        ]
        store.put_many(entries)
        app0.store._blobs.clear()  # node 0 lost its whole store
        found = store.get_many([(k, f, key) for (k, f, key, _) in entries])
        assert len(found) == 16
        # Every key whose primary was the wiped node was repaired back.
        repairs = store.tier_stats()["remote_repairs"]
        assert repairs > 0
        assert len(app0.store) == repairs

    def test_batch_put_rejects_corrupt_blobs_individually(self, cache_node):
        app, url = cache_node
        store = RemoteCacheStore([url])
        rotten = BLOB[:-1] + bytes([BLOB[-1] ^ 0xFF])
        store.put_many(
            [
                ("margins", "fp", "good", BLOB),
                ("margins", "fp", "bad", rotten),
            ]
        )
        assert app.stats()["puts"] == 1
        assert app.stats()["rejected_corrupt"] == 1
        assert store.get("margins", "fp", "good") == BLOB
        assert store.get("margins", "fp", "bad") is None


# ----------------------------------------------------------------------
# runtime membership change
# ----------------------------------------------------------------------
class TestMembershipChange:
    def test_joined_node_takes_new_writes(self, two_nodes):
        (app0, url0), (app1, url1) = two_nodes
        store = RemoteCacheStore([url0])
        keys = [f"k{i}" for i in range(24)]
        for key in keys:
            store.put("margins", "fp", key, BLOB)
        assert app0.stats()["puts"] == 24

        assert store.add_node(url1)
        assert not store.add_node(url1)  # idempotent
        for key in keys:
            store.put("margins", "fp", key, BLOB)
        # RF=2 on two nodes: the joiner now holds every key too.
        assert app1.stats()["puts"] == 24
        for key in keys:
            assert store.get("margins", "fp", key) == BLOB

    def test_set_nodes_keeps_down_state_of_retained_nodes(self, cache_node):
        app, url = cache_node
        dead = "http://127.0.0.1:9"
        store = RemoteCacheStore([dead], timeout=0.2)
        for _ in range(NODE_FAILURE_LIMIT):
            store.get("margins", "fp", "key")
        assert store.node_health()[dead]["state"] == "down"
        assert store.set_nodes([dead, url])
        # The dead node stayed down across the topology change; the new
        # node serves immediately.
        assert store.node_health()[dead]["state"] == "down"
        store.put("margins", "fp", "key", BLOB)
        assert app.stats()["puts"] == 1


# ----------------------------------------------------------------------
# HotspotCache plumbing: prefetch, write-behind, corrupt rejection
# ----------------------------------------------------------------------
class TestHotspotCachePlumbing:
    def test_write_behind_flush_and_prefetch(self, two_nodes):
        (app0, url0), (app1, url1) = two_nodes
        store = RemoteCacheStore([url0, url1])
        cache = HotspotCache(stores=[store], write_behind=True)
        for i in range(6):
            cache.put_margins("fp", f"key{i}", np.array([float(i)]))
        # Buffered, nothing on the wire.
        assert app0.stats()["puts"] + app1.stats()["puts"] == 0
        cache.flush()
        assert app0.stats()["puts"] + app1.stats()["puts"] == 12  # 6 keys x RF=2
        assert store.tier_stats()["remote_batch_rpcs"] == 2

        cache.clear_memory()
        warmed = cache.prefetch("margins", "fp", [f"key{i}" for i in range(8)])
        assert warmed == 6
        rpcs_after_prefetch = store.tier_stats()["remote_rpcs"]
        # Hits serve from memory; the two prefetched-absent keys are
        # remembered and do not pay one RPC each.
        assert np.array_equal(cache.get_margins("fp", "key3"), [3.0])
        assert cache.get_margins("fp", "key6") is None
        assert cache.get_margins("fp", "key7") is None
        assert store.tier_stats()["remote_rpcs"] == rpcs_after_prefetch

    def test_corrupt_serving_node_is_a_counted_miss(self, cache_node):
        app, url = cache_node
        store = RemoteCacheStore([url])
        cache = HotspotCache(stores=[store])
        cache.put_margins("fp", "key", np.array([1.0, 2.0]))
        cache.clear_memory()
        with faults.active("seed=7;fleet.cache_server=corrupt:1.0!1"):
            assert cache.get_margins("fp", "key") is None
        stats = cache.stats_dict()
        assert stats["remote_corrupt"] == 1
        # The stored blob is intact — only the wire was rotten.
        cache.clear_memory()
        assert np.array_equal(cache.get_margins("fp", "key"), [1.0, 2.0])

    def test_stats_dict_carries_tier_and_node_health(self, cache_node):
        app, url = cache_node
        store = RemoteCacheStore([url])
        cache = HotspotCache(stores=[store])
        cache.put_margins("fp", "key", np.array([1.0]))
        cache.clear_memory()
        cache.get_margins("fp", "key")
        stats = cache.stats_dict()
        assert stats["remote_store_gets"] >= 1
        assert stats["remote_store_hits"] >= 1
        assert stats["remote_rpcs"] >= 2
        assert stats["remote_nodes"][url]["state"] == "up"


# ----------------------------------------------------------------------
# the fleet invariant holds with a dead replica in the ring
# ----------------------------------------------------------------------
class TestFleetThroughChurningTier:
    def test_scan_with_dead_replica_is_bit_identical_and_uncorrupted(
        self, detached, small_benchmark, two_nodes
    ):
        (app0, url0), (app1, url1) = two_nodes
        layout = small_benchmark.testing.layout
        baseline = signature(detached, detached.detect(layout))

        dead = "http://127.0.0.1:9"
        options = FleetOptions(cache_urls=[url0, dead])
        coordinator, workers, scan = run_fleet(
            detached, layout, worker_count=2, options=options
        )
        fleet = signature(detached, detached.detect(layout, scan=scan))
        assert_identical(baseline, fleet)

        status = coordinator.status()
        cache = status["cache"]
        assert cache["remote_corrupt"] == 0
        assert cache["nodes"][dead]["state"] in ("down", "half_open", "up")
        # The live node took writes despite its dead ring neighbour.
        assert app0.stats()["puts"] > 0

    def test_warm_rescan_hits_the_surviving_tier(
        self, detached, small_benchmark, two_nodes
    ):
        (app0, url0), (app1, url1) = two_nodes
        layout = small_benchmark.testing.layout
        baseline = signature(detached, detached.detect(layout))
        options = FleetOptions(cache_urls=[url0, url1])

        coordinator, _, scan = run_fleet(
            detached, layout, worker_count=2, options=options
        )
        assert_identical(
            baseline, signature(detached, detached.detect(layout, scan=scan))
        )
        cold = coordinator.status()["cache"]

        # Second scan over the warmed tier — with one RF node dead.
        assert len(app1.store) > 0  # RF=2 warmed both nodes
        warm_options = FleetOptions(cache_urls=[url0, "http://127.0.0.1:9"])
        coordinator2, _, scan2 = run_fleet(
            detached, layout, worker_count=2, options=warm_options
        )
        assert_identical(
            baseline, signature(detached, detached.detect(layout, scan=scan2))
        )
        warm = coordinator2.status()["cache"]
        assert warm["remote_corrupt"] == 0
        assert warm["remote_hits"] > 0
        assert warm["hit_rate"] > 0.0


# ----------------------------------------------------------------------
# a stopped-then-continued real cache node is re-admitted (acceptance)
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _stopped(pid: int) -> bool:
    """Whether every thread of ``pid`` has actually stopped.

    ``os.kill(pid, SIGSTOP)`` returns before the signal takes effect; on
    a loaded machine a thread can still answer a request in between.
    """
    tasks = Path(f"/proc/{pid}/task")
    if tasks.is_dir():
        states = []
        for task in tasks.iterdir():
            try:
                stat = (task / "stat").read_text()
            except OSError:
                continue  # the thread exited meanwhile
            # "tid (comm) state ...": comm may hold spaces or parentheses.
            states.append(stat.rsplit(")", 1)[1].split()[0])
        return bool(states) and all(state == "T" for state in states)
    ps = subprocess.run(
        ["ps", "-o", "stat=", "-p", str(pid)], capture_output=True, text=True
    )
    return ps.stdout.strip().startswith("T")


@pytest.mark.skipif(os.name != "posix", reason="needs SIGSTOP/SIGCONT")
def test_stopped_then_continued_cache_node_is_readmitted(tmp_path):
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(faults.ENV_VAR, None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet-cache", "--port", str(port)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        def _up() -> bool:
            try:
                return FleetClient(url, timeout=1.0).get_json("/healthz")[0] == 200
            except Exception:
                return False

        assert wait_until(_up, timeout_s=30.0, interval_s=0.1)
        store = RemoteCacheStore([url], timeout=0.5)
        store.put("margins", "fp", "key", BLOB)
        assert store.get("margins", "fp", "key") == BLOB

        os.kill(proc.pid, signal.SIGSTOP)
        assert wait_until(lambda: _stopped(proc.pid), timeout_s=10.0, interval_s=0.01)
        for _ in range(NODE_FAILURE_LIMIT):
            assert store.get("margins", "fp", "key") is None
        assert store.node_health()[url]["state"] == "down"

        os.kill(proc.pid, signal.SIGCONT)
        # Four skipped uses arm the probe; the fifth IS the probe, and
        # the resumed node answers it with the original blob.
        results = [
            store.get("margins", "fp", "key")
            for _ in range(PROBE_AFTER_SKIPS + 1)
        ]
        assert results[:PROBE_AFTER_SKIPS] == [None] * PROBE_AFTER_SKIPS
        assert results[-1] == BLOB
        assert store.tier_stats()["remote_probes"] == 1
        assert store.node_health()[url]["state"] == "up"
    finally:
        if proc.poll() is None:
            try:
                os.kill(proc.pid, signal.SIGCONT)
            except OSError:
                pass
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


# ----------------------------------------------------------------------
# drill DSL: the new verbs and roles parse (the drill itself runs in CI)
# ----------------------------------------------------------------------
class TestDrillDsl:
    def test_cache_verbs_parse(self):
        schedule = DrillSchedule.parse(
            "seed 7\n"
            "at 1.0 kill cache-1\n"
            "at 2.0 stop cache-0; at 4.0 cont cache-0\n"
            "at 5.0 add cache-2\n"
            "at 0 faults worker-0 fleet.cache=error:0.5!2\n"
        )
        assert schedule.seed == 7
        assert [a.verb for a in schedule.actions] == [
            "faults", "kill", "stop", "cont", "add",
        ]
        assert schedule.spawn_faults("worker-0") == (
            "seed=7;fleet.cache=error:0.5!2"
        )

    def test_serve_roles_parse(self):
        schedule = DrillSchedule.parse(
            "at 0.5 kill replica-0\nat 1.0 stop frontend\nat 2 cont frontend"
        )
        assert [a.target for a in schedule.actions] == [
            "replica-0", "frontend", "frontend",
        ]

    def test_add_only_targets_cache_nodes(self):
        from repro.errors import InputError

        with pytest.raises(InputError):
            DrillSchedule.parse("at 1 add worker-0")


class TestDrillPorts:
    def test_a_repeated_probe_port_is_drawn_again(self, monkeypatch):
        """The probe closes its socket before a role binds the port, so
        the OS may offer one port twice; the draw hands it out once."""
        from repro.fleet import launch

        drawn = iter([8101, 8101, 8102, 8101, 8102, 8103])
        monkeypatch.setattr(launch, "_probe_port", lambda: next(drawn))
        handed_out: set[int] = set()
        ports = [launch.free_port(handed_out) for _ in range(3)]
        assert ports == [8101, 8102, 8103]
        assert handed_out == {8101, 8102, 8103}
        assert next(drawn, None) is None
