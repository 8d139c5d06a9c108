"""Fleet differential + chaos harness: N nodes must equal 1 node, bit for bit.

The fleet's core invariant is that distributing a scan changes nothing
observable: the hotspot report set, per-clip margins and extraction
funnel counts of a 3-worker fleet scan are identical to a single-node
thread-backend scan — including when a worker dies mid-lease, when the
coordinator itself is SIGKILLed and resumed from its journal, and when
the shared remote cache tier serves corrupt bytes (treated as a miss,
never decoded).
"""

from __future__ import annotations

import copy
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cache import HotspotCache, MemoryCacheStore, open_blob, wrap_blob
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.persist import save_detector
from repro.errors import FleetError
from repro.fleet import (
    CacheServer,
    FleetClient,
    FleetCoordinator,
    FleetFrontend,
    FleetHTTPServer,
    FleetOptions,
    FleetWorker,
    HashRing,
    MemberTable,
    RemoteCacheStore,
    RoundRobin,
)
from repro.fleet.protocol import BLOB_TYPE, JSON_TYPE, wait_until
from repro.layout.io import save_layout_gds
from repro.resilience import faults
from repro.work import ScanOptions
from repro.work.shard import encode_shard_record, evaluate_shard, scan_fingerprint


@pytest.fixture(scope="module")
def fitted(small_benchmark):
    detector = HotspotDetector(DetectorConfig.ours())
    detector.fit(small_benchmark.training)
    return detector


@pytest.fixture()
def detached(fitted):
    fitted.attach_cache(None)
    yield fitted
    fitted.attach_cache(None)


def signature(detector, report):
    """Everything a scan observably produced, in comparable form."""
    cores = tuple(
        (clip.core.x0, clip.core.y0, clip.core.x1, clip.core.y1)
        for clip in report.reports
    )
    extraction = report.extraction
    funnel = (
        extraction.anchor_count,
        extraction.rejected_density,
        extraction.rejected_count,
        extraction.rejected_boundary,
        len(extraction.clips),
    )
    margins = detector.margins(extraction.clips)
    feedback = (
        report.flagged_before_feedback,
        report.flagged_after_feedback,
        tuple(extraction.verdicts.tolist()),
    )
    return cores, funnel, margins, feedback


def assert_identical(left, right):
    assert left[0] == right[0]  # hotspot report set
    assert left[1] == right[1]  # extraction funnel counts
    assert np.array_equal(left[2], right[2])  # margins, bit-identical
    assert left[3] == right[3]  # flagged before/after feedback, verdicts


def run_fleet(detector, layout, worker_count, options=None, layer=1):
    """One in-process fleet scan: coordinator + N worker threads."""
    coordinator = FleetCoordinator(
        detector, layout, layer=layer, options=options or FleetOptions()
    )
    with coordinator:
        workers = [
            FleetWorker(coordinator.url, detector, layout, f"worker-{i}")
            for i in range(worker_count)
        ]
        threads = [
            threading.Thread(target=worker.run, daemon=True)
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        assert coordinator.wait(timeout=300), coordinator.status()
        for thread in threads:
            thread.join(timeout=30)
        scan = coordinator.result()
    return coordinator, workers, scan


def funnel(scan):
    return (
        scan.anchor_count,
        scan.rejected_density,
        scan.rejected_count,
        scan.rejected_boundary,
        scan.quarantined,
    )


# ----------------------------------------------------------------------
# one shard plan: local scans and the coordinator resume each other
# ----------------------------------------------------------------------
class TestOnePlanForLocalAndFleetScans:
    def test_coordinator_resumes_a_local_journal(
        self, detached, small_benchmark, tmp_path
    ):
        layout = small_benchmark.testing.layout
        journal_dir = tmp_path / "journal"
        local = detached.detect(
            layout, work=ScanOptions(journal_dir=journal_dir, incremental=True)
        )
        coordinator = FleetCoordinator(
            detached,
            layout,
            options=FleetOptions(journal_dir=journal_dir, resume=True),
        )
        assert len(coordinator.plan.reused) == len(coordinator.shards)
        assert len(coordinator.shards) == local.shards_total > 1
        assert coordinator.wait(timeout=0)  # nothing left to lease
        scan = coordinator.result()
        assert coordinator.leases_granted == 0
        assert scan.shards_resumed == scan.shards_total
        assert scan.anchors == local.extraction.anchors
        assert np.array_equal(scan.margins, local.extraction.margins)
        assert np.array_equal(scan.verdicts, local.extraction.verdicts)
        assert funnel(scan) == funnel(local.extraction)
        assert_identical(
            signature(detached, local),
            signature(detached, detached.detect(layout, scan=scan)),
        )

    def test_local_scan_resumes_a_coordinator_journal(
        self, detached, small_benchmark, tmp_path
    ):
        layout = small_benchmark.testing.layout
        journal_dir = tmp_path / "journal"
        baseline = detached.detect(layout)
        coordinator = FleetCoordinator(
            detached,
            layout,
            options=FleetOptions(journal_dir=journal_dir, keep_journal=True),
        )
        for shard_id, anchors in enumerate(coordinator.shards):
            record = evaluate_shard(
                detached.config, detached.model_, detached.feedback_,
                layout, 1, anchors,
            )
            status, answer, _ = coordinator.handle(
                "POST",
                f"/fleet/v1/push?shard={shard_id}&lease=1"
                f"&epoch={coordinator.epoch}",
                wrap_blob(encode_shard_record(record)),
                {},
            )
            assert status == 200 and answer["status"] == "ok"
        assert coordinator.wait(timeout=0)
        resumed = detached.detect(
            layout, work=ScanOptions(journal_dir=journal_dir, resume=True)
        )
        assert resumed.shards_resumed == resumed.shards_total
        assert resumed.shards_total == len(coordinator.shards) > 1
        assert np.array_equal(resumed.extraction.margins, baseline.extraction.margins)
        assert funnel(resumed.extraction) == funnel(baseline.extraction)
        assert_identical(signature(detached, baseline), signature(detached, resumed))
        # The finished scan cleared the coordinator's epoch with the journal.
        assert not journal_dir.exists()
        later = FleetCoordinator(
            detached, layout, options=FleetOptions(journal_dir=journal_dir, resume=True)
        )
        assert later.epoch == 1

    def test_lease_carries_the_shard_and_its_anchors_only(
        self, detached, small_benchmark
    ):
        coordinator = FleetCoordinator(detached, small_benchmark.testing.layout)
        lease = coordinator._grant("w")
        assert set(lease) == {"status", "shard", "lease", "ttl_s", "anchors"}
        assert lease["anchors"] == [
            list(anchor) for anchor in coordinator.shards[lease["shard"]]
        ]


# ----------------------------------------------------------------------
# the invariant: a 3-worker fleet equals a single node, bit for bit
# ----------------------------------------------------------------------
class TestFleetDifferential:
    def test_three_worker_fleet_bit_identical(self, detached, small_benchmark):
        layout = small_benchmark.testing.layout
        baseline = signature(detached, detached.detect(layout))

        coordinator, workers, scan = run_fleet(detached, layout, worker_count=3)
        fleet = signature(detached, detached.detect(layout, scan=scan))

        assert_identical(baseline, fleet)
        status = coordinator.status()
        assert status["completed"] == status["shards"]
        assert status["pushes_accepted"] == status["shards"]
        assert status["pushes_rejected"] == 0
        # Every worker leased at least once against a non-trivial layout.
        assert status["leases_granted"] >= status["shards"]
        assert sum(w.shards_done for w in workers) == status["shards"]

    def test_worker_death_mid_lease_reassigned_exactly_once(
        self, detached, small_benchmark
    ):
        """A leased-then-silent worker's shard is re-leased exactly once.

        The "dead" worker is a raw client that takes one lease and never
        heartbeats — exactly what the coordinator sees when a worker is
        SIGKILLed mid-shard.  The reaper must return that one shard to
        the queue once, a live worker must finish it, and the merged
        output must still be bit-identical.
        """
        layout = small_benchmark.testing.layout
        baseline = signature(detached, detached.detect(layout))

        options = FleetOptions(lease_ttl_s=0.75)
        coordinator = FleetCoordinator(detached, layout, options=options)
        with coordinator:
            granted = FleetClient(coordinator.url).post_json(
                "/fleet/v1/lease",
                {"worker": "stuck", "fingerprint": coordinator.fingerprint},
            )[1]
            assert granted["status"] == "lease"
            stuck_shard = int(granted["shard"])

            worker = FleetWorker(coordinator.url, detached, layout, "alive")
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            assert coordinator.wait(timeout=300), coordinator.status()
            thread.join(timeout=30)
            scan = coordinator.result()

        assert coordinator.reassignments == {stuck_shard: 1}
        assert coordinator.leases_expired == 1
        assert coordinator.pushes_accepted == len(coordinator.shards)
        assert_identical(
            baseline, signature(detached, detached.detect(layout, scan=scan))
        )


# ----------------------------------------------------------------------
# fleet observability: traced scans, status plane, federated metrics
# ----------------------------------------------------------------------
class TestFleetObservability:
    def test_traced_fleet_scan_ships_spans_and_stays_bit_identical(
        self, detached, small_benchmark
    ):
        """options.trace makes workers record + ship spans back; merging
        them with the coordinator's own yields one multi-row Chrome trace
        sharing the scan's root request id — without changing output."""
        from repro import obs

        layout = small_benchmark.testing.layout
        baseline = signature(detached, detached.detect(layout))

        options = FleetOptions(trace=True, request_id="rid-fleet-test")
        # No process tracer installed: the (single) worker thread owns
        # one, exactly like a real subprocess worker.
        coordinator, workers, scan = run_fleet(
            detached, layout, worker_count=1, options=options
        )
        assert_identical(
            baseline, signature(detached, detached.detect(layout, scan=scan))
        )

        documents = coordinator.trace_documents()
        assert documents, "worker never shipped spans"
        shipped_names = {
            span["name"] for doc in documents for span in doc["spans"]
        }
        assert "fleet.shard" in shipped_names
        assert all(doc["request_id"] == "rid-fleet-test" for doc in documents)

        coordinator_doc = {
            "role": "coordinator",
            "pid": 0,
            "request_id": coordinator.request_id,
            "epoch_unix": documents[0]["epoch_unix"],
            "spans": [],
        }
        merged = obs.merge_chrome_traces([coordinator_doc, *documents])
        rows = {
            event["args"]["name"]
            for event in merged["traceEvents"]
            if event["name"] == "process_name"
        }
        assert rows == {"coordinator", "worker:worker-0"}
        assert merged["metadata"]["request_id"] == "rid-fleet-test"

    def test_status_plane_reports_durations_workers_and_eta_fields(
        self, detached, small_benchmark
    ):
        layout = small_benchmark.testing.layout
        coordinator, workers, scan = run_fleet(detached, layout, worker_count=2)
        status = coordinator.status()
        assert status["request_id"] == coordinator.request_id
        assert status["done"] is True
        assert status["leases"] == []  # nothing outstanding
        assert status["stragglers"] == []
        assert status["eta_s"] is None
        assert status["durations"]["count"] == status["shards"]
        assert status["durations"]["p95"] >= status["durations"]["p50"] > 0
        assert status["elapsed_s"] > 0
        assert status["throughput_shards_per_s"] > 0
        details = {w["name"]: w for w in status["worker_details"]}
        assert sum(w["pushes"] for w in details.values()) == status["shards"]
        # Workers self-reported stats with their lease requests.
        assert sum(w["shards_done"] for w in details.values()) >= 0
        assert "cache" in status

    def test_outstanding_lease_appears_with_age_and_straggles_past_p95(
        self, detached, small_benchmark
    ):
        layout = small_benchmark.testing.layout
        with FleetCoordinator(
            detached, layout, options=FleetOptions(lease_ttl_s=60.0)
        ) as coordinator:
            client = FleetClient(coordinator.url)
            granted = client.post_json(
                "/fleet/v1/lease",
                {"worker": "slow", "fingerprint": coordinator.fingerprint},
            )[1]
            assert granted["status"] == "lease"
            # Seed one completed-duration sample so p95 exists and is
            # tiny: the outstanding lease immediately counts as a
            # straggler once older than it.
            coordinator._shard_wall[int(granted["shard"]) + 10_000] = 1e-9
            time.sleep(0.05)
            status = coordinator.status()
        (lease,) = status["leases"]
        assert lease["worker"] == "slow"
        assert lease["shard"] == int(granted["shard"])
        assert lease["age_s"] > 0
        assert lease["expires_in_s"] > 0
        assert status["stragglers"] == [lease["shard"]]

    def test_coordinator_serves_own_and_federated_metrics(
        self, detached, small_benchmark
    ):
        layout = small_benchmark.testing.layout
        coordinator, workers, scan = run_fleet(detached, layout, worker_count=1)
        rendered = coordinator.metrics.render()
        assert 'repro_fleet_pushes_total{outcome="accepted"}' in rendered
        assert "repro_fleet_shard_seconds_count" in rendered
        federated = coordinator.federated_metrics().render()
        assert 'fleet_member_up{member="coordinator"} 1' in federated
        assert 'repro_fleet_leases_total{outcome="granted"}' in federated

    def test_metrics_endpoints_served_over_http(
        self, detached, small_benchmark
    ):
        layout = small_benchmark.testing.layout
        with FleetCoordinator(detached, layout) as coordinator:
            client = FleetClient(coordinator.url)
            status, payload, content_type = client.request("GET", "/metrics")
            assert status == 200
            assert content_type.startswith("text/plain")
            status, state = client.get_json("/metrics/state")
            assert status == 200
            assert {"families"} <= set(state)
            status, payload, content_type = client.request(
                "GET", "/fleet/v1/metrics"
            )
            assert status == 200
            assert b"fleet_member_up" in payload

    def test_handshake_409_echoes_the_request_id(
        self, detached, small_benchmark
    ):
        layout = small_benchmark.testing.layout
        with FleetCoordinator(detached, layout) as coordinator:
            status, _, headers = FleetClient(coordinator.url).request_full(
                "POST",
                "/fleet/v1/lease",
                b'{"worker": "x", "fingerprint": "nope"}',
                headers={"X-Request-Id": "rid-409"},
            )
        assert status == 409
        assert headers["X-Request-Id"] == "rid-409"

    def test_cache_node_serves_metrics(self, cache_node):
        app, url = cache_node
        client = FleetClient(url)
        client.request("GET", "/cache/v1/margins/fp/missing")
        status, payload, _ = client.request("GET", "/metrics")
        assert status == 200
        assert b'repro_fleet_cache_ops_total{outcome="miss"} 1' in payload


# ----------------------------------------------------------------------
# lease protocol edges: handshake, corrupt push, first push wins
# ----------------------------------------------------------------------
class TestLeaseProtocol:
    def test_fingerprint_mismatch_is_rejected_with_409(
        self, detached, small_benchmark
    ):
        layout = small_benchmark.testing.layout
        # A worker whose feedback kernel differs would return other
        # verdicts, so its scan fingerprint differs too.
        other_feedback = copy.deepcopy(detached.feedback_)
        other_feedback.model.dual_coef_ = other_feedback.model.dual_coef_ * 2
        with FleetCoordinator(detached, layout) as coordinator:
            imposters = [
                "0" * 64,
                scan_fingerprint(
                    layout, 1, detached.config, detached.model_,
                    other_feedback, coordinator.shard_side,
                ),
            ]
            answers = [
                FleetClient(coordinator.url).post_json(
                    "/fleet/v1/lease",
                    {"worker": "imposter", "fingerprint": fingerprint},
                )
                for fingerprint in imposters
            ]
        for status, document in answers:
            assert status == 409
            assert document["status"] == "fingerprint_mismatch"
            assert document["expected"] == coordinator.fingerprint

    def test_corrupt_push_rejected_then_first_valid_push_wins(
        self, detached, small_benchmark
    ):
        layout = small_benchmark.testing.layout
        # A long TTL keeps the reaper out of this test's way.
        with FleetCoordinator(
            detached, layout, options=FleetOptions(lease_ttl_s=60.0)
        ) as coordinator:
            client = FleetClient(coordinator.url)
            granted = client.post_json(
                "/fleet/v1/lease",
                {"worker": "tester", "fingerprint": coordinator.fingerprint},
            )[1]
            shard_id, lease_id = int(granted["shard"]), int(granted["lease"])
            push_path = f"/fleet/v1/push?shard={shard_id}&lease={lease_id}"

            # Corrupt envelope: rejected with 400, shard stays incomplete.
            status, _ = client.post_blob(push_path, b"not an RPCB1 envelope")
            assert status == 400
            assert coordinator.pushes_rejected == 1
            assert coordinator.status()["completed"] == 0

            # A tampered-payload envelope (valid magic, wrong digest) too.
            record = evaluate_shard(
                detached.config,
                detached.model_,
                detached.feedback_,
                layout,
                1,
                granted["anchors"],
            )
            blob = wrap_blob(encode_shard_record(record))
            tampered = blob[:-1] + bytes([blob[-1] ^ 0xFF])
            status, _ = client.post_blob(push_path, tampered)
            assert status == 400
            assert coordinator.pushes_rejected == 2

            # The intact push lands; a duplicate is acknowledged stale.
            status, answer = client.post_blob(push_path, blob)
            assert (status, answer["status"]) == (200, "ok")
            status, answer = client.post_blob(push_path, blob)
            assert (status, answer["status"]) == (200, "stale")
            assert coordinator.pushes_accepted == 1
            assert coordinator.pushes_stale == 1


# ----------------------------------------------------------------------
# remote cache tier: corruption is a miss, never a decode
# ----------------------------------------------------------------------
@pytest.fixture()
def cache_node():
    app = CacheServer(store=MemoryCacheStore())
    with FleetHTTPServer(app) as server:
        yield app, server.url


class TestRemoteCache:
    def test_round_trip_through_remote_tier(self, cache_node):
        app, url = cache_node
        row = np.array([0.5, -1.25, 3.0])
        writer = HotspotCache(stores=[RemoteCacheStore([url])])
        writer.put_margins("fp", "key", row)
        assert app.puts == 1

        reader = HotspotCache(stores=[RemoteCacheStore([url])])
        assert np.array_equal(reader.get_margins("fp", "key"), row)
        assert reader.stats_dict()["remote_hits"] == 1

    def test_corrupt_remote_blob_is_a_miss(self, cache_node):
        app, url = cache_node
        writer = HotspotCache(stores=[RemoteCacheStore([url])])
        writer.put_margins("fp", "key", np.array([1.0, 2.0]))

        # Rot the stored payload in place — the digest no longer matches.
        ((blob_key, blob),) = app.store._blobs.items()
        app.store._blobs[blob_key] = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        assert open_blob(app.store._blobs[blob_key]) is None

        reader = HotspotCache(stores=[RemoteCacheStore([url])])
        assert reader.get_margins("fp", "key") is None
        stats = reader.stats_dict()
        assert stats["remote_corrupt"] == 1
        assert stats["margin_misses"] == 1

    def test_server_rejects_corrupt_put(self, cache_node):
        app, url = cache_node
        status, payload, _ = FleetClient(url).request(
            "PUT", "/cache/v1/margins/fp/key", b"garbage", BLOB_TYPE
        )
        assert status == 400
        assert app.rejected_corrupt == 1
        assert len(app.store) == 0

    def test_unreachable_node_degrades_to_miss(self):
        store = RemoteCacheStore(["http://127.0.0.1:9"], timeout=0.2)
        cache = HotspotCache(stores=[store])
        cache.put_margins("fp", "key", np.array([1.0]))
        cache.clear_memory()  # force the read through the remote tier
        assert cache.get_margins("fp", "key") is None
        assert store.errors >= 2
        # Enough consecutive failures mark the lone node (and tier) down.
        assert cache.get_margins("fp", "key") is None
        assert not store.healthy()


# ----------------------------------------------------------------------
# routing + membership primitives
# ----------------------------------------------------------------------
class TestHashRing:
    NODES = ["http://a:1", "http://b:1", "http://c:1"]

    def test_deterministic_across_instances(self):
        left, right = HashRing(self.NODES), HashRing(list(reversed(self.NODES)))
        for i in range(64):
            assert left.node_for(f"key-{i}") == right.node_for(f"key-{i}")

    def test_fallback_order_covers_every_node_primary_first(self):
        ring = HashRing(self.NODES)
        order = ring.nodes_for("some-key")
        assert order[0] == ring.node_for("some-key")
        assert sorted(order) == sorted(self.NODES)

    def test_removing_a_node_only_remaps_its_own_keys(self):
        full = HashRing(self.NODES)
        shrunk = HashRing(self.NODES[:2])
        for i in range(256):
            key = f"key-{i}"
            home = full.node_for(key)
            if home in self.NODES[:2]:
                assert shrunk.node_for(key) == home

    def test_empty_ring_raises(self):
        with pytest.raises(FleetError):
            HashRing([]).node_for("key")


class TestMembership:
    def test_heartbeat_keeps_a_member_alive(self):
        table = MemberTable(ttl_s=0.2)
        table.register("replica-1", "http://x:1", kind="serve", version="v1")
        assert table.heartbeat("replica-1")
        assert not table.heartbeat("never-registered")
        assert [m.name for m in table.members(kind="serve")] == ["replica-1"]

        time.sleep(0.3)
        assert table.members(kind="serve") == []
        assert table.expire() == ["replica-1"]
        assert len(table) == 0

    def test_versions_reports_replica_drift(self):
        table = MemberTable()
        table.register("r1", "http://x:1", kind="serve", version="aaaa")
        table.register("r2", "http://y:1", kind="serve", version="bbbb")
        assert table.versions(kind="serve") == {"aaaa", "bbbb"}
        table.heartbeat("r2", version="aaaa")
        assert table.versions(kind="serve") == {"aaaa"}


class _EchoReplica:
    """A fake serve replica that answers /v1/predict with its own name."""

    def __init__(self, name: str) -> None:
        self.name = name

    def handle(self, method, path, body, headers):
        if method == "POST" and path == "/v1/predict":
            return 200, {"replica": self.name}, JSON_TYPE
        return 404, {"error": "no route"}, JSON_TYPE


class TestFrontend:
    def test_round_robin_cursor(self):
        rotation = RoundRobin(["a", "b"])
        assert [rotation.next() for _ in range(4)] == ["a", "b", "a", "b"]
        assert sorted(rotation.ordered()) == ["a", "b"]

    def test_predict_round_robins_and_fails_over(self):
        frontend = FleetFrontend(MemberTable(ttl_s=30.0))
        with FleetHTTPServer(frontend) as front, FleetHTTPServer(
            _EchoReplica("r1")
        ) as one, FleetHTTPServer(_EchoReplica("r2")) as two:
            client = FleetClient(front.url)
            for name, url in (("r1", one.url), ("r2", two.url)):
                status, _ = client.post_json(
                    "/fleet/v1/register",
                    {"name": name, "url": url, "kind": "serve", "version": "v"},
                )
                assert status == 200

            answers = {
                client.post_json("/v1/predict", {})[1]["replica"]
                for _ in range(4)
            }
            assert answers == {"r1", "r2"}  # both replicas take traffic

            # A third replica registers and immediately drops dead (its
            # URL never answers): every predict still lands on a live
            # one, falling through the corpse.
            client.post_json(
                "/fleet/v1/register",
                {
                    "name": "corpse",
                    "url": "http://127.0.0.1:9",
                    "kind": "serve",
                    "version": "v",
                },
            )
            for _ in range(6):
                status, document = client.post_json("/v1/predict", {})
                assert status == 200
                assert document["replica"] in {"r1", "r2"}

            status, health = client.get_json("/healthz")
            assert status == 200
            assert health["replicas"] == 3  # corpse still within its TTL
            assert health["forwarded"] >= 10

    def test_predict_forwards_the_callers_request_id(self):
        """The id a client sends the frontend reaches the replica verbatim
        and comes back in the frontend's response headers."""

        class _HeaderEcho:
            def handle(self, method, path, body, headers):
                return 200, {"rid": headers.get("X-Request-Id")}, JSON_TYPE

        frontend = FleetFrontend(MemberTable(ttl_s=30.0))
        with FleetHTTPServer(frontend) as front, FleetHTTPServer(
            _HeaderEcho()
        ) as replica:
            client = FleetClient(front.url)
            client.post_json(
                "/fleet/v1/register",
                {"name": "r", "url": replica.url, "kind": "serve", "version": "v"},
            )
            status, payload, headers = client.request_full(
                "POST",
                "/v1/predict",
                b"{}",
                headers={"X-Request-Id": "rid-proxy"},
            )
        assert status == 200
        assert b'"rid": "rid-proxy"' in payload
        assert headers["X-Request-Id"] == "rid-proxy"
        assert "fleet_frontend_requests_total" in frontend.metrics.render()

    def test_no_replicas_is_503(self):
        frontend = FleetFrontend(MemberTable())
        with FleetHTTPServer(frontend) as front:
            status, document = FleetClient(front.url).post_json(
                "/v1/predict", {}
            )
        assert status == 503
        assert "replica" in document["error"]

    def test_heartbeat_for_unknown_member_is_404(self):
        frontend = FleetFrontend(MemberTable())
        with FleetHTTPServer(frontend) as front:
            status, _ = FleetClient(front.url).post_json(
                "/fleet/v1/heartbeat", {"name": "ghost"}
            )
        assert status == 404

    def test_replica_joins_once_a_late_frontend_listens(self):
        """A replica whose first registration finds no frontend retries
        quickly, so it is listed soon after the frontend comes up (not a
        TTL/3 of 3.3 s later)."""
        from repro.cli import _register_with_frontend

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        replica = SimpleNamespace(url="http://127.0.0.1:1")
        service = SimpleNamespace(registry=SimpleNamespace(signature=lambda: "v"))
        frontend = FleetFrontend()
        stop = _register_with_frontend(f"http://127.0.0.1:{port}", replica, service)
        try:
            time.sleep(0.5)
            with FleetHTTPServer(frontend, port=port):
                assert wait_until(lambda: frontend.members.members(), timeout_s=2.0)
            assert [m.url for m in frontend.members.members()] == [replica.url]
        finally:
            stop.set()

    @pytest.mark.parametrize("path", ["/fleet/v1/register", "/fleet/v1/heartbeat"])
    @pytest.mark.parametrize("body", [b"not json", b"[]"])
    def test_malformed_membership_body_is_400(self, path, body):
        """A body that is not a JSON object is the caller's error, not
        the front end's (it was answered 500 internal_error)."""
        members = MemberTable()
        frontend = FleetFrontend(members)
        with FleetHTTPServer(frontend) as front:
            status, payload, _ = FleetClient(front.url).request("POST", path, body)
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "bad_request"
        assert members.members() == []


# ----------------------------------------------------------------------
# CLI chaos: coordinator SIGKILL + --resume, worker SIGKILL + respawn
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_workdir(fitted, small_benchmark, tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet-cli")
    save_detector(fitted, path / "model.npz", name="fleet-cli")
    save_layout_gds(small_benchmark.testing.layout, path / "layout.gds")
    return path


def _run_cli(arguments, cwd, extra_env=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(faults.ENV_VAR, None)
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _core_lines(stdout: str) -> list[str]:
    return sorted(line for line in stdout.splitlines() if line.startswith("  core"))


@pytest.fixture(scope="module")
def reference_scan(fleet_workdir):
    """Single-node thread-backend scan of the same saved model + layout."""
    result = _run_cli(
        ["scan", "--model", "model.npz", "--layout", "layout.gds", "--no-manifest"],
        fleet_workdir,
    )
    assert result.returncode == 0, result.stderr
    cores = _core_lines(result.stdout)
    assert cores  # the scan actually found hotspots
    return cores


class TestCliFleetScan:
    FLEET = [
        "fleet-scan",
        "--model", "model.npz",
        "--layout", "layout.gds",
        "--fleet-workers", "2",
        "--journal-dir", "journal",
    ]

    def test_sigkilled_coordinator_resumes_identically(
        self, fleet_workdir, reference_scan
    ):
        # The fault plan SIGKILLs the whole driver — coordinator, journal
        # lock and all — at the second accepted push.  Nothing cleans up;
        # the journal on disk is the only survivor.
        killed = _run_cli(
            self.FLEET,
            fleet_workdir,
            extra_env={faults.ENV_VAR: "fleet.push=kill:1@1!1"},
        )
        assert killed.returncode != 0
        journal_lines = (
            (fleet_workdir / "journal" / "journal.jsonl").read_text().splitlines()
        )
        assert len(journal_lines) >= 2  # header + >=1 accepted shard

        resumed = _run_cli([*self.FLEET, "--resume"], fleet_workdir)
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed" in resumed.stderr
        assert _core_lines(resumed.stdout) == reference_scan
        # Success cleared the journal.
        assert not (fleet_workdir / "journal" / "journal.jsonl").exists()

    def test_sigkilled_workers_are_respawned_and_output_is_identical(
        self, fleet_workdir, reference_scan
    ):
        # Each worker SIGKILLs itself on its second lease; the reaper
        # expires the abandoned leases and the supervisor respawns the
        # workers, so the scan still completes — bit-identically.
        survived = _run_cli(
            [*self.FLEET, "--journal-dir", "chaos-journal", "--lease-ttl", "1.5"],
            fleet_workdir,
            extra_env={faults.ENV_VAR: "fleet.lease=kill:1@1!1"},
        )
        assert survived.returncode == 0, survived.stderr
        assert "respawning" in survived.stderr
        assert "leases expired" in survived.stderr
        assert _core_lines(survived.stdout) == reference_scan
