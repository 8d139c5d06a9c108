"""Fleet HA: standby replication, epoch fencing, failover bit-identity.

The failover invariant extends the fleet's core one: killing the
primary coordinator mid-scan with a warm standby attached changes
nothing observable.  The standby promotes under a larger leader epoch,
workers re-home to it, every shard is accepted exactly once (mirrored
from the feed or recomputed after re-lease — never both), and the
merged scan is bit-identical to a quiet single-node run.  The epoch
fence is what makes "exactly once" hold against zombie primaries:
any RPC carrying an older epoch gets 409 and changes no state.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.cache import wrap_blob
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.errors import FleetError
from repro.fleet import (
    CoordinatorChannel,
    FleetClient,
    FleetCoordinator,
    FleetOptions,
    FleetWorker,
    StandbyCoordinator,
)
from repro.fleet.coordinator import EPOCH_FILE
from repro.fleet.protocol import wait_until
from repro.work.shard import encode_shard_record, evaluate_shard


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


@pytest.fixture(scope="module")
def reference(fitted, small_benchmark):
    """Single-node baseline signature plus one pushable blob per shard."""
    fitted.attach_cache(None)
    layout = small_benchmark.testing.layout
    baseline = signature(fitted, fitted.detect(layout))
    shard_map = FleetCoordinator(fitted, layout)
    blobs = {}
    for shard_id, (_, anchors) in enumerate(shard_map.cells):
        record = evaluate_shard(
            fitted.config, fitted.model_, fitted.feedback_, layout, 1, anchors
        )
        record.shard_id = shard_id
        blobs[shard_id] = wrap_blob(encode_shard_record(record))
    return baseline, blobs


def merged_signature(detector, layout, coordinator):
    return signature(
        detector, detector.detect(layout, scan=coordinator.result())
    )


# ----------------------------------------------------------------------
# epoch fencing
# ----------------------------------------------------------------------
class TestEpochFence:
    def test_stale_lease_heartbeat_and_push_are_fenced(
        self, detached, small_benchmark
    ):
        layout = small_benchmark.testing.layout
        coordinator = FleetCoordinator(detached, layout)
        stale = json.dumps(
            {
                "worker": "w",
                "fingerprint": coordinator.fingerprint,
                "epoch": coordinator.epoch - 1,
            }
        ).encode()
        status, payload, _ = coordinator.handle(
            "POST", "/fleet/v1/lease", stale, {}
        )
        assert status == 409
        assert payload["status"] == "stale_epoch"
        assert payload["expected"] == coordinator.epoch
        status, payload, _ = coordinator.handle(
            "POST",
            "/fleet/v1/heartbeat",
            json.dumps(
                {"worker": "w", "shard": 0, "lease": 1, "epoch": 99}
            ).encode(),
            {},
        )
        assert status == 409 and payload["status"] == "stale_epoch"
        status, payload, _ = coordinator.handle(
            "POST", "/fleet/v1/push?shard=0&lease=1&epoch=0", b"junk", {}
        )
        assert status == 409 and payload["status"] == "stale_epoch"
        document = coordinator.status()
        assert document["stale_epoch_fenced"] == 3
        # Nothing changed: the fence fires before any state mutation.
        assert document["pushes_accepted"] == 0
        assert document["leases_granted"] == 0

    def test_epochless_requests_pass(self, detached, small_benchmark):
        # Hand-rolled clients and pre-HA peers send no epoch; they are
        # served at the current one.
        layout = small_benchmark.testing.layout
        coordinator = FleetCoordinator(detached, layout)
        body = json.dumps(
            {"worker": "w", "fingerprint": coordinator.fingerprint}
        ).encode()
        status, payload, _ = coordinator.handle(
            "POST", "/fleet/v1/lease", body, {}
        )
        assert status == 200 and payload["status"] == "lease"

    def test_set_epoch_must_increase(self, detached, small_benchmark):
        coordinator = FleetCoordinator(
            detached, small_benchmark.testing.layout
        )
        with pytest.raises(FleetError):
            coordinator.set_epoch(coordinator.epoch)
        coordinator.set_epoch(coordinator.epoch + 3)
        assert coordinator.epoch == 4

    def test_epoch_monotone_across_journal_restarts(
        self, detached, small_benchmark, tmp_path
    ):
        layout = small_benchmark.testing.layout
        journal = tmp_path / "journal"

        def restart():
            return FleetCoordinator(
                detached,
                layout,
                options=FleetOptions(journal_dir=journal, resume=True),
            )

        first = restart()
        assert first.epoch == 1
        assert (journal / EPOCH_FILE).exists()
        second = restart()
        assert second.epoch == 2  # never re-serves a dead leader's epoch
        second.set_epoch(7)
        third = restart()
        assert third.epoch == 8


# ----------------------------------------------------------------------
# replication + standby surface
# ----------------------------------------------------------------------
class TestStandbyReplication:
    def test_standby_mirrors_feed_and_rejects_work(
        self, detached, small_benchmark, reference, tmp_path
    ):
        layout = small_benchmark.testing.layout
        baseline, blobs = reference
        primary = FleetCoordinator(detached, layout).start()
        standby = StandbyCoordinator(
            detached,
            layout,
            primary.url,
            options=FleetOptions(
                journal_dir=tmp_path / "standby-journal", keep_journal=True
            ),
            probe_interval_s=0.1,
        ).start()
        try:
            # Pre-promotion surface: config says standby, work RPCs 503.
            code, config = FleetClient(standby.url).get_json(
                "/fleet/v1/config"
            )
            assert code == 200 and config["role"] == "standby"
            code, answer = FleetClient(standby.url).post_json(
                "/fleet/v1/lease", {"worker": "w"}
            )
            assert code == 503 and answer["status"] == "standby"
            code, answer = FleetClient(standby.url).post_json(
                "/fleet/v1/push?shard=0&lease=1", {}
            )
            assert code == 503

            # Push everything to the primary; the standby tails it all.
            for shard_id, blob in blobs.items():
                code, answer = FleetClient(primary.url).post_blob(
                    f"/fleet/v1/push?shard={shard_id}&lease=1"
                    f"&epoch={primary.epoch}",
                    blob,
                )
                assert code == 200 and answer["status"] == "ok"
            assert wait_until(
                lambda: standby._m_mirrored.count() == len(primary.shards),
                timeout_s=30.0,
            )
            assert not standby.promoted.is_set()
            assert standby.inner.wait(timeout=5.0)
            # The mirror is complete and merges bit-identically.
            assert_identical(
                baseline, merged_signature(detached, layout, standby.inner)
            )
        finally:
            standby.stop()
            primary.stop()

    def test_forced_promotion_via_http(self, detached, small_benchmark):
        layout = small_benchmark.testing.layout
        primary = FleetCoordinator(detached, layout).start()
        standby = StandbyCoordinator(
            detached, layout, primary.url, probe_interval_s=0.1
        ).start()
        try:
            code, answer = FleetClient(standby.url).post_json(
                "/fleet/v1/promote", {}
            )
            assert code == 200 and answer["status"] == "ok"
            assert answer["epoch"] > primary.epoch
            code, answer = FleetClient(standby.url).post_json(
                "/fleet/v1/promote", {}
            )
            assert answer["status"] == "already_promoted"
            # Promoted: now a leader that grants leases.
            code, config = FleetClient(standby.url).get_json(
                "/fleet/v1/config"
            )
            assert config["role"] == "primary"
        finally:
            standby.stop()
            primary.stop()


# ----------------------------------------------------------------------
# end-to-end failover
# ----------------------------------------------------------------------
class TestFailover:
    def test_primary_death_promotes_and_stays_bit_identical(
        self, detached, small_benchmark, reference, tmp_path
    ):
        layout = small_benchmark.testing.layout
        baseline, _ = reference
        probe = 0.2
        primary = FleetCoordinator(
            detached,
            layout,
            options=FleetOptions(
                lease_ttl_s=1.5,
                journal_dir=tmp_path / "primary-journal",
                keep_journal=True,
            ),
        ).start()
        standby = StandbyCoordinator(
            detached,
            layout,
            primary.url,
            options=FleetOptions(
                lease_ttl_s=1.5,
                journal_dir=tmp_path / "standby-journal",
                keep_journal=True,
            ),
            probe_interval_s=probe,
            max_missed_probes=2,
        ).start()
        endpoints = [primary.url, standby.url]
        workers = [
            FleetWorker(
                endpoints, detached, layout, f"ha-w{i}", status_server=False
            )
            for i in range(2)
        ]
        threads = [
            threading.Thread(target=worker.run, daemon=True)
            for worker in workers
        ]
        try:
            for thread in threads:
                thread.start()
            # Let real work land on the primary, then kill it mid-scan.
            assert wait_until(
                lambda: primary.status()["pushes_accepted"] >= 1,
                timeout_s=60.0,
            )
            primary.stop()
            killed = time.monotonic()
            assert wait_until(
                lambda: standby.promoted.is_set(), timeout_s=30.0
            )
            # Death is declared after max_missed_probes probe periods
            # (plus per-probe connect timeouts and scheduler slack).
            assert time.monotonic() - killed < 10 * probe + 5.0
            assert standby.inner.epoch > primary.epoch
            assert standby.inner.wait(timeout=120.0), standby.inner.status()
            for thread in threads:
                thread.join(timeout=30.0)
            # Exactly-once: every shard came from the mirror or from a
            # post-promotion push, never both.
            assert (
                standby._m_mirrored.count()
                + standby.inner.status()["pushes_accepted"]
                == len(standby.inner.shards)
            )
            assert_identical(
                baseline, merged_signature(detached, layout, standby.inner)
            )
            # The workers finished on the new leader's epoch.
            for worker in workers:
                assert worker.epoch == standby.inner.epoch
            assert sum(worker._m_rehomes.count() for worker in workers) >= 1
        finally:
            for worker in workers:
                worker.stop()
            standby.stop()
            primary.stop()


# ----------------------------------------------------------------------
# worker channel + heartbeat visibility
# ----------------------------------------------------------------------
class TestWorkerChannel:
    def test_channel_parses_and_cycles(self):
        channel = CoordinatorChannel("http://127.0.0.1:1, http://127.0.0.1:2")
        assert len(channel) == 2
        first = channel.url
        channel.advance()
        assert channel.url != first
        channel.advance()
        assert channel.url == first
        with pytest.raises(FleetError):
            CoordinatorChannel("")

    def test_heartbeat_failures_are_counted(
        self, detached, small_benchmark, monkeypatch
    ):
        # A worker whose coordinator vanishes mid-lease must surface the
        # failed heartbeats (in their metric) instead of swallowing them
        # silently.
        import repro.fleet.worker as worker_module

        layout = small_benchmark.testing.layout
        coordinator = FleetCoordinator(detached, layout)
        lease_doc = coordinator._grant("hb-w")
        assert lease_doc["status"] == "lease"

        real_evaluate = worker_module.evaluate_shard

        def slow_evaluate(*args, **kwargs):
            time.sleep(0.4)  # hold the lease across several beat periods
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(worker_module, "evaluate_shard", slow_evaluate)
        worker = FleetWorker(
            "http://127.0.0.1:9", detached, layout, "hb-w",
            status_server=False,
        )
        worker._work_lease(lease_doc, layer=1, ttl_s=0.3)
        assert worker._m_heartbeat_failures.count() >= 1
        # The push to the dead coordinator was dropped as stale, not
        # raised out of the lease loop.
        assert worker._m_shards.count("stale") == 1


# ----------------------------------------------------------------------
# property: pushes x promotions x stale retries -> exactly once
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402


class TestInterleavingProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_each_shard_accepted_exactly_once(
        self, data, fitted, small_benchmark, reference
    ):
        fitted.attach_cache(None)
        layout = small_benchmark.testing.layout
        baseline, blobs = reference
        coordinator = FleetCoordinator(fitted, layout)
        shard_ids = sorted(blobs)
        order = data.draw(st.permutations(shard_ids))

        def push(shard_id, epoch):
            return coordinator.handle(
                "POST",
                f"/fleet/v1/push?shard={shard_id}&lease=1&epoch={epoch}",
                blobs[shard_id],
                {},
            )

        for shard_id in order:
            if data.draw(st.booleans(), label=f"promote<{shard_id}"):
                coordinator.set_epoch(coordinator.epoch + 1)
            if data.draw(st.booleans(), label=f"stale<{shard_id}"):
                # A zombie-epoch push: fenced, never merged.
                status, payload, _ = push(shard_id, coordinator.epoch - 1)
                assert status == 409
                assert payload["status"] == "stale_epoch"
            status, payload, _ = push(shard_id, coordinator.epoch)
            assert status == 200 and payload["status"] == "ok"
            if data.draw(st.booleans(), label=f"dup<{shard_id}"):
                # A duplicate under the current epoch: first push won.
                status, payload, _ = push(shard_id, coordinator.epoch)
                assert status == 200 and payload["status"] == "stale"

        assert coordinator.status()["pushes_accepted"] == len(shard_ids)
        assert_identical(
            baseline, merged_signature(fitted, layout, coordinator)
        )
