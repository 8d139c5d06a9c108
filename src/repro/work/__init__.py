"""repro.work — the layout scan driver and its crash-isolated worker pool.

Two layers:

- :mod:`repro.work.pool` — :class:`SupervisedPool`, a generic
  ``multiprocessing`` worker pool with heartbeats, hung-task kill,
  crash retry, poison-task bisection and graceful drain;
- :mod:`repro.work.shard` — the scan driver behind every
  ``HotspotDetector.detect``.  Its :class:`~repro.work.shard.ShardPlan`
  buckets a layout's candidate anchors into shards, journals completed
  shards in a :class:`~repro.resilience.checkpoint.Journal` keyed by
  each shard's cell and geometry hash (for ``repro scan --resume`` /
  ``--incremental``) and merges them; the fleet coordinator uses the
  same plan.  Each shard is evaluated with
  :func:`~repro.work.shard.evaluate_shard` in the calling process or on
  the pool.

``detect`` evaluates the shards in-process by default, as
``ScanOptions()`` does; pass ``work=ScanOptions(workers=N)`` (``repro
scan --workers N`` on the CLI) to run them on N supervised worker
processes.
"""

from repro.work.pool import PoolConfig, PoolStats, PoolTask, SupervisedPool
from repro.work.shard import (
    ScanOptions,
    ScanResult,
    ShardPlan,
    decode_shard_record,
    encode_shard_record,
    evaluate_shard,
    run_sharded_scan,
    scan_fingerprint,
    shard_cells,
)

__all__ = [
    "PoolConfig",
    "PoolStats",
    "PoolTask",
    "SupervisedPool",
    "ScanOptions",
    "ScanResult",
    "ShardPlan",
    "decode_shard_record",
    "encode_shard_record",
    "evaluate_shard",
    "run_sharded_scan",
    "scan_fingerprint",
    "shard_cells",
]
