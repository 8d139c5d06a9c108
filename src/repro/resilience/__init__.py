"""repro.resilience — fault tolerance for the hotspot pipeline.

Stdlib-only building blocks, wired through core, IO and serving:

- typed failures (:class:`~repro.errors.InputError`,
  :class:`~repro.errors.TransientError`,
  :class:`~repro.errors.StageTimeout`,
  :class:`~repro.errors.CheckpointError`,
  :class:`~repro.errors.CircuitOpenError`) re-exported here;
- :func:`~repro.resilience.retry.call_with_retry` /
  :class:`~repro.resilience.retry.RetryPolicy` /
  :class:`~repro.resilience.retry.Deadline` — exponential backoff with
  deterministic jitter and per-stage deadlines;
- :class:`~repro.resilience.checkpoint.Journal` — the content-keyed
  store of completed work units behind ``repro train --resume`` (one
  unit per cluster kernel) and ``repro scan --resume/--incremental``
  (one unit per shard);
- :class:`~repro.resilience.quarantine.QuarantineReport` — skip, count
  and report malformed inputs instead of crashing;
- :class:`~repro.resilience.breaker.CircuitBreaker` — per-model load
  shedding in the serving path;
- :mod:`~repro.resilience.faults` — seeded, deterministic fault
  injection (``REPRO_FAULTS``) for the test suite and CI chaos job;
- :mod:`~repro.resilience.drill` — :class:`~repro.resilience.drill.ChaosDrill`:
  seeded multi-process fleet drills (``repro chaos``) that kill and
  partition nodes on a schedule, then assert bit-identical output.

See ``docs/RESILIENCE.md`` for the full tour.
"""

from repro.errors import (
    CheckpointError,
    CircuitOpenError,
    InputError,
    StageTimeout,
    TransientError,
)

from . import faults
from .breaker import BreakerConfig, CircuitBreaker
from .drill import ChaosDrill, DrillAction, DrillReport, DrillSchedule
from .checkpoint import Journal, training_fingerprint
from .quarantine import QuarantineItem, QuarantineReport
from .retry import IO_RETRY, Deadline, RetryPolicy, RetryState, call_with_retry

__all__ = [
    "BreakerConfig",
    "ChaosDrill",
    "CheckpointError",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DrillAction",
    "DrillReport",
    "DrillSchedule",
    "IO_RETRY",
    "InputError",
    "Journal",
    "QuarantineItem",
    "QuarantineReport",
    "RetryPolicy",
    "RetryState",
    "StageTimeout",
    "TransientError",
    "call_with_retry",
    "faults",
    "training_fingerprint",
]
