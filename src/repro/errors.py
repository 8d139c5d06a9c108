"""Exception hierarchy for the :mod:`repro` hotspot-detection library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class at API boundaries.  Subsystems raise the most
specific subclass available; nothing in the library raises a bare
``Exception`` or ``ValueError`` for conditions that are specific to this
domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class InputError(ReproError):
    """Malformed external input: a corrupt file, record, clip or payload.

    Input errors are *quarantinable*: pipelines that process many
    independent inputs (clip archives, layout scans) may skip the
    offending item, record it in a
    :class:`~repro.resilience.quarantine.QuarantineReport` and carry on,
    instead of aborting the whole run.
    """


class TransientError(ReproError):
    """A failure that may succeed on retry (IO hiccup, injected fault).

    :func:`repro.resilience.retry.call_with_retry` retries these by
    default; anything else is treated as a permanent failure.
    """


class StageTimeout(ReproError):
    """A pipeline stage exceeded its deadline.

    Raised by :class:`repro.resilience.retry.Deadline` checks (and by
    injected ``timeout`` faults).  Training checkpoints persist before
    the raise, so a timed-out ``repro train`` resumes with ``--resume``.
    """


class CheckpointError(ReproError):
    """A training checkpoint could not be written, read or validated."""


class GeometryError(InputError):
    """Invalid geometric input (degenerate rectangle, open polygon, ...)."""


class GdsiiError(InputError):
    """Malformed GDSII stream data or unsupported record usage."""


class GdsiiRecordError(GdsiiError):
    """A single GDSII record could not be decoded or encoded."""


class LayoutError(InputError):
    """Inconsistent layout-model operation (unknown layer, bad clip...)."""


class TopologyError(ReproError):
    """Topological classification failure (empty pattern, bad radix...)."""


class TilingError(ReproError):
    """MTCG tiling or constraint-graph construction failure."""


class FeatureError(ReproError):
    """Critical-feature extraction failure."""


class SvmError(ReproError):
    """SVM training or prediction failure."""


class NotFittedError(SvmError):
    """A model was used for prediction before being trained."""


class ConvergenceError(SvmError):
    """The SMO solver failed to reach the requested tolerance."""


class ConfigError(ReproError):
    """Invalid detector configuration value."""


class DataError(InputError):
    """Benchmark-data generation or loading failure."""


class WorkError(ReproError):
    """Base class for supervised worker-pool failures."""


class WorkerCrashError(WorkError):
    """A pool worker died (native crash, OOM kill, SIGKILL) mid-task.

    The supervisor retries the in-flight task on a fresh worker; this
    error surfaces only when retries (and bisection, for splittable
    tasks) are exhausted.
    """


class PoisonTaskError(WorkError):
    """A task repeatedly killed workers and was isolated by bisection.

    Poison tasks are routed into the run's
    :class:`~repro.resilience.quarantine.QuarantineReport` instead of
    failing the scan; the error records what the offending unit was.
    """


class ScanDrainedError(WorkError):
    """A sharded scan drained on request (SIGTERM) before completing.

    Completed shards are journaled; rerun with ``--resume`` to finish.
    """


class ServeError(ReproError):
    """Base class for inference-service failures."""


class ModelNotFoundError(ServeError):
    """The requested model name is not loaded in the registry."""


class QueueFullError(ServeError, TransientError):
    """Backpressure: the batching queue cannot accept more work.

    Also a :class:`TransientError` — the queue drains, so an idempotent
    caller may retry after a short backoff (HTTP 429 + ``Retry-After``).
    """


class RequestTimeoutError(ServeError):
    """A queued request missed its deadline before being evaluated."""


class ServerClosedError(ServeError):
    """The service is draining or stopped and rejects new work."""


class CircuitOpenError(ServeError, TransientError):
    """A circuit breaker is open: the model is failing, calls shed fast.

    ``retry_after_s`` is the breaker's remaining cool-down, surfaced as
    the HTTP ``Retry-After`` header on the 503 response.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class FleetError(ReproError):
    """Base class for distributed-fleet (coordinator/worker/cache) failures."""


class FleetProtocolError(FleetError):
    """A fleet RPC payload does not match the wire format (or its digest)."""


class FleetHandshakeError(FleetError):
    """A worker's scan fingerprint disagrees with the coordinator's.

    Raised when a worker joins a fleet with a different model archive,
    layout, layer or shard grid than the coordinator partitioned — the
    worker must abort loudly rather than contribute margins computed
    under different state.
    """

