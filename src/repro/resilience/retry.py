"""Retries with exponential backoff, deterministic jitter and deadlines.

The two building blocks of the fault-tolerance layer:

- :class:`Deadline` — a wall-clock budget for a stage.  ``check()``
  raises :class:`~repro.errors.StageTimeout` once the budget is spent,
  so long loops (kernel training, retry loops) stop at a predictable
  point instead of running away.
- :func:`call_with_retry` — run a callable, retrying *transient*
  failures (:class:`~repro.errors.TransientError`, ``OSError`` by
  default) under a :class:`RetryPolicy`.  Backoff grows exponentially
  and is jittered **deterministically**: the jitter fraction is a hash
  of the call label and attempt number, not a PRNG draw, so two runs of
  the same workload sleep the same schedule — timing-sensitive tests
  and chaos runs stay reproducible.

Both take an injectable ``clock``/``sleep`` so tests drive them with a
fake clock and assert the exact backoff schedule.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable, Optional, TypeVar

from repro.errors import ConfigError, StageTimeout, TransientError

T = TypeVar("T")


class Deadline:
    """A monotonic-clock budget shared by the stages under it."""

    __slots__ = ("seconds", "_clock", "_expires")

    def __init__(self, seconds: float, clock: Callable[[], float] = time.monotonic):
        if seconds <= 0:
            raise ConfigError(f"deadline must be positive, got {seconds}")
        self.seconds = seconds
        self._clock = clock
        self._expires = clock() + seconds

    @classmethod
    def after(cls, seconds: Optional[float], clock=time.monotonic) -> Optional["Deadline"]:
        """A deadline, or ``None`` when no budget was requested."""
        return None if seconds is None else cls(seconds, clock)

    def remaining(self) -> float:
        return self._expires - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, stage: str) -> None:
        """Raise :class:`StageTimeout` once the budget is spent."""
        if self.expired():
            raise StageTimeout(
                f"stage {stage!r} exceeded its {self.seconds:.1f}s deadline"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff shape and the exception types worth retrying."""

    attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    #: Fraction of each delay subtracted by deterministic jitter (0..1).
    jitter: float = 0.5
    retry_on: tuple = (TransientError, OSError)

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigError("retry attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ConfigError("retry delays must satisfy 0 <= base <= max")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("retry jitter must be in [0, 1]")

    def delay(self, attempt: int, label: str = "") -> float:
        """Backoff before retry ``attempt`` (0-based), jittered.

        The jitter fraction is derived from ``sha256(label:attempt)`` so
        the schedule is fully determined by the call site — concurrent
        callers with different labels still de-synchronise.
        """
        raw = min(self.max_delay_s, self.base_delay_s * self.multiplier**attempt)
        digest = sha256(f"{label}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return raw * (1.0 - self.jitter * fraction)


#: Conservative default for file IO (model archives, layouts).
IO_RETRY = RetryPolicy(attempts=3, base_delay_s=0.02, max_delay_s=0.25)


def call_with_retry(
    fn: Callable[[], T],
    policy: Optional[RetryPolicy] = None,
    label: str = "",
    deadline: Optional[Deadline] = None,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
) -> T:
    """Run ``fn`` retrying transient failures; return its result.

    Retries stop on the first non-``retry_on`` exception, when attempts
    are exhausted, or when ``deadline`` expires (the deadline check runs
    *before* each sleep, so a spent budget raises ``StageTimeout``
    instead of sleeping uselessly).  ``on_retry(attempt, exc, delay)``
    observes each scheduled retry — logging and tests hook it.
    """
    policy = policy or RetryPolicy()
    last: Optional[BaseException] = None
    for attempt in range(policy.attempts):
        try:
            return fn()
        except policy.retry_on as exc:  # type: ignore[misc]
            last = exc
            if attempt + 1 >= policy.attempts:
                break
            if deadline is not None:
                deadline.check(label or "retry")
            pause = policy.delay(attempt, label)
            if on_retry is not None:
                on_retry(attempt, exc, pause)
            if pause > 0:
                sleep(pause)
    assert last is not None
    raise last

