"""Crash-isolated supervised process pool.

In one process, a native crash, OOM kill or hang on a single
pathological clip takes a whole multi-hour scan down with it.
:class:`SupervisedPool` runs tasks in ``multiprocessing`` workers under
an actively supervising parent instead:

- **Heartbeats** — each worker runs a daemon thread that reports
  liveness every ``heartbeat_interval_s``; a worker that goes silent
  past ``heartbeat_timeout_s`` is presumed wedged and killed.
- **Hung-task kill** — every dispatched task gets a
  :class:`~repro.resilience.retry.Deadline`; on expiry the worker is
  SIGKILLed and the task handled like a crash
  (:class:`~repro.errors.StageTimeout` recorded as the cause).
- **Crash detection + bounded retry** — a worker that dies mid-task
  (segfault, OOM, injected ``kill`` fault) is detected via its process
  sentinel; the task is retried on a *fresh* worker up to
  ``task_retries`` times.
- **Bisection** — a task that keeps killing workers is split via the
  caller's ``split`` callback until the offending unit is isolated; the
  atomic survivor is reported through ``on_poison`` (the sharded scan
  routes it into the run's quarantine) instead of failing the run.
- **Graceful drain** — a ``stop_event`` (wired to SIGTERM by the CLI)
  stops dispatch, lets in-flight tasks finish and journals their
  results, so an interrupted scan resumes instead of restarting.

Task functions must be **module-level callables** with picklable
payloads: workers are started fresh (fork where available, spawn
otherwise) and receive ``fn(state, payload)`` where ``state`` is
whatever the pool's ``init_fn`` built once per worker (the scan driver
loads the layout + model there).

Fault-injection points (:mod:`repro.resilience.faults`):

- ``work.task`` — worker-side, top of every task (``kill`` simulates a
  crash, ``error``/``timeout`` a failing task, ``slow`` a stall);
- ``work.heartbeat`` — worker-side, in the heartbeat loop (``error``
  silences the worker so the supervisor's liveness kill fires);
- ``work.crash`` — parent-side, right after dispatch: SIGKILLs the
  worker that just received the task (deterministic parent-side
  counters, unlike worker-side ``kill`` rules under fork).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Optional, Sequence

from repro.errors import (
    ConfigError,
    ReproError,
    StageTimeout,
    WorkError,
    WorkerCrashError,
)
from repro.obs import get_logger, tally
from repro.resilience import faults
from repro.resilience.retry import Deadline

_log = get_logger("work.pool")

#: Seconds to wait for workers to exit on graceful stop.
_DRAIN_TIMEOUT_S = 5.0
#: Supervisor poll tick; bounds detection latency, not throughput.
_TICK_S = 0.05


def _start_method() -> str:
    return "fork" if "fork" in get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class PoolConfig:
    """Supervision knobs of a :class:`SupervisedPool`."""

    workers: int = 2
    #: Per-task wall budget; ``None`` disables the hung-task kill.
    task_timeout_s: Optional[float] = 300.0
    heartbeat_interval_s: float = 0.2
    #: Silence longer than this while a task is in flight kills the worker.
    heartbeat_timeout_s: float = 10.0
    #: Crash/hang/error retries per task before splitting or poisoning.
    task_retries: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("pool workers must be >= 1")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ConfigError("task_timeout_s must be positive or None")
        if self.heartbeat_interval_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ConfigError("heartbeat intervals must be positive")
        if self.task_retries < 0:
            raise ConfigError("task_retries must be >= 0")


@dataclass
class PoolTask:
    """One schedulable unit: a picklable payload for a module-level fn."""

    task_id: str
    fn: Callable
    payload: object
    #: Crash/hang/error attempts consumed so far.
    attempts: int = 0
    #: How many bisections produced this task (0 = original).
    depth: int = 0
    #: Opaque grouping key threaded through splits (the scan's shard id).
    group: Optional[object] = None


@dataclass
class PoolStats:
    """Counters of one :meth:`SupervisedPool.run`."""

    tasks_ok: int = 0
    task_errors: int = 0
    task_retries: int = 0
    worker_restarts: int = 0
    bisections: int = 0
    poison_tasks: int = 0
    drained: bool = False
    wall_s: float = 0.0


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _worker_main(conn, worker_index, init_fn, init_args, heartbeat_interval_s):
    """Worker loop: init once, then recv task / send result until stopped."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns shutdown

    # Orphan watchdog: forked siblings inherit each other's pipe fds, so
    # a SIGKILLed parent never produces EOF on ``conn`` — without this a
    # dead scan leaves workers alive forever, pinning the CLI's
    # stdout/stderr pipes open.  Reparenting (getppid change) is the one
    # signal fd inheritance cannot mask.
    parent_pid = os.getppid()

    def _orphan_watch() -> None:
        while True:
            if os.getppid() != parent_pid:
                os._exit(1)
            time.sleep(min(0.5, heartbeat_interval_s))

    threading.Thread(target=_orphan_watch, daemon=True).start()
    if faults.get() is None:
        # Fork children inherit the parent's injector; spawn children
        # start clean, so re-install any environment-driven plan to keep
        # REPRO_FAULTS chaos runs backend-agnostic.
        faults.from_env()
    send_lock = threading.Lock()
    stop = threading.Event()

    def _send(message) -> bool:
        try:
            with send_lock:
                conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _heartbeats() -> None:
        while not stop.is_set():
            try:
                faults.inject("work.heartbeat", worker=worker_index)
            except ReproError:
                return  # injected fault silences the worker on purpose
            if not _send(("heartbeat",)):
                return
            stop.wait(heartbeat_interval_s)

    try:
        state = init_fn(*init_args) if init_fn is not None else None
    except BaseException as exc:  # noqa: BLE001 — reported, then exit
        _send(("init_error", type(exc).__name__, str(exc)))
        return
    threading.Thread(target=_heartbeats, daemon=True).start()
    _send(("ready",))

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, task_id, fn, payload = message
        started = time.perf_counter()
        try:
            faults.inject("work.task", task=task_id, worker=worker_index)
            result = fn(state, payload)
        except (KeyboardInterrupt, SystemExit):
            break
        except BaseException as exc:  # noqa: BLE001 — parent decides
            if not _send(
                ("err", task_id, type(exc).__name__, str(exc),
                 time.perf_counter() - started)
            ):
                break
        else:
            if not _send(("ok", task_id, result, time.perf_counter() - started)):
                break
    stop.set()
    conn.close()


# ----------------------------------------------------------------------
# parent-side worker handle
# ----------------------------------------------------------------------
class _Worker:
    """Supervisor-side state of one worker process."""

    __slots__ = (
        "index",
        "generation",
        "process",
        "conn",
        "task",
        "deadline",
        "dispatched_at",
        "last_heartbeat",
        "ready",
        "dead",
    )

    def __init__(self, index: int, generation: int, process, conn) -> None:
        self.index = index
        self.generation = generation
        self.process = process
        self.conn = conn
        self.task: Optional[PoolTask] = None
        self.deadline: Optional[Deadline] = None
        self.dispatched_at = 0.0
        self.last_heartbeat = time.monotonic()
        self.ready = False
        self.dead = False

    @property
    def name(self) -> str:
        return f"worker-{self.index}.{self.generation}"


class SupervisedPool:
    """Run picklable tasks on supervised, crash-isolated worker processes.

    One-shot usage::

        pool = SupervisedPool(PoolConfig(workers=4), init_fn=_load_state,
                              init_args=(model_path,))
        stats = pool.run(tasks, split=split_fn,
                         on_result=collect, on_poison=quarantine)

    ``run`` blocks until every task completed, was poisoned, or a drain
    was requested; callbacks fire on the supervisor thread, in
    completion order.
    """

    def __init__(
        self,
        config: Optional[PoolConfig] = None,
        init_fn: Optional[Callable] = None,
        init_args: tuple = (),
    ) -> None:
        self.config = config or PoolConfig()
        self._init_fn = init_fn
        self._init_args = init_args
        self._context = get_context(_start_method())
        self._generation = 0

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _Worker:
        self._generation += 1
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                index,
                self._init_fn,
                self._init_args,
                self.config.heartbeat_interval_s,
            ),
            daemon=True,
            name=f"repro-work-{index}",
        )
        process.start()
        child_conn.close()  # parent's copy; worker holds the live end
        return _Worker(index, self._generation, process, parent_conn)

    def _kill(self, worker: _Worker) -> None:
        worker.dead = True
        try:
            if worker.process.is_alive():
                worker.process.kill()
        except (OSError, ValueError):  # pragma: no cover — already gone
            pass
        worker.process.join(timeout=1.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _stop_gracefully(self, workers: Sequence[_Worker]) -> None:
        for worker in workers:
            if worker.dead:
                continue
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + _DRAIN_TIMEOUT_S
        for worker in workers:
            if worker.dead:
                continue
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                self._kill(worker)
            else:
                worker.dead = True
                try:
                    worker.conn.close()
                except OSError:  # pragma: no cover
                    pass

    # ------------------------------------------------------------------
    # the supervision loop
    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[PoolTask],
        split: Optional[Callable[[PoolTask], Optional[list]]] = None,
        on_result: Optional[Callable[[PoolTask, object, dict], None]] = None,
        on_poison: Optional[Callable[[PoolTask, BaseException], None]] = None,
        stop_event: Optional[threading.Event] = None,
    ) -> PoolStats:
        """Execute ``tasks``; returns the run's :class:`PoolStats`.

        ``split(task)`` returns sub-tasks for a failing task or ``None``
        when the task is atomic; ``on_result(task, result, info)`` fires
        per completed task (``info`` holds ``worker``/``wall_s``);
        ``on_poison(task, error)`` fires for atomic tasks whose retries
        are exhausted.  Setting ``stop_event`` drains: no new dispatch,
        in-flight tasks finish, ``stats.drained`` is set if work remains.
        """
        config = self.config
        stats = PoolStats()
        started = time.perf_counter()
        queue: deque[PoolTask] = deque(tasks)
        if not queue:
            stats.wall_s = time.perf_counter() - started
            return stats

        count = min(config.workers, len(queue))
        workers = [self._spawn(index) for index in range(count)]
        try:
            self._supervise(workers, queue, split, on_result, on_poison,
                            stop_event, stats)
        finally:
            self._stop_gracefully(workers)
        stats.wall_s = time.perf_counter() - started
        return stats

    def _supervise(self, workers, queue, split, on_result, on_poison,
                   stop_event, stats: PoolStats) -> None:
        config = self.config

        def draining() -> bool:
            return stop_event is not None and stop_event.is_set()

        def inflight() -> int:
            return sum(1 for w in workers if not w.dead and w.task is not None)

        def fail_task(worker: _Worker, error: BaseException, crashed: bool) -> None:
            """Retry, split, or poison the in-flight task of ``worker``."""
            task = worker.task
            worker.task = None
            worker.deadline = None
            assert task is not None
            task.attempts += 1
            if crashed:
                stats.worker_restarts += 1
            else:
                stats.task_errors += 1
            _log.warning(
                "task_failed",
                task=task.task_id,
                worker=worker.name,
                attempts=task.attempts,
                crashed=crashed,
                error=f"{type(error).__name__}: {error}",
            )
            if task.attempts <= config.task_retries:
                stats.task_retries += 1
                queue.appendleft(task)
                return
            subtasks = split(task) if split is not None else None
            if subtasks is not None:
                # Empty list = "the task resolves into nothing" (e.g. a
                # region shard with no anchors); drop it as handled.
                stats.bisections += 1
                _log.warning(
                    "task_bisected",
                    task=task.task_id,
                    into=[sub.task_id for sub in subtasks],
                )
                queue.extendleft(reversed(subtasks))
                return
            stats.poison_tasks += 1
            _log.error(
                "task_poisoned",
                task=task.task_id,
                error=f"{type(error).__name__}: {error}",
            )
            if on_poison is not None:
                on_poison(task, error)

        init_failures = 0

        def handle_message(worker: _Worker, message) -> None:
            nonlocal init_failures
            kind = message[0]
            worker.last_heartbeat = time.monotonic()
            if kind == "heartbeat":
                return
            if kind == "ready":
                worker.ready = True
                init_failures = 0
                return
            if kind == "init_error":
                # The worker could not build its state; treat like a crash
                # of whatever it was dispatched, but cap consecutive
                # failures — a broken init_fn must not respawn forever.
                init_failures += 1
                self._kill(worker)
                if worker.task is not None:
                    fail_task(
                        worker,
                        WorkerCrashError(
                            f"{worker.name} failed to initialise: "
                            f"{message[1]}: {message[2]}"
                        ),
                        crashed=True,
                    )
                if init_failures > max(4, 2 * config.workers):
                    raise WorkerCrashError(
                        "workers repeatedly failing to initialise: "
                        f"{message[1]}: {message[2]}"
                    )
                return
            task_id = message[1]
            task = worker.task
            if task is None or task.task_id != task_id:
                # A result for a task this worker no longer owns (it was
                # killed and the task reassigned); drop it.
                return
            if kind == "ok":
                _, _, result, wall_s = message
                worker.task = None
                worker.deadline = None
                stats.tasks_ok += 1
                tally("work.task", wall_s)
                tally(f"work.worker.{worker.index}", wall_s)
                if on_result is not None:
                    on_result(task, result, {
                        "worker": worker.index,
                        "wall_s": wall_s,
                    })
            else:
                _, _, type_name, detail, _ = message
                fail_task(
                    worker, WorkError(f"{type_name}: {detail}"), crashed=False
                )

        def reap(worker: _Worker) -> None:
            """Handle a worker found dead (crash, OOM, injected kill)."""
            if worker.dead:
                return
            # Drain anything it managed to send before dying.
            try:
                while worker.conn.poll():
                    handle_message(worker, worker.conn.recv())
            except (EOFError, OSError):
                pass
            self._kill(worker)
            if worker.task is not None:
                fail_task(
                    worker,
                    WorkerCrashError(
                        f"{worker.name} died running task {worker.task.task_id}"
                    ),
                    crashed=True,
                )
            elif worker.ready:
                stats.worker_restarts += 1
                _log.warning("worker_died_idle", worker=worker.name)

        def supervise_health(worker: _Worker) -> None:
            if worker.dead:
                return
            if not worker.process.is_alive():
                reap(worker)
                return
            if worker.task is None:
                return
            now = time.monotonic()
            if worker.deadline is not None and worker.deadline.expired():
                timeout = StageTimeout(
                    f"task {worker.task.task_id!r} exceeded its "
                    f"{config.task_timeout_s:.1f}s deadline on {worker.name}"
                )
                self._kill(worker)
                fail_task(worker, timeout, crashed=True)
                return
            if now - worker.last_heartbeat > config.heartbeat_timeout_s:
                silence = now - worker.last_heartbeat
                self._kill(worker)
                fail_task(
                    worker,
                    WorkerCrashError(
                        f"{worker.name} heartbeat silent for {silence:.1f}s"
                    ),
                    crashed=True,
                )

        injector = faults.get()

        def dispatch(worker: _Worker, task: PoolTask) -> None:
            worker.task = task
            worker.dispatched_at = time.monotonic()
            worker.last_heartbeat = time.monotonic()
            worker.deadline = (
                Deadline(config.task_timeout_s)
                if config.task_timeout_s is not None
                else None
            )
            try:
                worker.conn.send(("task", task.task_id, task.fn, task.payload))
            except (BrokenPipeError, OSError):
                reap(worker)
                return
            if injector is not None:
                # Parent-side crash injection: kill the worker that just
                # received the task.  Parent counters make this exact.
                rule = injector.match("work.crash")
                if rule is not None:
                    injector.record(
                        "work.crash", rule.kind,
                        {"worker": worker.name, "task": task.task_id},
                    )
                    if worker.process.pid is not None:
                        os.kill(worker.process.pid, signal.SIGKILL)

        while True:
            if not draining():
                for slot, worker in enumerate(workers):
                    if not queue:
                        break
                    if worker.dead:
                        if queue or inflight():
                            workers[slot] = worker = self._spawn(worker.index)
                        else:
                            continue
                    if worker.task is None:
                        dispatch(worker, queue.popleft())

            if inflight() == 0 and (draining() or not queue):
                break

            sentinels = []
            for worker in workers:
                if worker.dead:
                    continue
                sentinels.append(worker.conn)
                sentinels.append(worker.process.sentinel)
            if not sentinels:
                if queue and not draining():
                    continue  # all workers died; respawn at loop top
                break
            connection_wait(sentinels, timeout=_TICK_S)

            for worker in workers:
                if worker.dead:
                    continue
                try:
                    while worker.conn.poll():
                        handle_message(worker, worker.conn.recv())
                except (EOFError, OSError):
                    reap(worker)
            for worker in workers:
                supervise_health(worker)

        if draining() and queue:
            stats.drained = True
            _log.warning("pool_drained", remaining=len(queue))
