"""Deterministic chaos drills for the fleet: kill, partition, verify.

A drill runs a real multi-process fleet topology — a primary
coordinator, an optional warm standby and N workers, all spawned as
``repro`` subprocesses — then executes a **seeded schedule** of
disruptions against it on a reproducible timeline and finally asserts
the property every other fleet test leans on: the merged hotspot set,
funnel counts and margins are **bit-identical** to a quiet single-node
scan of the same layout.

The schedule DSL is deliberately tiny.  Entries are separated by
newlines or ``;``; ``#`` starts a comment::

    seed 42
    at 0 faults worker-0 fleet.lease=kill:1.0@1!1
    at 1.5 kill primary
    at 6.0 cont primary        # no-op here; primary is dead

- ``seed N`` — seeds any ``faults`` plans that do not carry their own
  (the same schedule injects the same faults run after run).
- ``at T kill <role>`` — SIGKILL the role's process at T seconds.
- ``at T stop <role>`` / ``at T cont <role>`` — SIGSTOP / SIGCONT: a
  stopped coordinator is the *zombie primary* (alive but frozen, later
  resumed to test the stale-epoch fence), a stopped worker a network
  partition of that node, a stopped cache node a flapping member of the
  warm tier (its half-open probe re-admits it after ``cont``).
- ``at T promote standby`` — force promotion via ``POST
  /fleet/v1/promote`` without waiting for missed probes.
- ``at T add cache-K`` — spawn a brand-new cache node mid-drill; it
  announces itself to the coordinator (``repro fleet-cache --join``),
  which piggybacks the new ring membership on the next lease responses.
- ``at 0 faults <role> <REPRO_FAULTS spec>`` — install a fault plan in
  that role's environment at spawn time (``at`` must be 0; fault
  *firing* times are governed by the plan's own counters, which is what
  keeps them deterministic while wall-clock actions are best-effort).

Roles are ``primary``, ``standby``, ``worker-0`` .. ``worker-N`` and —
when the drill carries a cache tier — ``cache-0`` .. ``cache-K``
(:class:`ServeFleetDrill` adds ``frontend`` and ``replica-N``).  Action
timestamps are wall-clock best effort — the bit-identity assertion at
the end is what makes the drill deterministic, not the exact
millisecond a SIGKILL lands.  That assertion merges the leader's
journal with a local scan's :class:`~repro.work.shard.ShardPlan` and
leaves the journal in the workdir.

:class:`ChaosDrill` optionally runs a **long-running session**:
``scans=N`` re-runs the same fleet scan N times against the surviving
cache tier (fresh coordinator + workers each time, cache nodes
persist), so scan 2 measures the warm-rescan remote hit rate the drill
asserts on.  :class:`ServeFleetDrill` drives a predict front end over
churning serve replicas instead of a scan.

Everything heavier than the stdlib is imported lazily inside methods:
:mod:`repro.fleet` imports :mod:`repro.resilience` (fault points), so
this module must not complete the cycle at import time.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.errors import InputError
from repro.obs import get_logger

_log = get_logger("resilience.drill")

VERBS = ("kill", "stop", "cont", "promote", "add", "faults")
ROLES = ("primary", "standby", "frontend")  # plus worker-/cache-/replica-<n>

#: Role-name prefixes of the numbered process families.
ROLE_PREFIXES = ("worker-", "cache-", "replica-")

#: Hard ceiling on one drill's wall clock; a wedged topology is killed
#: and reported as failed rather than hanging CI.
DEFAULT_DEADLINE_S = 240.0


@dataclass
class DrillAction:
    """One scheduled disruption."""

    at_s: float
    verb: str
    target: str
    arg: str = ""

    def label(self) -> str:
        suffix = f" {self.arg}" if self.arg else ""
        return f"at {self.at_s:g} {self.verb} {self.target}{suffix}"


@dataclass
class DrillSchedule:
    """A parsed, validated drill schedule."""

    seed: int = 42
    actions: list[DrillAction] = field(default_factory=list)

    @classmethod
    def parse(cls, spec: str) -> "DrillSchedule":
        schedule = cls()
        entries = [
            chunk.strip()
            for line in spec.splitlines()
            for chunk in line.split(";")
        ]
        for entry in entries:
            entry = entry.partition("#")[0].strip()
            if not entry:
                continue
            words = entry.split()
            if words[0] == "seed":
                if len(words) != 2:
                    raise InputError(f"bad schedule entry {entry!r}")
                schedule.seed = int(words[1])
                continue
            if words[0] != "at" or len(words) < 4:
                raise InputError(
                    f"bad schedule entry {entry!r} "
                    "(want 'seed N' or 'at T verb target [arg]')"
                )
            at_s = float(words[1])
            verb, target = words[2], words[3]
            arg = " ".join(words[4:])
            if verb not in VERBS:
                raise InputError(f"unknown drill verb {verb!r} in {entry!r}")
            if target not in ROLES and not target.startswith(ROLE_PREFIXES):
                raise InputError(f"unknown drill target {target!r}")
            if verb == "promote" and target != "standby":
                raise InputError("promote only targets the standby")
            if verb == "add" and not target.startswith("cache-"):
                raise InputError("add only targets cache-<n> nodes")
            if verb == "faults":
                if at_s != 0:
                    raise InputError(
                        f"faults plans are installed at spawn; {entry!r} "
                        "must use 'at 0'"
                    )
                if not arg:
                    raise InputError(f"faults entry {entry!r} needs a plan")
            schedule.actions.append(DrillAction(at_s, verb, target, arg))
        schedule.actions.sort(key=lambda action: action.at_s)
        return schedule

    def spawn_faults(self, target: str) -> Optional[str]:
        """The ``REPRO_FAULTS`` plan for one role, seed-prefixed."""
        plans = [
            action.arg
            for action in self.actions
            if action.verb == "faults" and action.target == target
        ]
        if not plans:
            return None
        plan = ";".join(plans)
        if "seed=" not in plan:
            plan = f"seed={self.seed};{plan}"
        return plan


@dataclass
class DrillReport:
    """What one drill did and whether the invariant held."""

    identical: bool = False
    promoted: bool = False
    leader: str = ""
    leader_epoch: int = 0
    shards: int = 0
    completed: int = 0
    stale_epoch_fenced: int = 0
    wall_s: float = 0.0
    reference_reports: int = 0
    drill_reports: int = 0
    error: str = ""
    timeline: list[dict] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    #: Cache-tier churn coverage (empty when the drill has no cache).
    cache_nodes: list[str] = field(default_factory=list)
    scans_completed: int = 0
    scan_cache: list[dict] = field(default_factory=list)
    warm_hit_rate: Optional[float] = None
    remote_corrupt: int = 0

    def to_dict(self) -> dict:
        return {
            "identical": self.identical,
            "promoted": self.promoted,
            "leader": self.leader,
            "leader_epoch": self.leader_epoch,
            "shards": self.shards,
            "completed": self.completed,
            "stale_epoch_fenced": self.stale_epoch_fenced,
            "wall_s": round(self.wall_s, 3),
            "reference_reports": self.reference_reports,
            "drill_reports": self.drill_reports,
            "error": self.error,
            "timeline": self.timeline,
            "artifacts": self.artifacts,
            "cache_nodes": self.cache_nodes,
            "scans_completed": self.scans_completed,
            "scan_cache": self.scan_cache,
            "warm_hit_rate": self.warm_hit_rate,
            "remote_corrupt": self.remote_corrupt,
        }


class ChaosDrill:
    """Run one fleet topology under a :class:`DrillSchedule`."""

    def __init__(
        self,
        model_path: Path,
        layout_path: Path,
        schedule: DrillSchedule,
        layer: int = 1,
        workers: int = 2,
        standby: bool = True,
        lease_ttl_s: float = 2.0,
        probe_interval_s: float = 0.3,
        shard_side: Optional[int] = None,
        workdir: Optional[Path] = None,
        trace: bool = False,
        deadline_s: float = DEFAULT_DEADLINE_S,
        cache_nodes: int = 0,
        scans: int = 1,
    ) -> None:
        self.model_path = Path(model_path)
        self.layout_path = Path(layout_path)
        self.schedule = schedule
        self.layer = layer
        self.workers = max(1, workers)
        self.standby = standby
        self.lease_ttl_s = lease_ttl_s
        self.probe_interval_s = probe_interval_s
        self.shard_side = shard_side
        self.workdir = Path(workdir) if workdir else self.layout_path.parent
        self.trace = trace
        self.deadline_s = deadline_s
        self.cache_nodes = max(0, cache_nodes)
        self.scans = max(1, scans)
        self._procs: dict[str, subprocess.Popen] = {}
        self._stopped: set[str] = set()
        self._urls: dict[str, str] = {}
        self._cache_urls: list[str] = []
        self._endpoints: list[str] = []
        #: Every port this drill has handed to a role.
        self._ports: set[int] = set()

    def _port(self) -> int:
        """A free port no role of this drill was handed before."""
        from repro.fleet.launch import free_port

        return free_port(self._ports)

    # ------------------------------------------------------------------
    def run(self) -> DrillReport:
        from repro.cli import load_detector, load_layout_auto

        report = DrillReport()
        detector = load_detector(self.model_path)
        layout = load_layout_auto(self.layout_path)
        reference = detector.detect(layout, layer=self.layer)
        report.reference_reports = reference.report_count
        started = time.perf_counter()
        pending = list(self.schedule.actions)
        try:
            self._launch_cache_tier(report)
            for scan_index in range(self.scans):
                if scan_index:
                    self._teardown_scan()
                self._launch(report, scan_index)
                leader = self._drive(report, started, pending)
                self._settle(leader)
                self._compare(
                    report, detector, layout, reference, leader, scan_index
                )
                report.scans_completed = scan_index + 1
                if not report.identical:
                    break  # a diverged scan fails the whole session
            if len(report.scan_cache) >= 2:
                report.warm_hit_rate = float(
                    report.scan_cache[-1].get("hit_rate", 0.0)
                )
        except Exception as exc:  # a failed drill is a report, not a crash
            report.error = f"{type(exc).__name__}: {exc}"
            report.identical = False
            _log.error("drill_failed", error=report.error)
        finally:
            self._cleanup()
            report.wall_s = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def _journal_dir(self, role: str, scan_index: int = 0) -> Path:
        suffix = f"-s{scan_index}" if scan_index else ""
        return self.workdir / f"drill-journal-{role}{suffix}"

    def _wait_healthy(
        self, url: str, what: str, timeout_s: float = 30.0, replicas: int = 0
    ) -> None:
        """Wait for ``/healthz`` to answer 200 (and, on a serve front end,
        to count at least ``replicas`` registered replicas)."""
        from repro.fleet.protocol import FleetClient, wait_until

        def _up() -> bool:
            try:
                code, document = FleetClient(url, timeout=1.0).get_json("/healthz")
            except Exception:
                return False
            return code == 200 and document.get("replicas", 0) >= replicas

        if not wait_until(_up, timeout_s=timeout_s, interval_s=0.1):
            raise InputError(f"{what} never became healthy at {url}")

    def _spawn_cache(self, role: str, join: bool) -> str:
        port = self._port()
        url = f"http://127.0.0.1:{port}"
        args = ["fleet-cache", "--port", str(port)]
        if join and self._endpoints:
            args += [
                "--join", ",".join(self._endpoints),
                "--advertise", url,
            ]
        self._spawn(role, args, role)
        self._urls[role] = url
        self._cache_urls.append(url)
        return url

    def _launch_cache_tier(self, report: DrillReport) -> None:
        if not self.cache_nodes:
            return
        self.workdir.mkdir(parents=True, exist_ok=True)
        for index in range(self.cache_nodes):
            self._spawn_cache(f"cache-{index}", join=False)
        for index in range(self.cache_nodes):
            role = f"cache-{index}"
            self._wait_healthy(self._urls[role], f"cache node {role}")
        report.cache_nodes = list(self._cache_urls)

    def _spawn(self, role: str, command: list, log_name: str) -> None:
        from repro.fleet.launch import spawn

        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)
        plan = self.schedule.spawn_faults(role)
        if plan is not None:
            env["REPRO_FAULTS"] = plan
        log_path = self.workdir / f"drill-{log_name}.log"
        stream = open(log_path, "w")
        self._procs[role] = spawn(
            command, env=env, stdout=stream, stderr=subprocess.STDOUT
        )

    def _trace_path(self, report: DrillReport, role: str, suffix: str):
        """Where a traced drill's coordinator writes its merged trace."""
        if not self.trace:
            return None
        path = self.workdir / f"drill-trace-{role}{suffix}.json"
        report.artifacts[f"trace_{role}{suffix}"] = str(path)
        return path

    def _launch(self, report: DrillReport, scan_index: int = 0) -> None:
        from repro.fleet.launch import RoleLauncher

        self.workdir.mkdir(parents=True, exist_ok=True)
        ports = {"primary": self._port(), "standby": self._port()}
        suffix = f"-s{scan_index}" if scan_index else ""
        launcher = RoleLauncher(
            self.model_path, self.layout_path, self.layer, self.lease_ttl_s,
            self.shard_side, list(self._cache_urls),
        )
        self._urls["primary"] = f"http://127.0.0.1:{ports['primary']}"
        self._spawn(
            "primary",
            launcher.coordinator(
                ports["primary"],
                self._journal_dir("primary", scan_index),
                trace=self._trace_path(report, "primary", suffix),
            ),
            f"primary{suffix}",
        )
        self._wait_healthy(self._urls["primary"], "primary coordinator")

        endpoints = [self._urls["primary"]]
        if self.standby:
            self._urls["standby"] = f"http://127.0.0.1:{ports['standby']}"
            self._spawn(
                "standby",
                launcher.coordinator(
                    ports["standby"],
                    self._journal_dir("standby", scan_index),
                    standby_of=self._urls["primary"],
                    probe_interval_s=self.probe_interval_s,
                    trace=self._trace_path(report, "standby", suffix),
                ),
                f"standby{suffix}",
            )
            endpoints.append(self._urls["standby"])
        self._endpoints = endpoints

        for index in range(self.workers):
            role = f"worker-{index}"
            self._spawn(
                role, launcher.worker(endpoints, f"drill-{role}"), f"{role}{suffix}"
            )

    # ------------------------------------------------------------------
    # timeline + completion
    # ------------------------------------------------------------------
    def _execute(self, action: DrillAction, report: DrillReport, t: float) -> None:
        from repro.fleet.protocol import FleetClient

        detail = ""
        if action.verb == "faults":
            detail = "installed at spawn"
        elif action.verb == "add":
            proc = self._procs.get(action.target)
            if proc is not None and proc.poll() is None:
                detail = "already running"
            else:
                url = self._spawn_cache(action.target, join=True)
                report.cache_nodes.append(url)
                detail = f"cache node joining at {url}"
        elif action.verb == "promote":
            url = self._urls.get("standby")
            if url is None:
                detail = "no standby in this drill"
            else:
                try:
                    code, answer = FleetClient(url, timeout=5.0).post_json(
                        "/fleet/v1/promote", {}
                    )
                    detail = f"HTTP {code}: {answer.get('status')}"
                except Exception as exc:
                    detail = f"failed: {exc}"
        else:
            proc = self._procs.get(action.target)
            if proc is None or proc.poll() is not None:
                detail = "process already gone"
            elif action.verb == "kill":
                proc.kill()
                detail = f"SIGKILL pid {proc.pid}"
            elif action.verb == "stop":
                proc.send_signal(signal.SIGSTOP)
                self._stopped.add(action.target)
                detail = f"SIGSTOP pid {proc.pid}"
            elif action.verb == "cont":
                proc.send_signal(signal.SIGCONT)
                self._stopped.discard(action.target)
                detail = f"SIGCONT pid {proc.pid}"
        entry = {
            "t_s": round(t, 3),
            "action": action.label(),
            "detail": detail,
        }
        report.timeline.append(entry)
        _log.info("drill_action", **entry)

    def _poll_roles(self) -> dict:
        """Healthz of each reachable coordinator, keyed by spawn role."""
        from repro.fleet.protocol import FleetClient

        healths = {}
        for role in ("primary", "standby"):
            url = self._urls.get(role)
            if url is None:
                continue
            try:
                code, health = FleetClient(url, timeout=1.0).get_json("/healthz")
            except Exception:
                continue
            if code == 200:
                healths[role] = health
        return healths

    def _drive(
        self, report: DrillReport, started: float,
        pending: Optional[list] = None,
    ) -> str:
        """Execute the timeline while polling for a finished leader.

        ``pending`` is shared across the scans of a multi-scan session:
        the timeline clock keeps running, so an action at t=30s can land
        inside scan 2.
        """
        if pending is None:
            pending = list(self.schedule.actions)
        deadline = started + self.deadline_s
        leader = ""
        while time.perf_counter() < deadline:
            now = time.perf_counter() - started
            while pending and pending[0].at_s <= now:
                self._execute(pending.pop(0), report, now)
            healths = self._poll_roles()
            # Latch any observed promotion — a transiently-dead primary
            # (SIGSTOP) may resume and finish first, but the promotion
            # still happened and the report must say so.
            if healths.get("standby", {}).get("role") == "primary":
                report.promoted = True
            for role, health in healths.items():
                if health.get("role") != "primary":
                    continue
                leader = leader or role
                if health.get("done"):
                    report.leader = role
                    report.leader_epoch = int(health.get("epoch", 0))
                    self._final_status(report, role)
                    return role
            time.sleep(0.2)
        raise InputError(
            f"drill deadline ({self.deadline_s:.0f}s) expired; last "
            f"reachable leader: {leader or 'none'}"
        )

    def _final_status(self, report: DrillReport, leader: str) -> None:
        from repro.fleet.protocol import FleetClient

        try:
            code, status = FleetClient(
                self._urls[leader], timeout=2.0
            ).get_json("/fleet/v1/status")
        except Exception:
            return
        if code == 200:
            report.stale_epoch_fenced = int(
                status.get("stale_epoch_fenced", 0)
            )
            cache = status.get("cache")
            if isinstance(cache, dict) and self._cache_urls:
                report.scan_cache.append(cache)
                report.remote_corrupt += int(cache.get("remote_corrupt", 0))

    def _settle(self, leader: str) -> None:
        """Let workers drain and the leader write its trace, then stop."""
        for role, proc in self._procs.items():
            if role.startswith("worker-") and role not in self._stopped:
                try:
                    proc.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    pass
        # The leader lingers after done (writing its merged trace);
        # give it that window before the cleanup sweep terminates it.
        proc = self._procs.get(leader)
        if proc is not None:
            try:
                proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                pass

    def _teardown_scan(self) -> None:
        """Stop the coordinators/workers of one scan; cache nodes persist."""
        scan_roles = [
            role for role in self._procs if not role.startswith("cache-")
        ]
        for role in scan_roles:
            proc = self._procs[role]
            if role in self._stopped and proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGCONT)
                except OSError:
                    pass
                self._stopped.discard(role)
            if proc.poll() is None:
                proc.terminate()
        for role in scan_roles:
            proc = self._procs.pop(role)
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
            self._urls.pop(role, None)

    def _cleanup(self) -> None:
        for role in list(self._stopped):
            proc = self._procs.get(role)
            if proc is not None and proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGCONT)
                except OSError:
                    pass
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs.values():
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _compare(
        self, report: DrillReport, detector, layout, reference, leader: str,
        scan_index: int = 0,
    ) -> None:
        import numpy as np

        from repro.work.shard import ShardPlan

        # The leader's journal holds every shard it accepted; the local
        # scan's own plan reads and merges it, and leaves it in place.
        plan = ShardPlan(
            detector,
            layout,
            self.layer,
            self.shard_side,
            self._journal_dir(leader, scan_index),
            reuse=True,
        )
        report.shards = len(plan.shards)
        report.completed = len(plan.reused)
        scan = plan.finish(plan.reused, keep_journal=True)
        drill_result = detector.detect(layout, layer=self.layer, scan=scan)
        report.drill_reports = drill_result.report_count

        def _signature(result):
            cores = tuple(
                (clip.core.x0, clip.core.y0, clip.core.x1, clip.core.y1)
                for clip in result.reports
            )
            extraction = result.extraction
            funnel = (
                extraction.anchor_count,
                extraction.rejected_density,
                extraction.rejected_count,
                extraction.rejected_boundary,
                extraction.candidate_count,
                result.flagged_before_feedback,
                result.flagged_after_feedback,
            )
            return cores, funnel, extraction.margins, extraction.verdicts

        left = _signature(reference)
        right = _signature(drill_result)
        report.identical = (
            left[0] == right[0]
            and left[1] == right[1]
            and np.array_equal(left[2], right[2])
            and np.array_equal(left[3], right[3])
        )
        if not report.identical:
            report.error = (
                f"drill output diverged: reports {len(right[0])} vs "
                f"{len(left[0])}, funnel {right[1]} vs {left[1]}"
            )


class ServeFleetDrill(ChaosDrill):
    """Long-running serve drill: predict through churn, answers identical.

    Spawns a ``fleet-frontend`` plus N ``repro serve`` replicas that
    self-register with it, then fires a stream of ``/v1/predict``
    requests while the schedule kills/stops/resumes ``replica-<n>``
    processes (and, if it dares, the ``frontend``).  The invariant is
    the serving version of bit-identity: every answered request returns
    exactly the margins the local detector computes for the same clips,
    no matter which replica happened to serve it or how many died along
    the way.
    """

    #: Transport retries per request before the drill declares an outage.
    REQUEST_ATTEMPTS = 8

    def __init__(
        self,
        model_path: Path,
        layout_path: Path,
        schedule: DrillSchedule,
        replicas: int = 2,
        requests: int = 40,
        layer: int = 1,
        workdir: Optional[Path] = None,
        deadline_s: float = DEFAULT_DEADLINE_S,
    ) -> None:
        super().__init__(
            model_path,
            layout_path,
            schedule,
            layer=layer,
            workers=1,
            standby=False,
            workdir=workdir,
            deadline_s=deadline_s,
        )
        self.replicas = max(1, replicas)
        self.requests = max(1, requests)

    # ------------------------------------------------------------------
    def run(self) -> DrillReport:
        from repro.cli import load_detector, load_layout_auto
        from repro.serve.protocol import encode_clip

        report = DrillReport()
        started = time.perf_counter()
        try:
            detector = load_detector(self.model_path)
            layout = load_layout_auto(self.layout_path)
            result = detector.detect(layout, layer=self.layer)
            report.reference_reports = result.report_count
            clips = list(result.extraction.clips)[:4]
            if not clips:
                raise InputError(
                    "layout yields no clips for the serve drill; use a "
                    "layout with at least one extracted clip"
                )
            payload = {"clips": [encode_clip(clip) for clip in clips]}
            expected = [float(m) for m in detector.margins(clips)]
            self._launch_serve(report)
            self._drive_predicts(report, payload, expected, started)
        except Exception as exc:  # a failed drill is a report, not a crash
            report.error = f"{type(exc).__name__}: {exc}"
            report.identical = False
            _log.error("serve_drill_failed", error=report.error)
        finally:
            self._cleanup()
            report.wall_s = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------
    def _launch_serve(self, report: DrillReport) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        port = self._port()
        frontend_url = f"http://127.0.0.1:{port}"
        self._urls["frontend"] = frontend_url
        self._spawn("frontend", ["fleet-frontend", "--port", str(port)], "frontend")
        for index in range(self.replicas):
            role = f"replica-{index}"
            replica_port = self._port()
            self._urls[role] = f"http://127.0.0.1:{replica_port}"
            self._spawn(
                role,
                [
                    "serve",
                    "--model", str(self.model_path),
                    "--port", str(replica_port),
                    "--frontend", frontend_url,
                ],
                role,
            )
        for index in range(self.replicas):
            role = f"replica-{index}"
            self._wait_healthy(self._urls[role], f"serve replica {role}")
        # The frontend reports healthy once one replica registered; a
        # replica that found it not yet listening registers on a retry
        # (0.1 s, doubling). The schedule may kill the registered one, so
        # wait for all.
        self._wait_healthy(frontend_url, "serve frontend", replicas=self.replicas)
        report.leader = "frontend"

    # ------------------------------------------------------------------
    def _drive_predicts(
        self,
        report: DrillReport,
        payload: dict,
        expected: list,
        started: float,
    ) -> None:
        from repro.fleet.protocol import FleetClient

        pending = list(self.schedule.actions)
        deadline = started + self.deadline_s
        frontend = self._urls["frontend"]
        answered = 0
        attempts_total = 0
        retried = 0
        for number in range(self.requests):
            now = time.perf_counter() - started
            while pending and pending[0].at_s <= now:
                self._execute(pending.pop(0), report, now)
            document = None
            for attempt in range(self.REQUEST_ATTEMPTS):
                if time.perf_counter() > deadline:
                    raise InputError(
                        f"serve drill deadline ({self.deadline_s:.0f}s) "
                        f"expired at request {number}"
                    )
                attempts_total += 1
                if attempt:
                    retried += 1
                try:
                    code, answer = FleetClient(frontend, timeout=10.0).post_json(
                        "/v1/predict", payload
                    )
                except Exception:
                    code, answer = 0, None
                if code == 200 and isinstance(answer, dict):
                    document = answer
                    break
                time.sleep(0.3)
            if document is None:
                report.error = (
                    f"request {number} failed after "
                    f"{self.REQUEST_ATTEMPTS} attempts"
                )
                report.identical = False
                break
            answered += 1
            margins = [float(m) for m in document.get("margins", [])]
            if margins != expected:
                report.error = (
                    f"request {number} diverged from the local reference: "
                    f"{margins} vs {expected}"
                )
                report.identical = False
                break
        else:
            report.identical = True
        report.completed = answered
        report.drill_reports = report.reference_reports
        report.artifacts["serve"] = {
            "requests": self.requests,
            "answered": answered,
            "attempts": attempts_total,
            "retried": retried,
            "replicas": self.replicas,
        }
