"""Command-line interface: the detection flow as a tool.

Eight subcommands cover the practical lifecycle::

    python -m repro generate --benchmark benchmark1 --scale 0.5 --out data/
    python -m repro train    --clips data/training_clips.gds --model model.npz
    python -m repro scan     --model model.npz --layout data/testing_layout.gds \
                             --report reports.gds
    python -m repro score    --model model.npz --benchmark benchmark1 --scale 0.5
    python -m repro info     --model model.npz
    python -m repro explain  --model model.npz --layout layout.gds --x 3279 --y 3719
    python -m repro serve    --model model.npz --port 8976
    python -m repro client   --url http://127.0.0.1:8976 health

``generate`` writes a benchmark pair to GDSII; ``train`` fits the full
framework on a clip archive and persists the model; ``scan`` detects
hotspots in a GDSII layout and writes a marker overlay; ``score`` runs a
self-contained generate+train+scan+grade loop; ``info`` describes a
saved model; ``explain`` walks through the model's decision for one
layout site (gates, margins, features, feedback verdict); ``serve``
runs the long-lived batched HTTP inference service
(:mod:`repro.serve`); ``client`` queries a running server.

The fleet family (:mod:`repro.fleet`, see ``docs/FLEET.md``) spans
multiple nodes: ``fleet-scan`` runs a distributed scan (coordinator
in-process, worker subprocesses it supervises and respawns),
``fleet-worker`` joins a remote coordinator, ``fleet-cache`` serves the
shared remote blob-cache tier, and ``fleet-frontend`` round-robins
``/v1/predict`` across registered serve replicas.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro import obs
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.persist import load_detector, save_detector
from repro.data.benchmarks import BENCHMARKS, ICCAD_SPEC, generate_benchmark
from repro.gdsii import GdsBoundary, GdsLibrary, write_library_file
from repro.layout.io import (
    load_clipset_gds,
    load_layout_auto,
    save_clipset_gds,
    save_layout_gds,
)
from repro.resilience import Deadline, Journal, QuarantineReport, faults


def _add_obs_arguments(parser, manifest_by_default: bool) -> None:
    """The shared observability flags (train/scan/score)."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a Chrome-trace (chrome://tracing) JSON of all pipeline stages",
    )
    group.add_argument(
        "--manifest",
        type=Path,
        default=None,
        metavar="PATH",
        help="run-manifest path"
        + (
            " (default: next to the main artifact)"
            if manifest_by_default
            else " (off unless given)"
        ),
    )
    if manifest_by_default:
        group.add_argument(
            "--no-manifest", action="store_true", help="skip the run manifest"
        )
    group.add_argument(
        "--json-logs",
        action="store_true",
        help="structured JSON logs on stderr",
    )
    group.add_argument("--run-id", default=None, help="override the generated run id")


class _ObsSession:
    """Per-command observability lifecycle: tracer, manifest, logging.

    Installs a recording tracer only when the command will write a
    manifest or a trace (otherwise every ``trace(...)`` call site stays
    on the no-op path), and always restores the process-global tracer
    and logging state on exit — CLI invocations must not leak tracers
    into the embedding process (tests call ``main()`` in-process).

    Artifact notices go to stderr so commands with stdout contracts
    (``score --json`` prints a bare JSON line) stay parseable.
    """

    #: Commands whose manifest is on by default (written next to the
    #: command's main artifact); elsewhere a manifest is opt-in.
    MANIFEST_DEFAULT = ("train", "scan")

    def __init__(self, args, command: str) -> None:
        self.command = command
        self.trace_path: Optional[Path] = getattr(args, "trace", None)
        explicit: Optional[Path] = getattr(args, "manifest", None)
        self.wants_manifest = not getattr(args, "no_manifest", False) and (
            explicit is not None or command in self.MANIFEST_DEFAULT
        )
        self.manifest_path = explicit
        self.tracer: Optional[obs.Tracer] = None
        self.manifest: Optional[obs.RunManifest] = None
        if self.wants_manifest or self.trace_path is not None:
            self.tracer = obs.set_tracer(obs.Tracer())
            self.manifest = obs.RunManifest.new(
                command,
                argv=getattr(args, "_argv", None),
                run_id=getattr(args, "run_id", None),
            )
        if getattr(args, "json_logs", False):
            obs.configure_logging(
                True,
                command=command,
                run_id=self.manifest.run_id if self.manifest else obs.new_run_id(),
            )

    def __enter__(self) -> "_ObsSession":
        return self

    def __exit__(self, *exc) -> bool:
        obs.set_tracer(None)
        obs.configure_logging(False)
        return False

    # ------------------------------------------------------------------
    def set_config(self, config) -> None:
        if self.manifest is not None:
            self.manifest.config = obs.config_summary(config)

    def set_dataset(self, name: str, value) -> None:
        if self.manifest is not None:
            self.manifest.dataset[name] = value

    def record(self, **metrics) -> None:
        if self.manifest is not None:
            self.manifest.record_metrics(**metrics)

    def artifact(self, kind: str, path) -> None:
        if self.manifest is not None:
            self.manifest.record_artifact(kind, path)

    def finish(self, default_manifest: Optional[Path] = None) -> None:
        """Write the trace and manifest artifacts (notices on stderr)."""
        if self.trace_path is not None and self.tracer is not None:
            try:
                self.tracer.write_chrome(self.trace_path)
                print(f"trace -> {self.trace_path}", file=sys.stderr)
            except OSError as exc:
                print(f"warning: could not write trace: {exc}", file=sys.stderr)
        if self.wants_manifest and self.manifest is not None:
            path = self.manifest_path or default_manifest
            if path is None:
                return
            if self.trace_path is not None:
                self.manifest.record_artifact("trace", self.trace_path)
            self.manifest.finish(self.tracer)
            try:
                self.manifest.write(path)
                print(f"manifest -> {path}", file=sys.stderr)
            except OSError as exc:
                print(f"warning: could not write manifest: {exc}", file=sys.stderr)


def _add_generate(subparsers) -> None:
    parser = subparsers.add_parser(
        "generate", help="generate a benchmark pair and write it as GDSII"
    )
    parser.add_argument(
        "--benchmark",
        default="benchmark1",
        choices=[cfg.name for cfg in BENCHMARKS],
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, default=Path("."))


def _add_train(subparsers) -> None:
    parser = subparsers.add_parser(
        "train", help="train the framework on a GDSII clip archive"
    )
    parser.add_argument("--clips", type=Path, required=True)
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument(
        "--variant",
        default="ours",
        choices=("ours", "ours_med", "ours_low", "basic", "topology", "removal"),
    )
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--resume",
        action="store_true",
        help="reuse kernel checkpoints left by an interrupted run",
    )
    group.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="per-kernel checkpoint directory (default: <model>.ckpt)",
    )
    group.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="train without writing kernel checkpoints",
    )
    group.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="training deadline; a timed-out run resumes with --resume",
    )
    _add_obs_arguments(parser, manifest_by_default=True)


def _scan_threshold(text: str) -> float:
    """A scan's decision threshold: a number above ``GATED_OUT``."""
    from repro.core.training import GATED_OUT

    value = float(text)
    if value <= GATED_OUT:
        raise argparse.ArgumentTypeError(
            f"{text} is at or below GATED_OUT ({GATED_OUT:g}); "
            "gated-out candidates have no feedback verdict"
        )
    return value


def _add_scan(subparsers) -> None:
    parser = subparsers.add_parser(
        "scan", help="scan a GDSII layout with a trained model"
    )
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument("--layout", type=Path, required=True)
    parser.add_argument("--layer", type=int, default=1)
    parser.add_argument("--threshold", type=_scan_threshold, default=None)
    parser.add_argument(
        "--report", type=Path, default=None, help="write reports as a GDSII overlay"
    )
    parser.add_argument(
        "--quarantine",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a JSON report of inputs quarantined during the scan",
    )
    group = parser.add_argument_group("execution")
    group.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="evaluate the shards on N crash-isolated worker processes, "
        "journaled by default (default: in this process)",
    )
    group.add_argument(
        "--shard-side",
        type=int,
        default=None,
        metavar="DBU",
        help="shard cell edge (default 4x clip side)",
    )
    group.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="shard journal directory (default: <layout>.scanjournal)",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="reuse journaled shards whose influence-region geometry is "
        "unchanged (an interrupted run's, even on an edited layout)",
    )
    group.add_argument(
        "--no-journal",
        action="store_true",
        help="scan without writing a shard journal",
    )
    cache = parser.add_argument_group("caching")
    cache.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="on-disk content-addressed feature/margin cache; a warm "
        "rescan skips extraction and SVM work for unchanged geometry",
    )
    cache.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the in-process feature/margin cache",
    )
    cache.add_argument(
        "--incremental",
        action="store_true",
        help="--resume, and keep the journal after success so the next "
        "incremental scan re-evaluates only edited regions",
    )
    _add_obs_arguments(parser, manifest_by_default=True)


def _add_score(subparsers) -> None:
    parser = subparsers.add_parser(
        "score", help="end-to-end generate/train/scan/grade on a benchmark"
    )
    parser.add_argument(
        "--benchmark",
        default="benchmark1",
        choices=[cfg.name for cfg in BENCHMARKS],
    )
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument(
        "--variant",
        default="ours",
        choices=("ours", "ours_med", "ours_low", "basic", "topology", "removal"),
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    _add_obs_arguments(parser, manifest_by_default=False)


def _add_report(subparsers) -> None:
    parser = subparsers.add_parser(
        "report", help="render or compare run manifests"
    )
    parser.add_argument("manifest", type=Path, help="a RunManifest JSON file")
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="OTHER",
        help="second manifest; prints stage/metric deltas",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _add_info(subparsers) -> None:
    parser = subparsers.add_parser("info", help="describe a saved model")
    parser.add_argument("--model", type=Path, required=True)


def _add_explain(subparsers) -> None:
    parser = subparsers.add_parser(
        "explain", help="explain the model's decision for one layout site"
    )
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument("--layout", type=Path, required=True)
    parser.add_argument("--x", type=int, required=True, help="core anchor x (DBU)")
    parser.add_argument("--y", type=int, required=True, help="core anchor y (DBU)")
    parser.add_argument("--layer", type=int, default=1)


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve", help="run the batched HTTP inference service"
    )
    parser.add_argument(
        "--model",
        action="append",
        required=True,
        metavar="[NAME=]PATH",
        help="detector archive to serve; repeatable for multiple versions",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8976, help="0 = ephemeral")
    parser.add_argument(
        "--batch-clips", type=int, default=64, help="flush a batch at this many clips"
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        help="max milliseconds a request waits for batch-mates",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=1024, help="max queued clips (backpressure)"
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--request-timeout", type=float, default=30.0, help="seconds; per request"
    )
    parser.add_argument("--verbose", action="store_true", help="log every request")
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist the feature/margin cache on disk (shared across "
        "restarts and with repro scan --cache-dir)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the cross-request feature/margin cache",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record pipeline spans and expose per-stage histograms on /metrics",
    )
    parser.add_argument(
        "--frontend",
        default=None,
        metavar="URL",
        help="self-register with this fleet-frontend and heartbeat at "
        "TTL/3 (re-registers after a frontend restart)",
    )
    parser.add_argument(
        "--json-logs", action="store_true", help="structured JSON logs on stderr"
    )


def _add_client(subparsers) -> None:
    parser = subparsers.add_parser(
        "client", help="query a running inference server"
    )
    parser.add_argument("--url", required=True, help="e.g. http://127.0.0.1:8976")
    parser.add_argument(
        "action", choices=("health", "metrics", "models", "predict", "scan")
    )
    parser.add_argument(
        "--clips", type=Path, default=None, help="GDSII clip archive (predict)"
    )
    parser.add_argument(
        "--layout", type=Path, default=None, help="GDSII/OASIS layout (scan)"
    )
    parser.add_argument("--layer", type=int, default=1)
    parser.add_argument("--model-name", default=None, help="served model version")
    parser.add_argument("--threshold", type=float, default=None)
    parser.add_argument(
        "--limit", type=int, default=None, help="send at most this many clips"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _add_fleet_scan(subparsers) -> None:
    parser = subparsers.add_parser(
        "fleet-scan",
        help="distributed scan: in-process coordinator + supervised "
        "worker subprocesses (bit-identical to a local scan)",
    )
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument("--layout", type=Path, required=True)
    parser.add_argument("--layer", type=int, default=1)
    parser.add_argument("--threshold", type=_scan_threshold, default=None)
    parser.add_argument(
        "--report", type=Path, default=None, help="write reports as a GDSII overlay"
    )
    parser.add_argument(
        "--quarantine",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a JSON report of inputs quarantined during the scan",
    )
    fleet = parser.add_argument_group("fleet")
    fleet.add_argument(
        "--fleet-workers",
        type=int,
        default=3,
        metavar="N",
        help="worker subprocesses to spawn and supervise",
    )
    fleet.add_argument(
        "--lease-ttl",
        type=float,
        default=5.0,
        metavar="S",
        help="seconds a shard lease survives without a heartbeat",
    )
    fleet.add_argument(
        "--worker-restarts",
        type=int,
        default=None,
        metavar="N",
        help="total worker respawn budget (default: 3x worker count)",
    )
    fleet.add_argument("--host", default="127.0.0.1")
    fleet.add_argument(
        "--port", type=int, default=0, help="coordinator port (0 = ephemeral)"
    )
    fleet.add_argument(
        "--standby",
        action="store_true",
        help="supervise a warm-standby coordinator; workers get both "
        "endpoints and re-home if the primary dies",
    )
    fleet.add_argument(
        "--probe-interval",
        type=float,
        default=0.5,
        metavar="S",
        help="standby health-probe period (promotes after 2 misses)",
    )
    fleet.add_argument(
        "--cache-url",
        action="append",
        default=None,
        metavar="URL",
        help="remote cache node (repeatable); workers share it as a "
        "warm feature/margin tier",
    )
    group = parser.add_argument_group("journal")
    group.add_argument(
        "--shard-side",
        type=int,
        default=None,
        metavar="DBU",
        help="shard cell edge (default 4x clip side; must match any "
        "journal being resumed)",
    )
    group.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="shard journal directory (default: <layout>.scanjournal)",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="reuse shards journaled by an interrupted fleet (or local "
        "journaled) scan whose influence-region geometry is unchanged",
    )
    group.add_argument(
        "--no-journal", action="store_true", help="scan without a shard journal"
    )
    group.add_argument(
        "--keep-journal",
        action="store_true",
        help="keep the journal after a successful scan",
    )
    _add_obs_arguments(parser, manifest_by_default=False)


def _add_fleet_status(subparsers) -> None:
    parser = subparsers.add_parser(
        "fleet-status",
        help="live status plane of a running fleet-scan coordinator",
    )
    parser.add_argument("--url", required=True, help="coordinator URL")
    parser.add_argument(
        "--json",
        action="store_true",
        help="print one status document as JSON on stdout",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="refresh until the scan reports done",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="refresh period with --watch",
    )


def _add_fleet_worker(subparsers) -> None:
    parser = subparsers.add_parser(
        "fleet-worker", help="join a fleet coordinator as a scan worker"
    )
    parser.add_argument(
        "--url",
        required=True,
        help="ordered, comma-separated coordinator URLs (primary first, "
        "then standbys); the worker re-homes down the list on failure",
    )
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument("--layout", type=Path, required=True)
    parser.add_argument(
        "--worker-id", default=None, help="stable worker name (default: host-pid)"
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="local disk cache tier in front of any fleet remote tier",
    )
    parser.add_argument(
        "--json-logs", action="store_true", help="structured JSON logs on stderr"
    )


def _add_fleet_coordinator(subparsers) -> None:
    parser = subparsers.add_parser(
        "fleet-coordinator",
        help="standalone fleet coordinator (primary or warm standby); "
        "serves leases until done and leaves the journal for merging",
    )
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument("--layout", type=Path, required=True)
    parser.add_argument("--layer", type=int, default=1)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=5.0,
        metavar="S",
        help="seconds a shard lease survives without a heartbeat",
    )
    parser.add_argument(
        "--shard-side", type=int, default=None, metavar="DBU"
    )
    parser.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="shard journal directory (kept on exit for external merge)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip shards already journaled in --journal-dir",
    )
    parser.add_argument(
        "--cache-url",
        action="append",
        default=None,
        metavar="URL",
        help="remote cache node workers should use (repeatable); "
        "piggybacked on every lease answer, so late joins via "
        "POST /fleet/v1/cache-join propagate mid-scan",
    )
    standby = parser.add_argument_group("standby")
    standby.add_argument(
        "--standby-of",
        default=None,
        metavar="URL",
        help="run as a warm standby tailing this primary's replicate "
        "feed; promotes under epoch+1 when probes go unanswered",
    )
    standby.add_argument(
        "--probe-interval",
        type=float,
        default=0.5,
        metavar="S",
        help="replication/health-probe period as a standby",
    )
    standby.add_argument(
        "--max-missed-probes",
        type=int,
        default=2,
        metavar="N",
        help="consecutive missed probes before promotion",
    )
    parser.add_argument(
        "--linger",
        type=float,
        default=3.0,
        metavar="S",
        help="keep serving this long after the scan completes",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the merged chrome trace (own spans + worker-shipped)",
    )
    parser.add_argument(
        "--json-logs", action="store_true", help="structured JSON logs on stderr"
    )


def _add_chaos(subparsers) -> None:
    parser = subparsers.add_parser(
        "chaos",
        help="run a seeded fleet chaos drill and assert bit-identical "
        "output against a quiet single-node scan",
    )
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument("--layout", type=Path, required=True)
    parser.add_argument("--layer", type=int, default=1)
    parser.add_argument(
        "--schedule",
        required=True,
        metavar="SPEC",
        help="drill schedule DSL ('seed N; at T verb target [arg]'), or "
        "@FILE to read it from a file",
    )
    parser.add_argument(
        "--fleet-workers", type=int, default=2, metavar="N"
    )
    parser.add_argument(
        "--no-standby",
        action="store_true",
        help="drill without a warm standby (coordinator death then hangs "
        "the fleet — useful for testing the deadline path)",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=2.0, metavar="S"
    )
    parser.add_argument(
        "--probe-interval", type=float, default=0.3, metavar="S"
    )
    parser.add_argument(
        "--shard-side", type=int, default=None, metavar="DBU"
    )
    parser.add_argument(
        "--workdir",
        type=Path,
        default=None,
        metavar="DIR",
        help="journals, role logs and traces land here (default: next "
        "to the layout)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="trace the drill; each coordinator writes a merged timeline",
    )
    parser.add_argument(
        "--expect-promotion",
        action="store_true",
        help="fail unless the standby actually promoted",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=240.0,
        metavar="S",
        help="abort the drill after this many seconds",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the drill report (timeline + verdict) as JSON",
    )
    cache = parser.add_argument_group("cache tier")
    cache.add_argument(
        "--cache-nodes",
        type=int,
        default=0,
        metavar="N",
        help="spawn N remote cache nodes (RF=2 tier) the fleet scans "
        "through; schedule targets cache-0..cache-N",
    )
    cache.add_argument(
        "--scans",
        type=int,
        default=1,
        metavar="N",
        help="run the fleet scan N times against the surviving cache "
        "tier; scan 2+ measures the warm-rescan remote hit rate",
    )
    serve = parser.add_argument_group("serve fleet")
    serve.add_argument(
        "--serve-replicas",
        type=int,
        default=0,
        metavar="N",
        help="drill a serve fleet instead of a scan: a fleet-frontend "
        "over N serve replicas; schedule targets replica-0..replica-N "
        "and frontend",
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=40,
        metavar="N",
        help="predict requests the serve drill fires (with --serve-replicas)",
    )


def _add_fleet_cache(subparsers) -> None:
    parser = subparsers.add_parser(
        "fleet-cache", help="serve a shared remote blob-cache node"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="back the node with an on-disk store (default: in-memory LRU)",
    )
    parser.add_argument(
        "--max-entries",
        type=int,
        default=65536,
        help="in-memory store capacity (ignored with --dir)",
    )
    parser.add_argument(
        "--join",
        default=None,
        metavar="URLS",
        help="comma-separated coordinator URLs to announce this node to "
        "(POST /fleet/v1/cache-join); workers pick the new ring up on "
        "their next lease answer",
    )
    parser.add_argument(
        "--advertise",
        default=None,
        metavar="URL",
        help="URL to announce with --join (default: the bound address)",
    )


def _add_fleet_frontend(subparsers) -> None:
    parser = subparsers.add_parser(
        "fleet-frontend",
        help="round-robin /v1/predict across registered serve replicas",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    parser.add_argument(
        "--replica",
        action="append",
        default=None,
        metavar="URL",
        help="pre-register a serve replica (repeatable); replicas can "
        "also self-register via POST /fleet/v1/register",
    )
    parser.add_argument(
        "--member-ttl",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds a member stays routable without a heartbeat",
    )


def _config_for(variant: str) -> DetectorConfig:
    return {
        "ours": DetectorConfig.ours,
        "ours_med": DetectorConfig.ours_med,
        "ours_low": DetectorConfig.ours_low,
        "basic": DetectorConfig.basic,
        "topology": DetectorConfig.with_topology,
        "removal": DetectorConfig.with_removal,
    }[variant]()


def _write_reports(args, session, result, quarantine) -> None:
    """What ``scan`` and ``fleet-scan`` both emit for a finished scan:
    the ``--quarantine`` report, one ``  core`` line per hotspot on
    stdout and the ``--report`` GDS marker overlay."""
    if args.quarantine is not None:
        quarantine.write(args.quarantine)
        session.artifact("quarantine", args.quarantine)
        print(f"quarantine report -> {args.quarantine}", file=sys.stderr)
    for clip in result.reports:
        print(f"  core ({clip.core.x0}, {clip.core.y0}) - ({clip.core.x1}, {clip.core.y1})")
    if args.report is not None:
        library = GdsLibrary(name="HOTSPOTS")
        top = library.new_structure("HOTSPOT_MARKERS")
        for clip in result.reports:
            top.add(GdsBoundary(63, 0, list(clip.core.corners())))
        write_library_file(library, args.report)
        session.artifact("report", args.report)
        print(f"marker overlay -> {args.report}")


def _write_fleet_trace(path: Path, tracer, role: str, coordinator) -> bool:
    """One coordinator-rooted Chrome trace: this process's spans plus
    every span document the workers shipped.  True once written."""
    documents = [obs.span_document(tracer, role, coordinator.request_id)]
    documents.extend(coordinator.trace_documents())
    try:
        path.write_text(json.dumps(obs.merge_chrome_traces(documents)))
    except OSError as exc:
        print(f"warning: could not write trace: {exc}", file=sys.stderr)
        return False
    print(f"fleet trace -> {path}", file=sys.stderr)
    return True


def cmd_generate(args) -> int:
    bench = generate_benchmark(args.benchmark, args.scale)
    args.out.mkdir(parents=True, exist_ok=True)
    clips_path = args.out / f"{args.benchmark}_training_clips.gds"
    layout_path = args.out / f"{args.benchmark}_testing_layout.gds"
    truth_path = args.out / f"{args.benchmark}_truth.json"
    save_clipset_gds(bench.training, clips_path)
    save_layout_gds(bench.testing.layout, layout_path)
    truth = {
        "area_um2": bench.testing.area_um2,
        "hotspot_cores": [
            [c.x0, c.y0, c.x1, c.y1] for c in bench.testing.hotspot_cores()
        ],
    }
    truth_path.write_text(json.dumps(truth))
    stats = bench.stats()
    print(
        f"wrote {clips_path} ({stats['train_hs']} hs / {stats['train_nhs']} nhs), "
        f"{layout_path} ({stats['test_hs']} planted hotspots), {truth_path}"
    )
    return 0


def cmd_train(args) -> int:
    with _ObsSession(args, "train") as session:
        training = load_clipset_gds(args.clips, ICCAD_SPEC)
        detector = HotspotDetector(_config_for(args.variant))
        session.set_config(detector.config)
        session.set_dataset("training_clips", obs.fingerprint_clipset(training))
        session.set_dataset("source", str(args.clips))
        checkpoint = None
        if not args.no_checkpoint:
            checkpoint = Journal(args.checkpoint_dir or args.model.with_suffix(".ckpt"))
        started = time.perf_counter()
        report = detector.fit(
            training,
            checkpoint=checkpoint,
            deadline=Deadline.after(args.max_seconds),
            resume=args.resume,
        )
        save_detector(detector, args.model, name=args.model.stem)
        if checkpoint is not None:
            # The model archive now holds every kernel; the per-kernel
            # checkpoints have served their purpose.
            checkpoint.clear()
        session.record(
            kernels=report.kernels,
            hotspot_clusters=report.hotspot_clusters,
            nonhotspot_centroids=report.nonhotspot_centroids,
            upsampled_hotspots=report.upsampled_hotspots,
            feedback_trained=report.feedback_trained,
            resumed_kernels=report.resumed_kernels,
            train_seconds=round(report.train_seconds, 4),
        )
        session.artifact("model", args.model)
        resumed = report.resumed_kernels
        resumed_note = f", {resumed} resumed" if resumed else ""
        print(
            f"trained {report.kernels} kernels "
            f"(feedback={report.feedback_trained}{resumed_note}) in "
            f"{time.perf_counter() - started:.1f}s -> {args.model}"
        )
        session.finish(
            default_manifest=args.model.with_suffix(".manifest.json")
        )
    return 0


def cmd_scan(args) -> int:
    import signal
    import threading

    from repro.errors import ScanDrainedError
    from repro.work import ScanOptions

    with _ObsSession(args, "scan") as session:
        detector = load_detector(args.model)
        layout = load_layout_auto(args.layout)
        if not args.no_cache:
            from repro.cache import HotspotCache

            detector.attach_cache(HotspotCache(directory=args.cache_dir))
        if args.incremental and args.no_journal:
            print(
                "--incremental needs the shard journal; drop --no-journal",
                file=sys.stderr,
            )
            return 2
        session.set_config(detector.config)
        session.set_dataset("layout", obs.fingerprint_layout(layout.layer(args.layer)))
        session.set_dataset("source", str(args.layout))
        quarantine = QuarantineReport()

        # A pool scan journals by default; an in-process one when asked to.
        journaled = not args.no_journal and bool(
            args.workers or args.journal_dir or args.resume or args.incremental
        )
        stop_event = threading.Event()
        work = ScanOptions(
            workers=args.workers or 0,
            shard_side=args.shard_side,
            journal_dir=(
                args.journal_dir or args.layout.with_suffix(".scanjournal")
                if journaled
                else None
            ),
            resume=args.resume,
            stop_event=stop_event,
            incremental=args.incremental,
        )

        def _drain(signum, frame):
            print(
                f"signal {signum}: draining scan "
                "(finished shards stay journaled; rerun with --resume)",
                file=sys.stderr,
            )
            stop_event.set()

        try:
            previous_sigterm = signal.signal(signal.SIGTERM, _drain)
        except ValueError:
            previous_sigterm = None  # not the main thread (tests)
        try:
            result = detector.detect(
                layout,
                layer=args.layer,
                threshold=args.threshold,
                quarantine=quarantine,
                work=work,
            )
        except ScanDrainedError as exc:
            print(f"scan drained: {exc}", file=sys.stderr)
            session.record(
                drained=True, backend="process" if work.workers else "serial"
            )
            session.finish(
                default_manifest=args.model.with_suffix(".scan.manifest.json")
            )
            return 3
        finally:
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
        session.record(
            candidates=result.extraction.candidate_count,
            reports=result.report_count,
            flagged_before_feedback=result.flagged_before_feedback,
            flagged_after_feedback=result.flagged_after_feedback,
            quarantined=result.quarantined,
            feedback_degraded=result.feedback_degraded,
            eval_seconds=round(result.eval_seconds, 4),
            backend=result.backend,
            workers=work.workers,
            shards_total=result.shards_total,
            shards_resumed=result.shards_resumed,
            shards_reused=result.shards_reused,
            worker_restarts=result.worker_restarts,
            poison_tasks=result.poison_tasks,
        )
        if result.cache_stats is not None:
            session.record(
                **{f"cache_{key}": value for key, value in result.cache_stats.items()}
            )
        quarantine_note = (
            f", {result.quarantined} quarantined" if result.quarantined else ""
        )
        print(
            f"{result.extraction.candidate_count} candidates, "
            f"{result.report_count} hotspot reports{quarantine_note} "
            f"({result.eval_seconds:.1f}s)"
        )
        print(
            f"{result.backend} scan: {result.shards_total} shards "
            f"({result.shards_resumed} resumed, "
            f"{result.shards_reused} reused), "
            f"{result.worker_restarts} worker restarts, "
            f"{result.poison_tasks} poison tasks",
            file=sys.stderr,
        )
        _write_reports(args, session, result, quarantine)
        default = (
            args.report.with_suffix(".manifest.json")
            if args.report is not None
            else args.model.with_suffix(".scan.manifest.json")
        )
        session.finish(default_manifest=default)
    return 0


def cmd_score(args) -> int:
    with _ObsSession(args, "score") as session:
        bench = generate_benchmark(args.benchmark, args.scale)
        detector = HotspotDetector(_config_for(args.variant))
        session.set_config(detector.config)
        session.set_dataset("training_clips", obs.fingerprint_clipset(bench.training))
        session.set_dataset("benchmark", args.benchmark)
        session.set_dataset("scale", args.scale)
        detector.fit(bench.training)
        result = detector.score(bench.testing)
        score = result.score
        session.record(
            hits=score.hits,
            actual=score.actual_hotspots,
            extras=score.extras,
            accuracy=score.accuracy,
            eval_seconds=round(result.eval_seconds, 4),
        )
        if args.json:
            print(
                json.dumps(
                    {
                        "benchmark": args.benchmark,
                        "variant": args.variant,
                        "hits": score.hits,
                        "actual": score.actual_hotspots,
                        "extras": score.extras,
                        "accuracy": score.accuracy,
                    }
                )
            )
        else:
            print(
                f"{args.benchmark} [{args.variant}]: "
                f"{score.hits}/{score.actual_hotspots} hits, "
                f"{score.extras} extras, accuracy {score.accuracy:.2%}"
            )
        session.finish()
    return 0


def cmd_report(args) -> int:
    try:
        manifest = obs.RunManifest.load(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"cannot read manifest {args.manifest}: {exc}", file=sys.stderr)
        return 2
    if args.compare is not None:
        try:
            other = obs.RunManifest.load(args.compare)
        except (OSError, ValueError) as exc:
            print(f"cannot read manifest {args.compare}: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps({"base": manifest.to_dict(), "other": other.to_dict()}))
        else:
            print(obs.compare_manifests(manifest, other))
        return 0
    if args.json:
        print(json.dumps(manifest.to_dict()))
    else:
        print(obs.render_manifest(manifest))
    return 0


def cmd_info(args) -> int:
    detector = load_detector(args.model)
    model = detector.model_
    assert model is not None
    print(f"model: {args.model}")
    print(f"  clip spec: core {detector.config.spec.core_side}, clip {detector.config.spec.clip_side}")
    print(f"  kernels: {len(model.kernels)}")
    for kernel in model.kernels:
        gate = len(kernel.key_set) if kernel.key_set is not None else "open"
        print(
            f"    #{kernel.cluster_index}: {kernel.hotspot_count} hs / "
            f"{kernel.nonhotspot_count} nhs, {kernel.model.n_support_} SVs, "
            f"gate keys: {gate}"
        )
    print(f"  feedback kernel: {'yes' if detector.feedback_ else 'no'}")
    print(f"  decision threshold: {detector.config.decision_threshold:+.2f}")
    from repro.core.persist import read_archive_info

    registry = read_archive_info(args.model).get("registry")
    if registry and registry.get("name"):
        print(f"  registry name: {registry['name']}")
    return 0


def cmd_explain(args) -> int:
    from repro.core.inspect import explain_clip
    from repro.geometry.rect import Rect

    detector = load_detector(args.model)
    layout = load_layout_auto(args.layout)
    spec = detector.config.spec
    core = Rect(args.x, args.y, args.x + spec.core_side, args.y + spec.core_side)
    clip = layout.cut_clip_at_core(spec, core, args.layer)
    explanation = explain_clip(detector, clip)
    print(f"site ({args.x}, {args.y}) + {spec.core_side} core:")
    for line in explanation.summary_lines():
        print(f"  {line}")
    return 0


def cmd_serve(args) -> int:
    from repro.serve import (
        BatchingConfig,
        HotspotServer,
        ServeService,
        ServerConfig,
    )

    cache = None
    if not args.no_cache:
        from repro.cache import HotspotCache

        cache = HotspotCache(directory=args.cache_dir)
    service = ServeService(
        batching=BatchingConfig(
            max_batch_clips=args.batch_clips,
            max_delay_s=args.batch_window_ms / 1000.0,
            max_queue_clips=args.queue_limit,
            workers=args.workers,
            default_timeout_s=args.request_timeout,
        ),
        cache=cache,
    )
    if args.trace:
        # Spans bridge into the service registry, so /metrics exposes
        # repro_pipeline_stage_seconds{stage=...} histograms per stage.
        obs.set_tracer(obs.Tracer(metrics=service.metrics, max_spans=10_000))
    if args.json_logs:
        obs.configure_logging(True, command="serve", run_id=obs.new_run_id())
    for index, spec in enumerate(args.model):
        name, sep, path = spec.partition("=")
        if sep:
            entry = service.load_model(Path(path), name)
        else:
            entry = service.load_model(Path(spec), "default" if index == 0 else None)
        print(
            f"loaded model {entry.name!r} from {entry.path} "
            f"({entry.info['kernels']} kernels, "
            f"feedback={entry.info['feedback']})"
        )

    server = HotspotServer(
        service,
        ServerConfig(host=args.host, port=args.port),
        verbose=args.verbose,
    ).start()
    registration = None
    if args.frontend:
        registration = _register_with_frontend(args.frontend, server, service)
        print(f"registering with frontend {args.frontend}")
    try:
        # stop() drains the queue, so every in-flight request is answered.
        return _serve_forever(
            server, f"serving on {server.url} (Ctrl-C or SIGTERM drains and stops)"
        )
    finally:
        if registration is not None:
            registration.set()
        obs.set_tracer(None)
        obs.configure_logging(False)


def _register_with_frontend(frontend_url: str, server, service):
    """Self-register this replica with a FleetFrontend, and keep it so.

    Registers on startup and heartbeats at TTL/3; a heartbeat answered
    404 means the frontend restarted and forgot this replica, so it
    simply re-registers — the rotation heals without operator action.
    While unregistered (a frontend not listening yet, or gone) it retries
    after 0.1 s, doubling up to TTL/3, so a replica started beside its
    frontend joins the rotation as soon as the frontend listens.
    Returns the Event that stops the loop.
    """
    import threading

    from repro.errors import TransientError
    from repro.fleet import FleetClient

    client = FleetClient(frontend_url, timeout=5.0)
    name = f"replica-{server.url}"
    stop = threading.Event()
    state = {"ttl_s": 10.0, "registered": False}

    def _version() -> str:
        try:
            return str(service.registry.signature())
        except Exception:
            return ""

    def _register() -> None:
        try:
            code, answer = client.post_json(
                "/fleet/v1/register",
                {
                    "name": name,
                    "url": server.url,
                    "kind": "serve",
                    "version": _version(),
                },
            )
        except TransientError:
            state["registered"] = False
            return
        state["registered"] = code == 200
        if code == 200:
            state["ttl_s"] = float(answer.get("ttl_s", state["ttl_s"]))

    def _loop() -> None:
        _register()
        retry_s = 0.1
        while True:
            if state["registered"]:
                retry_s = 0.1
                wait_s = max(0.5, state["ttl_s"] / 3)
            else:
                wait_s = retry_s
                retry_s = min(2 * retry_s, state["ttl_s"] / 3)
            if stop.wait(wait_s):
                return
            if not state["registered"]:
                _register()
                continue
            try:
                code, _ = client.post_json(
                    "/fleet/v1/heartbeat",
                    {"name": name, "version": _version()},
                )
            except TransientError:
                continue  # frontend blip; next beat retries
            if code == 404:
                _register()

    threading.Thread(
        target=_loop, name="repro-serve-register", daemon=True
    ).start()
    return stop


def cmd_fleet_scan(args) -> int:
    import subprocess

    from repro.errors import ScanDrainedError
    from repro.fleet import FleetCoordinator, FleetOptions
    from repro.fleet.launch import RoleLauncher, free_port, spawn

    with _ObsSession(args, "fleet-scan") as session:
        detector = load_detector(args.model)
        layout = load_layout_auto(args.layout)
        journal_dir = (
            None
            if args.no_journal
            else args.journal_dir or args.layout.with_suffix(".scanjournal")
        )
        options = FleetOptions(
            host=args.host,
            port=args.port,
            lease_ttl_s=args.lease_ttl,
            shard_side=args.shard_side,
            journal_dir=journal_dir,
            resume=args.resume,
            keep_journal=args.keep_journal,
            cache_urls=list(args.cache_url or []),
            # The manifest run id doubles as the fleet's root request
            # id: every worker RPC, log line and shipped span carries it.
            request_id=(
                session.manifest.run_id
                if session.manifest is not None
                else obs.new_request_id()
            ),
            trace=args.trace is not None,
        )
        session.set_config(detector.config)
        session.set_dataset("layout", obs.fingerprint_layout(layout.layer(args.layer)))
        session.set_dataset("source", str(args.layout))

        coordinator = FleetCoordinator(
            detector, layout, layer=args.layer, options=options
        )
        coordinator.start()
        print(
            f"coordinator on {coordinator.url}: "
            f"{len(coordinator.shards)} shards "
            f"({len(coordinator.plan.reused)} resumed), "
            f"epoch {coordinator.epoch}",
            file=sys.stderr,
        )

        launcher = RoleLauncher(
            args.model, args.layout, args.layer, args.lease_ttl,
            args.shard_side, list(args.cache_url or []), args.host,
        )
        # Warm standby: a fleet-coordinator subprocess tailing this
        # coordinator's replicate feed on a pre-allocated port, so every
        # worker's endpoint list stays valid across standby respawns.
        endpoints = [coordinator.url]
        standby = None
        if args.standby:
            standby_port = free_port(set())
            endpoints.append(f"http://{args.host}:{standby_port}")
            standby_journal = (
                None
                if journal_dir is None
                else journal_dir.with_name(journal_dir.name + "-standby")
            )
            standby_args = launcher.coordinator(
                standby_port,
                standby_journal,
                standby_of=coordinator.url,
                probe_interval_s=args.probe_interval,
            )
            standby = spawn(standby_args)
            print(
                f"standby coordinator on {endpoints[1]} "
                f"(probe every {args.probe_interval}s)",
                file=sys.stderr,
            )

        def spawn_worker(index: int) -> subprocess.Popen:
            return spawn(launcher.worker(endpoints, f"worker-{index}"))

        budget = (
            args.worker_restarts
            if args.worker_restarts is not None
            else 3 * args.fleet_workers
        )
        workers = {i: spawn_worker(i) for i in range(args.fleet_workers)}
        restarts = 0
        started = time.perf_counter()
        try:
            while not coordinator.wait(timeout=0.2):
                if standby is not None and standby.poll() is not None:
                    # The standby shares the worker respawn budget: a
                    # crash-looping standby drains it instead of
                    # flapping forever.
                    code = standby.poll()
                    standby = None
                    if restarts < budget:
                        restarts += 1
                        print(
                            f"standby died (exit {code}); "
                            f"respawning ({restarts}/{budget})",
                            file=sys.stderr,
                        )
                        standby = spawn(standby_args)
                for index, proc in list(workers.items()):
                    code = proc.poll()
                    if code is None or code == 0:
                        continue
                    # A dead worker's lease expires on its own; respawn
                    # within budget so throughput recovers.
                    del workers[index]
                    if restarts < budget:
                        restarts += 1
                        print(
                            f"worker-{index} died (exit {code}); "
                            f"respawning ({restarts}/{budget})",
                            file=sys.stderr,
                        )
                        workers[index] = spawn_worker(index)
                if not workers and not coordinator.wait(timeout=0):
                    status = coordinator.status()
                    print(
                        f"fleet drained: every worker is gone and the "
                        f"respawn budget ({budget}) is spent; "
                        f"{status['completed']}/{status['shards']} shards "
                        "journaled — rerun with --resume to finish",
                        file=sys.stderr,
                    )
                    session.record(drained=True, worker_restarts=restarts)
                    session.finish()
                    return 3
            for proc in workers.values():
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.terminate()
            quarantine = QuarantineReport()
            try:
                scan = coordinator.result(quarantine)
            except ScanDrainedError as exc:  # pragma: no cover — raced stop
                print(f"fleet scan drained: {exc}", file=sys.stderr)
                return 3
            result = detector.detect(
                layout, layer=args.layer, threshold=args.threshold, scan=scan
            )
        finally:
            status = coordinator.status()
            coordinator.stop()
            if standby is not None and standby.poll() is None:
                standby.terminate()
            for proc in workers.values():
                if proc.poll() is None:
                    proc.terminate()
        if args.trace is not None and session.tracer is not None:
            if _write_fleet_trace(
                args.trace, session.tracer, "coordinator", coordinator
            ):
                session.artifact("trace", args.trace)
            # finish() must not overwrite the merged trace with the
            # coordinator-only view.
            session.trace_path = None
        cache_nodes = {}
        for url in options.cache_urls:
            from repro.fleet import FleetClient

            try:
                code, document = FleetClient(url, timeout=5.0).get_json(
                    "/cache/v1/stats"
                )
            except Exception:
                continue
            if code == 200:
                cache_nodes[url] = document
        session.record(
            candidates=result.extraction.candidate_count,
            reports=result.report_count,
            quarantined=result.quarantined,
            eval_seconds=round(result.eval_seconds, 4),
            backend=result.backend,
            fleet_workers=args.fleet_workers,
            fleet_standby=bool(args.standby),
            fleet_epoch=status.get("epoch", 1),
            worker_restarts=restarts,
            shards_total=status["shards"],
            shards_resumed=status["resumed"],
            leases_expired=status["leases_expired"],
            pushes_stale=status["pushes_stale"],
            pushes_rejected=status["pushes_rejected"],
            lease_reassignments=sum(status["reassigned_shards"].values()),
            fleet_request_id=options.request_id,
            fleet_cache=status.get("cache", {}),
            cache_nodes=cache_nodes,
        )
        quarantine_note = (
            f", {result.quarantined} quarantined" if result.quarantined else ""
        )
        print(
            f"{result.extraction.candidate_count} candidates, "
            f"{result.report_count} hotspot reports{quarantine_note} "
            f"({time.perf_counter() - started:.1f}s across "
            f"{args.fleet_workers} workers)"
        )
        print(
            f"fleet: {status['shards']} shards ({status['resumed']} resumed), "
            f"{status['leases_expired']} leases expired, "
            f"{status['pushes_stale']} stale pushes, "
            f"{restarts} worker restarts",
            file=sys.stderr,
        )
        _write_reports(args, session, result, quarantine)
        session.finish(
            default_manifest=args.model.with_suffix(".fleet.manifest.json")
        )
    return 0


def _render_fleet_status(status: dict, url: str) -> None:
    """Human rendering of one /fleet/v1/status document."""
    state = "done" if status.get("done") else "running"
    request_id = status.get("request_id") or "?"
    role = status.get("role", "primary")
    epoch = status.get("epoch", "?")
    print(
        f"fleet {url} [{state}]  {role} epoch {epoch}  request {request_id}"
    )
    eta = status.get("eta_s")
    line = (
        f"  shards {status.get('completed', 0)}/{status.get('shards', 0)} "
        f"({status.get('leased', 0)} leased, {status.get('pending', 0)} "
        f"pending, {status.get('resumed', 0)} resumed)  "
        f"{status.get('throughput_shards_per_s', 0.0):.2f} shards/s"
    )
    if eta is not None:
        line += f"  eta {eta:.0f}s"
    print(line)
    print(
        f"  leases: {status.get('leases_granted', 0)} granted, "
        f"{status.get('leases_expired', 0)} expired; pushes: "
        f"{status.get('pushes_accepted', 0)} ok, "
        f"{status.get('pushes_stale', 0)} stale, "
        f"{status.get('pushes_rejected', 0)} rejected"
    )
    durations = status.get("durations") or {}
    if durations.get("count"):
        print(
            f"  shard wall: p50 {durations['p50']:.3f}s  "
            f"p95 {durations['p95']:.3f}s  mean {durations['mean']:.3f}s"
        )
    cache = status.get("cache") or {}
    if cache.get("remote_hits") or cache.get("remote_misses"):
        line = (
            f"  remote cache: {cache.get('remote_hits', 0)} hits / "
            f"{cache.get('remote_misses', 0)} misses "
            f"(rate {cache.get('hit_rate', 0.0):.2f})"
        )
        if cache.get("remote_repairs") or cache.get("remote_probes"):
            line += (
                f", {cache.get('remote_repairs', 0)} repairs, "
                f"{cache.get('remote_probes', 0)} probes"
            )
        print(line)
    marks = {"up": "+", "half_open": "~", "down": "-"}
    for node, health in sorted((cache.get("nodes") or {}).items()):
        state = health.get("state", "?")
        print(
            f"    {marks.get(state, '?')} {node} [{state}]: "
            f"{health.get('failures', 0)} failing, "
            f"{health.get('errors', 0)} errors, "
            f"{health.get('repairs', 0)} repairs, "
            f"{health.get('hints_pending', 0)} hints pending"
        )
    for worker in status.get("worker_details", []):
        mark = "+" if worker.get("alive") else "-"
        print(
            f"  {mark} {worker.get('name')}: {worker.get('pushes', 0)} "
            f"pushes, {worker.get('shards_done', 0)} done, "
            f"{worker.get('shards_stale', 0)} stale"
        )
    stragglers = set(status.get("stragglers") or ())
    for lease in status.get("leases", []):
        flag = "  <- straggler" if lease.get("shard") in stragglers else ""
        print(
            f"    shard {lease.get('shard')} -> {lease.get('worker')} "
            f"(age {lease.get('age_s', 0.0):.1f}s, expires in "
            f"{lease.get('expires_in_s', 0.0):.1f}s){flag}"
        )


def cmd_fleet_status(args) -> int:
    from repro.errors import FleetError, TransientError
    from repro.fleet import FleetClient

    try:
        client = FleetClient(args.url, timeout=5.0)
    except FleetError as exc:
        print(f"bad coordinator URL: {exc}", file=sys.stderr)
        return 2
    interval = max(0.2, args.interval)
    misses = 0
    while True:
        try:
            code, status = client.get_json("/fleet/v1/status")
            if code != 200:
                raise TransientError(f"status fetch failed with HTTP {code}")
        except (FleetError, TransientError) as exc:
            # A restarting coordinator (or a standby mid-promotion) is a
            # row in the watch, not a crash; one-shot mode still exits.
            if not args.watch:
                print(f"coordinator unreachable: {exc}", file=sys.stderr)
                return 2
            misses += 1
            if not args.json:
                print("\x1b[2J\x1b[H", end="")
                print(
                    f"fleet {args.url} [coordinator unreachable (epoch ?)]"
                    f"  retry {misses}"
                )
            # Bounded backoff: 1x..8x the refresh interval, capped.
            time.sleep(min(30.0, interval * min(2 ** (misses - 1), 8)))
            continue
        misses = 0
        if args.json:
            print(json.dumps(status, sort_keys=True))
        else:
            if args.watch:
                # Clear + home: a live refreshing pane, not a scrollback
                # flood.
                print("\x1b[2J\x1b[H", end="")
            _render_fleet_status(status, args.url)
        if not args.watch or status.get("done"):
            return 0
        time.sleep(interval)


def cmd_fleet_worker(args) -> int:
    import os

    from repro.errors import FleetError, TransientError
    from repro.fleet import FleetWorker

    if args.json_logs:
        obs.configure_logging(True, command="fleet-worker", run_id=obs.new_run_id())
    worker_id = args.worker_id or f"{os.uname().nodename}-{os.getpid()}"
    detector = load_detector(args.model)
    layout = load_layout_auto(args.layout)
    worker = FleetWorker(
        args.url, detector, layout, worker_id=worker_id, cache_dir=args.cache_dir
    )
    try:
        summary = worker.run()
    except (FleetError, TransientError) as exc:
        print(f"fleet worker {worker_id} aborted: {exc}", file=sys.stderr)
        return 2
    finally:
        obs.configure_logging(False)
    print(
        f"worker {worker_id}: {summary['shards_done']} shards done, "
        f"{summary['shards_stale']} stale, {summary['rehomes']} rehomes"
    )
    return 0


def cmd_fleet_coordinator(args) -> int:
    """Standalone coordinator process: primary, or warm standby.

    Unlike ``fleet-scan`` this never merges or clears the journal — it
    serves the lease protocol until every shard is pushed, lingers so
    workers and any standby observe ``done``, and exits leaving the
    journal on disk.  The chaos drill (and any external driver) merges
    from that journal afterwards.
    """
    import signal
    import threading

    from repro.fleet import FleetCoordinator, FleetOptions, StandbyCoordinator

    if args.json_logs:
        obs.configure_logging(
            True, command="fleet-coordinator", run_id=obs.new_run_id()
        )
    if args.trace is not None:
        obs.set_tracer(obs.Tracer())
    detector = load_detector(args.model)
    layout = load_layout_auto(args.layout)
    options = FleetOptions(
        host=args.host,
        port=args.port,
        lease_ttl_s=args.lease_ttl,
        shard_side=args.shard_side,
        journal_dir=args.journal_dir,
        resume=args.resume,
        keep_journal=True,
        trace=args.trace is not None,
        cache_urls=list(args.cache_url or []),
    )
    if args.standby_of:
        role = "standby"
        node = StandbyCoordinator(
            detector,
            layout,
            args.standby_of,
            layer=args.layer,
            options=options,
            probe_interval_s=args.probe_interval,
            max_missed_probes=args.max_missed_probes,
        )
    else:
        role = "primary"
        node = FleetCoordinator(
            detector, layout, layer=args.layer, options=options
        )
    node.start()
    inner = node.inner if role == "standby" else node
    print(
        f"{role} coordinator on {node.url}: {len(inner.shards)} shards, "
        f"epoch {inner.epoch}",
        flush=True,
    )
    stopped = threading.Event()

    def _shutdown(signum, frame):
        stopped.set()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    while not stopped.is_set():
        if node.wait(timeout=0.2):
            break
    done = node.wait(timeout=0)
    if done and args.linger > 0:
        # Workers still need their final "done" lease answers, and an
        # attached standby its last replication tick; serving a little
        # past completion keeps hand-offs and drills clean.
        time.sleep(args.linger)
    if args.trace is not None:
        _write_fleet_trace(
            args.trace,
            obs.get_tracer(),
            "coordinator" if role == "primary" else "standby",
            inner,
        )
    status = inner.status()
    node.stop()
    obs.set_tracer(None)
    obs.configure_logging(False)
    print(
        f"coordinator exiting: {status['completed']}/{status['shards']} "
        f"shards journaled, role {inner.role}, epoch {status['epoch']}, "
        f"{status['stale_epoch_fenced']} stale-epoch requests fenced",
        file=sys.stderr,
    )
    return 0 if done else 1


def cmd_chaos(args) -> int:
    from repro.resilience.drill import ChaosDrill, DrillSchedule, ServeFleetDrill

    spec = args.schedule
    if spec.startswith("@"):
        spec = Path(spec[1:]).read_text()
    schedule = DrillSchedule.parse(spec)
    if args.serve_replicas > 0:
        drill = ServeFleetDrill(
            args.model,
            args.layout,
            schedule,
            replicas=args.serve_replicas,
            requests=args.requests,
            layer=args.layer,
            workdir=args.workdir,
            deadline_s=args.deadline,
        )
        print(
            f"serve drill: seed {schedule.seed}, {len(schedule.actions)} "
            f"scheduled actions, {args.serve_replicas} replicas, "
            f"{args.requests} requests",
            file=sys.stderr,
        )
    else:
        drill = ChaosDrill(
            args.model,
            args.layout,
            schedule,
            layer=args.layer,
            workers=args.fleet_workers,
            standby=not args.no_standby,
            lease_ttl_s=args.lease_ttl,
            probe_interval_s=args.probe_interval,
            shard_side=args.shard_side,
            workdir=args.workdir,
            trace=args.trace,
            deadline_s=args.deadline,
            cache_nodes=args.cache_nodes,
            scans=args.scans,
        )
        print(
            f"chaos drill: seed {schedule.seed}, {len(schedule.actions)} "
            f"scheduled actions, {args.fleet_workers} workers"
            f"{'' if args.no_standby else ' + warm standby'}"
            + (
                f", {args.cache_nodes} cache nodes x {args.scans} scans"
                if args.cache_nodes
                else ""
            ),
            file=sys.stderr,
        )
    report = drill.run()
    for entry in report.timeline:
        print(
            f"  [{entry['t_s']:7.2f}s] {entry['action']} ({entry['detail']})",
            file=sys.stderr,
        )
    if args.out is not None:
        args.out.write_text(json.dumps(report.to_dict(), indent=2))
        print(f"drill report -> {args.out}", file=sys.stderr)
    print(
        f"drill: leader={report.leader or '?'} epoch={report.leader_epoch} "
        f"promoted={report.promoted} "
        f"shards={report.completed}/{report.shards} "
        f"fenced={report.stale_epoch_fenced} identical={report.identical} "
        f"({report.wall_s:.1f}s)"
    )
    if report.cache_nodes:
        warm = (
            f"{report.warm_hit_rate:.2f}"
            if report.warm_hit_rate is not None
            else "n/a"
        )
        print(
            f"drill cache: {len(report.cache_nodes)} nodes, "
            f"{report.scans_completed} scans, warm hit rate {warm}, "
            f"{report.remote_corrupt} corrupt blobs served"
        )
    if report.error:
        print(f"drill error: {report.error}", file=sys.stderr)
    ok = report.identical and not report.error
    if args.expect_promotion and not report.promoted:
        print("drill failed: expected a standby promotion", file=sys.stderr)
        ok = False
    return 0 if ok else 1


def _serve_forever(server, banner: str) -> int:
    """Run one HTTP server (a fleet role or ``repro serve``) until
    SIGTERM/SIGINT, then stop it."""
    import signal
    import threading

    stopped = threading.Event()

    def _shutdown(signum, frame):
        print(f"signal {signum}: stopping")
        stopped.set()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    print(banner)
    stopped.wait()
    server.stop()
    return 0


def cmd_fleet_cache(args) -> int:
    from repro.cache import DiskCacheStore, MemoryCacheStore
    from repro.fleet import CacheServer, FleetClient, FleetHTTPServer

    store = (
        DiskCacheStore(args.dir)
        if args.dir is not None
        else MemoryCacheStore(max_entries=args.max_entries)
    )
    server = FleetHTTPServer(
        CacheServer(store), host=args.host, port=args.port
    ).start()
    if args.join:
        advertise = args.advertise or server.url
        for endpoint in args.join.split(","):
            endpoint = endpoint.strip()
            if not endpoint:
                continue
            try:
                code, answer = FleetClient(endpoint, timeout=5.0).post_json(
                    "/fleet/v1/cache-join", {"url": advertise}
                )
                print(
                    f"joined {endpoint} as {advertise}: HTTP {code} "
                    f"{answer.get('status', '?')}",
                    file=sys.stderr,
                )
            except Exception as exc:
                # A dead standby in the join list is routine churn; the
                # surviving coordinator already knows this node.
                print(f"join {endpoint} failed: {exc}", file=sys.stderr)
    return _serve_forever(
        server,
        f"cache node on {server.url} "
        f"({'disk: ' + str(args.dir) if args.dir else 'memory'})",
    )


def cmd_fleet_frontend(args) -> int:
    import threading

    from repro.fleet import FleetClient, FleetFrontend, FleetHTTPServer
    from repro.fleet.membership import MemberTable

    frontend = FleetFrontend(MemberTable(ttl_s=args.member_ttl))
    replicas = list(args.replica or [])
    for url in replicas:
        frontend.members.register(f"replica-{url}", url, kind="serve")

    probing = threading.Event()

    def _probe_loop() -> None:
        # Pre-registered replicas don't self-heartbeat; probe their
        # /healthz so liveness (and registry-version drift) stays fresh.
        while not probing.wait(max(0.5, args.member_ttl / 3)):
            for url in replicas:
                try:
                    status, document = FleetClient(url, timeout=5.0).get_json(
                        "/healthz"
                    )
                except Exception:
                    continue
                if status == 200:
                    frontend.members.heartbeat(
                        f"replica-{url}",
                        str(document.get("registry_version", "")),
                    )

    if replicas:
        threading.Thread(
            target=_probe_loop, name="repro-fleet-probe", daemon=True
        ).start()
    server = FleetHTTPServer(frontend, host=args.host, port=args.port).start()
    try:
        return _serve_forever(
            server,
            f"frontend on {server.url} ({len(replicas)} pre-registered replicas)",
        )
    finally:
        probing.set()


def cmd_client(args) -> int:
    from repro.serve import ServeClient

    client = ServeClient(args.url)
    if args.action == "health":
        status, document = client.health_document()
        print(json.dumps(document) if args.json else f"{status}: {document}")
        return 0 if status == 200 else 1
    if args.action == "metrics":
        print(client.metrics_text(), end="")
        return 0
    if args.action == "models":
        document = client.models()
        if args.json:
            print(json.dumps(document))
        else:
            for model in document["models"]:
                print(
                    f"{model['name']}: {model['path']} "
                    f"({model['kernels']} kernels, reloads={model['reloads']})"
                )
        return 0
    if args.action == "predict":
        if args.clips is None:
            print("predict requires --clips", file=sys.stderr)
            return 2
        from repro.data.benchmarks import ICCAD_SPEC

        clipset = load_clipset_gds(args.clips, ICCAD_SPEC)
        clips = list(clipset)[: args.limit] if args.limit else list(clipset)
        result = client.predict(
            clips, model=args.model_name, threshold=args.threshold
        )
        if args.json:
            print(
                json.dumps(
                    {
                        "model": result.model,
                        "threshold": result.threshold,
                        "hotspots": result.hotspot_count,
                        "clips": len(clips),
                        "flags": result.flags.tolist(),
                    }
                )
            )
        else:
            print(
                f"{result.hotspot_count}/{len(clips)} clips flagged hotspot "
                f"(model {result.model}, threshold {result.threshold:+.2f})"
            )
        return 0
    if args.action == "scan":
        if args.layout is None:
            print("scan requires --layout", file=sys.stderr)
            return 2
        layout = load_layout_auto(args.layout)
        rects = layout.layer(args.layer).rects
        report = client.scan(
            rects, layer=args.layer, model=args.model_name, threshold=args.threshold
        )
        if args.json:
            print(json.dumps(report))
        else:
            print(
                f"{report['candidates']} candidates, {report['count']} hotspot "
                f"reports ({report['eval_seconds']:.1f}s server-side)"
            )
            for item in report["reports"]:
                x0, y0, x1, y1 = item["core"]
                print(f"  core ({x0}, {y0}) - ({x1}, {y1})")
        return 0
    raise AssertionError(f"unhandled action {args.action}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ML lithography hotspot detection (DAC 2013 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_train(subparsers)
    _add_scan(subparsers)
    _add_score(subparsers)
    _add_report(subparsers)
    _add_info(subparsers)
    _add_explain(subparsers)
    _add_serve(subparsers)
    _add_client(subparsers)
    _add_fleet_scan(subparsers)
    _add_fleet_status(subparsers)
    _add_fleet_worker(subparsers)
    _add_fleet_coordinator(subparsers)
    _add_chaos(subparsers)
    _add_fleet_cache(subparsers)
    _add_fleet_frontend(subparsers)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Raw argv is captured into the run manifest for reproducibility.
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    handlers = {
        "generate": cmd_generate,
        "train": cmd_train,
        "scan": cmd_scan,
        "score": cmd_score,
        "report": cmd_report,
        "info": cmd_info,
        "explain": cmd_explain,
        "serve": cmd_serve,
        "client": cmd_client,
        "fleet-scan": cmd_fleet_scan,
        "fleet-status": cmd_fleet_status,
        "fleet-worker": cmd_fleet_worker,
        "fleet-coordinator": cmd_fleet_coordinator,
        "chaos": cmd_chaos,
        "fleet-cache": cmd_fleet_cache,
        "fleet-frontend": cmd_fleet_frontend,
    }
    # REPRO_FAULTS drives the CI chaos job: any command can run under an
    # injected fault plan.  Uninstall afterwards — tests call main()
    # in-process and must not inherit the plan.
    injector = faults.from_env()
    try:
        return handlers[args.command](args)
    finally:
        if injector is not None:
            faults.uninstall()


if __name__ == "__main__":
    sys.exit(main())
