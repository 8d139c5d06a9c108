"""Workloads, set-up and the untraced closed-loop scan of the benchmark.

Each scan drives the same public calls as a default ``repro scan``:
``load_detector`` on the archive written at set-up, ``load_layout_auto``
on the GDS written at set-up, ``attach_cache(HotspotCache())`` and
``HotspotDetector.detect``.  The loop is closed: one scan at a time, the
next one starting only after the previous one returned.

Importing this module needs ``repro`` importable; ``run.py`` puts the
checkout's ``src/`` first on ``sys.path`` before it imports this file.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from repro.cache import HotspotCache
from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.metrics import score_reports
from repro.core.persist import load_detector, save_detector
from repro.data.benchmarks import (
    ICCAD_SPEC,
    benchmark_config,
    generate_testing_layout,
    generate_training_set,
)
from repro.geometry.rect import Rect
from repro.layout.io import load_layout_auto, save_layout_gds
from repro.layout.layout import Layout
from repro.resilience import QuarantineReport
from repro.work import ScanOptions

#: Layout layer every workload scans (the generator draws on layer 1).
LAYER = 1

#: Pool size of the process-backend workload and of the sharded
#: reference pass the traced run makes on the serial workloads.
WORKERS = 2

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass(frozen=True)
class Workload:
    """One benchmark layout scanned one way."""

    name: str
    benchmark: str
    scale: float
    #: Scan on the process backend with an incremental shard journal.
    process: bool

    @property
    def default_pair_seed(self) -> int:
        return benchmark_config(self.benchmark).seed


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("scan-b1-serial", "benchmark1", 1.0, process=False),
        Workload("scan-b4-process", "benchmark4", 1.0, process=True),
    )
}


class Mismatch(Exception):
    """A scan's output differs from the reference it is checked against."""


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def layout_offset(seed: int) -> tuple[int, int]:
    """Where ``seed`` moves the testing layout, in DBU.

    Detection is translation-invariant (the hotspot set of a moved layout
    is the moved hotspot set, bit for bit), so every seed yields a
    different GDS that takes the same work and must give the same
    answer.  Offsets are whole clip sides, which also keeps the layout's
    alignment to the spatial-index buckets.
    """
    steps = np.random.default_rng(seed).integers(0, 200, size=2)
    return int(steps[0]) * ICCAD_SPEC.clip_side, int(steps[1]) * ICCAD_SPEC.clip_side


def translated(layout: Layout, dx: int, dy: int) -> Layout:
    moved = Layout()
    for number in layout.layer_numbers():
        for polygon in layout.layer(number).polygons:
            moved.add_polygon(number, polygon.translated(dx, dy))
    return moved


@dataclass
class Prepared:
    """What set-up leaves behind for the scans."""

    archive: Path
    gds: Path
    #: Ground-truth hotspot cores and area of the layout in ``gds``.
    truth: list[Rect]
    area_um2: float
    offset: tuple[int, int]
    kernels: int
    #: Wall seconds of each set-up repetition, and of its steps.
    setup_s: list[float] = field(default_factory=list)
    steps_s: dict[str, list[float]] = field(default_factory=dict)


def prepare(
    workload: Workload,
    seed: int,
    pair_seed: int,
    scale: float,
    workdir: Path,
    reps: int,
) -> Prepared:
    """Generate the pair, fit, save the archive and write the GDS, ``reps`` times.

    ``pair_seed`` is the benchmark seed the pair is generated from;
    ``seed`` places the testing layout (:func:`layout_offset`).  Every
    repetition does the whole set-up from scratch, so the fastest one is
    the set-up time; the artifacts of the first one are kept for the scans.
    """
    config = replace(benchmark_config(workload.benchmark), seed=pair_seed)
    dx, dy = layout_offset(seed)
    prepared: Optional[Prepared] = None
    setup_s: list[float] = []
    steps: dict[str, list[float]] = {}
    for rep in range(reps):
        directory = workdir / f"setup-{rep}"
        directory.mkdir(parents=True)
        gc.collect()
        started = time.perf_counter()
        training = generate_training_set(config, scale)
        testing = generate_testing_layout(config, scale)
        generated = time.perf_counter()
        detector = HotspotDetector(DetectorConfig.ours())
        report = detector.fit(training)
        fitted = time.perf_counter()
        archive = directory / "model.npz"
        save_detector(detector, archive)
        saved = time.perf_counter()
        gds = directory / "layout.gds"
        save_layout_gds(translated(testing.layout, dx, dy), gds)
        written = time.perf_counter()
        setup_s.append(written - started)
        for name, seconds in (
            ("data.generate_s", generated - started),
            ("training.fit_s", fitted - generated),
            ("persist.save_s", saved - fitted),
            ("gdsii.write_s", written - saved),
        ):
            steps.setdefault(name, []).append(seconds)
        if prepared is None:
            truth = [core.translated(dx, dy) for core in testing.hotspot_cores()]
            prepared = Prepared(
                archive, gds, truth, testing.area_um2, (dx, dy), report.kernels
            )
        else:
            shutil.rmtree(directory)
    assert prepared is not None
    prepared.setup_s = setup_s
    prepared.steps_s = steps
    return prepared


# ----------------------------------------------------------------------
# checking a scan's output
# ----------------------------------------------------------------------
def report_digest(reports, offset: tuple[int, int] = (0, 0)) -> str:
    """sha256 of the sorted report cores, moved back by ``offset``.

    The identity of a hotspot set, independent of where the layout sits.
    """
    dx, dy = offset
    cores = sorted(
        (c.core.x0 - dx, c.core.y0 - dy, c.core.x1 - dx, c.core.y1 - dy)
        for c in reports
    )
    return hashlib.sha256(json.dumps(cores).encode()).hexdigest()


@dataclass
class Outcome:
    """The graded hotspot set of one scan."""

    digest: str
    reports: int
    hits: int
    extras: int


def load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


class Checker:
    """Grades every scan of a run and counts operations.

    Each scan is one operation.  It fails if it raises, drains,
    quarantines any anchor, or its hotspot set differs from the run's
    first one (and, for the workload's own pair and scale, from the
    recorded golden record).
    """

    def __init__(self, prepared: Prepared, golden: Optional[dict]):
        self.prepared = prepared
        self.golden = golden
        self.reference: Optional[Outcome] = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def grade(self, reports, quarantined: int) -> Outcome:
        if quarantined:
            raise Mismatch(f"{quarantined} anchors quarantined")
        prepared = self.prepared
        score = score_reports(reports, prepared.truth, prepared.area_um2)
        outcome = Outcome(
            report_digest(reports, prepared.offset),
            len(reports),
            score.hits,
            score.extras,
        )
        if self.reference is None:
            if self.golden is not None:
                expected = {key: self.golden[key] for key in vars(outcome)}
                if vars(outcome) != expected:
                    raise Mismatch(f"golden record {expected} != {vars(outcome)}")
            self.reference = outcome
        elif outcome.digest != self.reference.digest:
            raise Mismatch(
                f"hotspot set {outcome.digest[:12]} != {self.reference.digest[:12]}"
            )
        return outcome

    def run(self, label: str, operation) -> None:
        """Run one operation, counting it and whether it failed."""
        self.attempted += 1
        try:
            operation()
        except Exception as exc:  # noqa: BLE001 — counted and reported, never fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# the untraced closed loop
# ----------------------------------------------------------------------
def scan_options(workload: Workload, journal_dir: Optional[Path]) -> Optional[ScanOptions]:
    """What ``repro scan`` passes to ``detect`` for this workload."""
    if not workload.process:
        return None
    return ScanOptions(workers=WORKERS, journal_dir=journal_dir, incremental=True)


@dataclass
class LoopResult:
    scan_s: list[float] = field(default_factory=list)
    rescan_s: list[float] = field(default_factory=list)


def scan_loop(
    workload: Workload,
    prepared: Prepared,
    checker: Checker,
    seconds: float,
    workdir: Path,
) -> LoopResult:
    """Cold scan then rescan, again and again until ``seconds`` have passed.

    The cold scan starts from the archive and GDS paths with an empty
    cache (and, on the process workload, an empty journal).  The rescan
    is a second ``detect`` of the same loaded layout by the same
    detector: the in-memory cache is warm, and on the process workload
    the incremental journal reuses every shard.
    """
    result = LoopResult()
    deadline = time.perf_counter() + seconds
    iteration = 0
    while True:
        journal = workdir / f"journal-{iteration}" if workload.process else None
        options = scan_options(workload, journal)
        state: dict = {}

        def cold():
            gc.collect()
            started = time.perf_counter()
            detector = load_detector(prepared.archive)
            layout = load_layout_auto(prepared.gds)
            detector.attach_cache(HotspotCache())
            quarantine = QuarantineReport()
            report = detector.detect(
                layout, layer=LAYER, quarantine=quarantine, work=options
            )
            elapsed = time.perf_counter() - started
            state.update(detector=detector, layout=layout)
            checker.grade(report.reports, quarantine.total)
            result.scan_s.append(elapsed)

        def rescan():
            gc.collect()
            started = time.perf_counter()
            quarantine = QuarantineReport()
            report = state["detector"].detect(
                state["layout"], layer=LAYER, quarantine=quarantine, work=options
            )
            elapsed = time.perf_counter() - started
            if workload.process and report.shards_reused != report.shards_total:
                raise Mismatch(
                    f"incremental rescan reused {report.shards_reused}"
                    f"/{report.shards_total} shards"
                )
            checker.grade(report.reports, quarantine.total)
            result.rescan_s.append(elapsed)

        checker.run("scan", cold)
        if "detector" in state:
            checker.run("rescan", rescan)
        if journal is not None:
            shutil.rmtree(journal, ignore_errors=True)
        iteration += 1
        if time.perf_counter() >= deadline:
            return result


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
