"""The traced run: the program's own scan, every layer's entry point timed from outside.

The passes call ``HotspotDetector.detect`` itself.  For the duration of
the traced run each layer's entry point is replaced by a wrapper that
records a span around the original call and counts what went through:

- module functions the scan looks up at call time --
  ``repro.core.extraction.candidate_anchors`` and
  ``extract_from_anchors``, ``repro.core.training.core_string_key``,
  ``repro.core.detector.remove_redundant_clips``,
  ``repro.cache.keys.clip_content_key`` and
  ``repro.work.shard.run_sharded_scan``;
- methods of the loaded instances -- the layout's
  ``cut_clip_at_core``, the model's ``kernel_margins``, its extractor's
  ``extract`` and ``vectorize``, each kernel SVM's ``decision_function``
  and the feedback kernel's ``keep_mask``;
- the in-memory :class:`HotspotCache`, subclassed.

Spans (name, start, end, parent) are kept in memory and written out when
the run ends.  A layer's self time is its spans' duration minus the part
covered by child spans (a ``clip.cut`` inside ``extraction.filter``, a
``cache.get`` inside ``features.extract``), so the layer times plus the
unattributed remainder sum exactly to the traced wall time.

The traced run makes three passes, each under one root span:

- ``pass.cold``: load the archive, read the GDS, attach a fresh cache
  and scan, as the untraced cold scan does;
- ``pass.rescan``: scan the same layout again with the same detector
  (warm cache; on the process workload, incremental journal reuse);
- ``pass.reference``: the other execution path -- sharded on the serial
  workloads, serial on the process workload -- whose hotspot set must
  equal the cold pass's, and whose extraction-plus-margins time gives
  ``work.speedup``.

Forked pool workers inherit the wrappers but record nothing, so a
sharded scan is one ``work.scan`` span.
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import repro.cache.keys
import repro.core.detector
import repro.core.extraction
import repro.core.training
import repro.work.shard
from repro.cache import HotspotCache
from repro.core.persist import load_detector
from repro.layout.io import load_layout_auto
from repro.resilience import QuarantineReport
from repro.work import ScanOptions

from workloads import LAYER, WORKERS, Mismatch, scan_options

#: Span name -> per-layer time metric (the sum of the spans' self times).
LAYER_TIMES = {
    "persist.load": "persist.load_s",
    "gdsii.read": "gdsii.read_s",
    "extraction.anchors": "extraction.anchors_s",
    "clip.cut": "clip.cut_s",
    "extraction.filter": "extraction.filter_s",
    "topology.key": "topology.key_s",
    "margins": "margins.self_s",
    "features.extract": "features.extract_s",
    "features.vectorize": "features.vectorize_s",
    "svm.margin": "svm.margin_s",
    "cache.key": "cache.key_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "feedback.keep": "feedback.keep_s",
    "removal.remove": "removal.remove_s",
    "work.scan": "work.scan_s",
}

PASSES = ("pass.cold", "pass.rescan", "pass.reference")

#: Spans that make up extraction plus margins on the serial path.
SERIAL_EXTRACT_MARGINS = ("extraction.anchors", "extraction.filter", "margins")


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` in start order.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, name: str, function, count=None):
        """``function`` with every call recorded as a span.

        ``count(result, *args)`` runs after each call to update
        :attr:`counts`.  In a forked pool worker the wrapper only calls
        through: its spans could never reach this process.
        """

        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return function(*args, **kwargs)
            with self.span(name):
                result = function(*args, **kwargs)
            if count is not None:
                count(result, *args)
            return result

        return traced

    def duration(self, name: str, within=None) -> float:
        """Total duration of the spans called ``name`` (inside span ``within``)."""
        return sum(
            end - start
            for n, start, end, _ in self.spans
            if n == name and (within is None or within[1] <= start and end <= within[2])
        )

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's durations."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start - children)
        return totals

    def document(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
            for name, start, end, parent in self.spans
        ]


class TracedCache(HotspotCache):
    """The in-memory :class:`HotspotCache`, each lookup and store a span."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def _get(self, getter, fingerprint, key):
        with self.tracer.span("cache.get"):
            value = getter(fingerprint, key)
        self.tracer.counts["cache.gets"] += 1
        self.tracer.counts["cache.hits"] += value is not None
        return value

    def _put(self, putter, fingerprint, key, value) -> None:
        with self.tracer.span("cache.put"):
            putter(fingerprint, key, value)
        self.tracer.counts["cache.puts"] += 1

    def get_features(self, fingerprint, key):
        return self._get(super().get_features, fingerprint, key)

    def get_margins(self, fingerprint, key):
        return self._get(super().get_margins, fingerprint, key)

    def put_features(self, fingerprint, key, features) -> None:
        self._put(super().put_features, fingerprint, key, features)

    def put_margins(self, fingerprint, key, row) -> None:
        self._put(super().put_margins, fingerprint, key, row)


# ----------------------------------------------------------------------
# wrapping the layers' entry points
# ----------------------------------------------------------------------
def _counter(tracer: Tracer, name: str, size=None):
    """A ``count`` callback adding ``size(result, *args)`` (default 1) to ``name``."""

    def count(result, *args):
        tracer.counts[name] += 1 if size is None else size(result, *args)

    return count


def _scan_counts(tracer: Tracer):
    def count(scan, *args):
        tracer.counts["work.shards"] += scan.shards_total
        tracer.counts["work.shards_reused"] += scan.shards_reused
        tracer.counts["work.restarts"] += scan.stats.worker_restarts

    return count


def _feedback_counts(tracer: Tracer):
    def count(keep, flagged, *args):
        tracer.counts["feedback.flagged"] += len(flagged)
        tracer.counts["feedback.kept"] += int(np.count_nonzero(keep))

    return count


@contextmanager
def wrapped_modules(tracer: Tracer):
    """Wrap the module-level layer entry points, restoring them on exit."""
    targets = [
        (repro.core.extraction, "candidate_anchors", "extraction.anchors",
         _counter(tracer, "extraction.anchors", lambda anchors, *a: len(anchors))),
        (repro.core.extraction, "extract_from_anchors", "extraction.filter",
         _counter(tracer, "extraction.candidates", lambda report, *a: len(report.clips))),
        (repro.core.training, "core_string_key", "topology.key",
         _counter(tracer, "topology.keys")),
        (repro.cache.keys, "clip_content_key", "cache.key", None),
        (repro.core.detector, "remove_redundant_clips", "removal.remove",
         _counter(tracer, "removal.reports", lambda reports, *a: len(reports))),
        (repro.work.shard, "run_sharded_scan", "work.scan", _scan_counts(tracer)),
    ]
    originals = [(module, attribute, getattr(module, attribute))
                 for module, attribute, _, _ in targets]
    try:
        for module, attribute, name, count in targets:
            setattr(module, attribute, tracer.wrap(name, getattr(module, attribute), count))
        yield
    finally:
        for module, attribute, original in originals:
            setattr(module, attribute, original)


def wrap_instances(tracer: Tracer, detector, layout) -> None:
    """Wrap the entry points of a loaded detector's and layout's layers."""

    def wrap(owner, attribute: str, name: str, count=None) -> None:
        setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute), count))

    model = detector.model_
    wrap(layout, "cut_clip_at_core", "clip.cut", _counter(tracer, "clip.cuts"))
    wrap(model, "kernel_margins", "margins")
    wrap(model.extractor, "extract", "features.extract", _counter(tracer, "features.clips"))
    wrap(model.extractor, "vectorize", "features.vectorize")
    rows = _counter(tracer, "svm.rows", lambda margins, matrix: len(matrix))
    for kernel in model.kernels:
        wrap(kernel.model, "decision_function", "svm.margin", rows)
    if detector.feedback_ is not None:
        wrap(detector.feedback_, "keep_mask", "feedback.keep", _feedback_counts(tracer))


# ----------------------------------------------------------------------
# the passes
# ----------------------------------------------------------------------
def traced_run(workload, prepared, checker, workdir) -> dict:
    """Make the three traced passes; grade each; return the raw trace facts."""
    tracer = Tracer()
    journal = workdir / "journal-traced" if workload.process else None
    options = scan_options(workload, journal)
    state: dict = {}

    def detect(name: str, work):
        detector, layout = state["detector"], state["layout"]
        quarantine = QuarantineReport()
        with tracer.span(name) as record:
            report = detector.detect(layout, layer=LAYER, quarantine=quarantine, work=work)
        state[name] = record
        checker.grade(report.reports, quarantine.total)
        return report

    def cold():
        gc.collect()
        with tracer.span("pass.cold"):
            with tracer.span("persist.load"):
                detector = load_detector(prepared.archive)
            with tracer.span("gdsii.read"):
                layout = load_layout_auto(prepared.gds)
            detector.attach_cache(TracedCache(tracer))
            wrap_instances(tracer, detector, layout)
            state.update(detector=detector, layout=layout)
            detect("detect.cold", options)
        tracer.counts["gdsii.rects"] += layout.rect_count(LAYER)

    def rescan():
        gc.collect()
        with tracer.span("pass.rescan"):
            report = detect("detect.rescan", options)
        if workload.process and report.shards_reused != report.shards_total:
            raise Mismatch(
                f"incremental rescan reused {report.shards_reused}/{report.shards_total} shards"
            )

    def reference():
        gc.collect()
        with tracer.span("pass.reference"):
            if options is None:
                detect("detect.reference", ScanOptions(workers=WORKERS))
            else:
                state["detector"].attach_cache(TracedCache(tracer))
                detect("detect.reference", None)

    with wrapped_modules(tracer):
        checker.run("traced scan", cold)
        if "detector" in state:
            checker.run("traced rescan", rescan)
            checker.run("traced reference", reference)

    serial, sharded = state.get("detect.cold"), state.get("detect.reference")
    if options is not None:
        serial, sharded = sharded, serial
    return {
        "tracer": tracer,
        "cold_wall_s": tracer.duration("pass.cold"),
        "serial_s": serial and sum(
            tracer.duration(name, serial) for name in SERIAL_EXTRACT_MARGINS
        ),
        "sharded_s": sharded and tracer.duration("work.scan", sharded),
    }


def layer_metrics(facts: dict, untraced_scan_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced run (set-up layers are added by the caller)."""
    tracer: Tracer = facts["tracer"]
    counts = tracer.counts
    self_times = tracer.self_times()
    metrics = {metric: self_times.get(span, 0.0) for span, metric in LAYER_TIMES.items()}
    wall = sum(tracer.duration(name) for name in PASSES)
    attributed = sum(metrics.values())

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics.update(
        {
            "gdsii.rects": counts["gdsii.rects"],
            "extraction.anchors": counts["extraction.anchors"],
            "clip.cuts": counts["clip.cuts"],
            "extraction.candidates": counts["extraction.candidates"],
            "extraction.pass_ratio": ratio(
                counts["extraction.candidates"], counts["extraction.anchors"]
            ),
            "topology.keys": counts["topology.keys"],
            # The model extracts each clip that passes at least one gate once.
            "topology.gate_ratio": ratio(counts["features.clips"], counts["topology.keys"]),
            "features.clips": counts["features.clips"],
            "svm.rows": counts["svm.rows"],
            "feedback.flagged": counts["feedback.flagged"],
            "feedback.kept_ratio": ratio(counts["feedback.kept"], counts["feedback.flagged"]),
            "removal.reports": counts["removal.reports"],
            "cache.gets": counts["cache.gets"],
            "cache.puts": counts["cache.puts"],
            "cache.hit_ratio": ratio(counts["cache.hits"], counts["cache.gets"]),
            "work.shards": counts["work.shards"],
            "work.shards_reused": counts["work.shards_reused"],
            "work.restarts": counts["work.restarts"],
            "work.speedup": ratio(facts["serial_s"] or 0.0, facts["sharded_s"] or 0.0),
            "trace.wall_s": wall,
            "trace.coverage": ratio(attributed, wall),
            "unattributed_s": wall - attributed,
            "trace.overhead_s": facts["cold_wall_s"] - untraced_scan_s,
        }
    )
    return metrics
