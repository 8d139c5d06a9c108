"""Prometheus-style process metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` owns a set of named metric families and can
render them in the Prometheus text exposition format (``GET /metrics``).
It is deliberately tiny and dependency-free, but keeps the semantics a
scraper expects: counters only go up, histogram buckets are cumulative,
``_sum``/``_count`` accompany every histogram, and label values are
escaped.

The registry doubles as a generic timing sink: it exposes
``observe(name, value)`` and ``increment(name)`` so components that must
not depend on the serve layer (e.g. :class:`repro.core.detector.
HotspotDetector`) can feed it through duck typing alone.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

#: Default latency buckets (seconds) — micro-batch serving lives in the
#: sub-millisecond to low-second range.
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Observations kept per histogram child for quantile estimation.
RESERVOIR_SIZE = 2048


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class Counter:
    """A monotonically increasing counter child."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depth, timestamps)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Cumulative-bucket histogram child with quantile estimation.

    Buckets follow Prometheus semantics (``le`` upper bounds, cumulative
    on render).  Quantiles come from a bounded ring of recent
    observations — exact for the first :data:`RESERVOIR_SIZE` samples,
    a sliding window afterwards, which is the behaviour a serving
    dashboard wants (recent latency, not all-time).
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count", "_ring", "_ring_pos")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self._lock = threading.Lock()
        self._bounds = tuple(sorted(buckets))
        self._counts = [0] * (len(self._bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._ring: list[float] = []
        self._ring_pos = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            index = bisect.bisect_left(self._bounds, value)
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if len(self._ring) < RESERVOIR_SIZE:
                self._ring.append(value)
            else:
                self._ring[self._ring_pos] = value
                self._ring_pos = (self._ring_pos + 1) % RESERVOIR_SIZE

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the recent-observation window.

        Returns 0.0 for an empty histogram (back-compat convenience);
        callers that must distinguish "no data" from "zero latency"
        should use :meth:`stats`, which reports ``None`` quantiles for
        empty histograms.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            window = sorted(self._ring)
        if not window:
            return 0.0
        rank = min(len(window) - 1, max(0, int(round(q * (len(window) - 1)))))
        return window[rank]

    def stats(self, quantiles: Sequence[float] = (0.50, 0.99)) -> dict:
        """Atomic count/sum/quantile read under one lock acquisition.

        ``count``, ``sum`` and every quantile come from the same locked
        view, so concurrent ``observe`` calls from batcher worker
        threads cannot produce a torn snapshot (e.g. a count that
        disagrees with the quantile window).  Quantiles are ``None``
        when the histogram is empty; a single sample is every quantile.
        """
        with self._lock:
            count = self._count
            total = self._sum
            window = sorted(self._ring)
        out: dict = {"count": count, "sum": total}
        for q in quantiles:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile must be in [0, 1], got {q}")
            key = f"p{q * 100:g}".replace(".", "_")
            if not window:
                out[key] = None
            else:
                rank = min(len(window) - 1, max(0, int(round(q * (len(window) - 1)))))
                out[key] = window[rank]
        return out

    def snapshot(self) -> dict:
        with self._lock:
            cumulative = []
            running = 0
            for bound, count in zip(self._bounds, self._counts):
                running += count
                cumulative.append((bound, running))
            return {
                "count": self._count,
                "sum": self._sum,
                "buckets": cumulative,
            }

    def state(self) -> dict:
        """Full-fidelity, mergeable dump: raw (non-cumulative) buckets.

        Unlike :meth:`snapshot`, per-bucket counts here are *raw*, so two
        states with identical bounds merge by plain element-wise
        addition (see :meth:`absorb`).  The quantile ring is not part of
        the state — it is a process-local sliding window and has no
        meaningful cross-process merge.
        """
        with self._lock:
            return {
                "bounds": list(self._bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }

    def absorb(self, state: dict) -> None:
        """Add another histogram's :meth:`state` into this one.

        Bucket-wise: both histograms must share the exact bound list
        (``ValueError`` otherwise — silently re-bucketing would corrupt
        the distribution).  The quantile ring is left untouched.
        """
        bounds = tuple(state.get("bounds", ()))
        counts = list(state.get("counts", ()))
        with self._lock:
            if bounds != self._bounds or len(counts) != len(self._counts):
                raise ValueError(
                    f"histogram bucket mismatch: {bounds} vs {self._bounds}"
                )
            for index, count in enumerate(counts):
                self._counts[index] += int(count)
            self._sum += float(state.get("sum", 0.0))
            self._count += int(state.get("count", 0))


@dataclass
class _Family:
    """One named metric family: children keyed by label-value tuples."""

    name: str
    kind: str
    help: str
    label_names: tuple[str, ...]
    factory: object
    children: dict = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def child(self, label_values: tuple[str, ...]):
        if len(label_values) != len(self.label_names):
            raise ValueError(
                f"metric {self.name} expects labels {self.label_names}, "
                f"got {label_values}"
            )
        with self.lock:
            if label_values not in self.children:
                self.children[label_values] = self.factory()  # type: ignore[operator]
            return self.children[label_values]


class MetricsRegistry:
    """A named collection of metric families with text rendering."""

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # family constructors
    # ------------------------------------------------------------------
    def _family(
        self, name: str, kind: str, help_: str, label_names: Iterable[str], factory
    ) -> _Family:
        full = f"{self.namespace}_{name}" if self.namespace else name
        return self._family_full(full, kind, help_, label_names, factory)

    def _family_full(
        self, full: str, kind: str, help_: str, label_names: Iterable[str], factory
    ) -> _Family:
        """Register/fetch a family by its already-namespaced name."""
        with self._lock:
            family = self._families.get(full)
            if family is None:
                family = _Family(full, kind, help_, tuple(label_names), factory)
                self._families[full] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {full} already registered as {family.kind}"
                )
            return family

    def counter(self, name: str, help_: str = "", labels: Iterable[str] = ()) -> "_Bound":
        return _Bound(self._family(name, "counter", help_, labels, Counter))

    def gauge(self, name: str, help_: str = "", labels: Iterable[str] = ()) -> "_Bound":
        return _Bound(self._family(name, "gauge", help_, labels, Gauge))

    def histogram(
        self,
        name: str,
        help_: str = "",
        labels: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> "_Bound":
        return _Bound(
            self._family(name, "histogram", help_, labels, lambda: Histogram(buckets))
        )

    # ------------------------------------------------------------------
    # duck-typed sink interface (used by the core detector)
    # ------------------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram called ``name``."""
        self.histogram(name).labels().observe(value)

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Bump the counter called ``name``."""
        self.counter(name).labels().inc(amount)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition format, stably ordered."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            with family.lock:
                children = sorted(family.children.items())
            for label_values, child in children:
                labels = _render_labels(family.label_names, label_values)
                if family.kind in ("counter", "gauge"):
                    lines.append(f"{family.name}{labels} {child.value:g}")
                else:
                    snap = child.snapshot()
                    for bound, cumulative in snap["buckets"]:
                        le = _render_labels(
                            family.label_names + ("le",),
                            label_values + (f"{bound:g}",),
                        )
                        lines.append(f"{family.name}_bucket{le} {cumulative}")
                    inf = _render_labels(
                        family.label_names + ("le",), label_values + ("+Inf",)
                    )
                    lines.append(f"{family.name}_bucket{inf} {snap['count']}")
                    lines.append(f"{family.name}_sum{labels} {snap['sum']:g}")
                    lines.append(f"{family.name}_count{labels} {snap['count']}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-friendly dump: values, and p50/p99 for histograms."""
        out: dict = {}
        with self._lock:
            families = list(self._families.values())
        for family in families:
            with family.lock:
                children = list(family.children.items())
            for label_values, child in children:
                key = family.name
                if label_values:
                    key += "{" + ",".join(label_values) + "}"
                if family.kind in ("counter", "gauge"):
                    out[key] = child.value
                else:
                    stats = child.stats((0.50, 0.99))
                    out[key] = {
                        "count": stats["count"],
                        "sum": stats["sum"],
                        "p50": stats["p50"],
                        "p99": stats["p99"],
                    }
        return out

    # ------------------------------------------------------------------
    # federation: mergeable state export/absorb
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """A lossless, JSON-able dump for cross-process merging.

        Family names are fully namespaced; histogram children carry raw
        per-bucket counts (see :meth:`Histogram.state`), so N states
        merge into exactly the registry that would have observed the
        union of all observations (modulo the process-local quantile
        rings, which do not travel).
        """
        families = []
        with self._lock:
            snapshot = sorted(self._families.values(), key=lambda f: f.name)
        for family in snapshot:
            with family.lock:
                children = sorted(family.children.items())
            dumped = []
            for label_values, child in children:
                if family.kind == "histogram":
                    entry = {"labels": list(label_values)}
                    entry.update(child.state())
                else:
                    entry = {"labels": list(label_values), "value": child.value}
                dumped.append(entry)
            families.append(
                {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "label_names": list(family.label_names),
                    "children": dumped,
                }
            )
        return {"families": families}

    def absorb_state(self, state: dict) -> None:
        """Merge one :meth:`export_state` document into this registry.

        Counters and gauges add; histograms merge bucket-wise.  Label
        sets are preserved: a child that exists in both registries merges
        into one child, a child unique to the absorbed state is created.
        A malformed family (kind clash, bucket mismatch) raises
        ``ValueError`` — callers federating untrusted peers should catch
        it per state and count the peer as unscrapable.
        """
        for family_state in state.get("families", ()):
            name = str(family_state.get("name", ""))
            kind = str(family_state.get("kind", ""))
            if not name or kind not in ("counter", "gauge", "histogram"):
                raise ValueError(f"malformed metrics family {family_state!r}")
            label_names = tuple(
                str(label) for label in family_state.get("label_names", ())
            )
            if kind == "histogram":
                factory = Histogram  # bounds come from the absorbed state
            else:
                factory = Counter if kind == "counter" else Gauge
            family = self._family_full(
                name, kind, str(family_state.get("help", "")), label_names, factory
            )
            if family.label_names != label_names:
                raise ValueError(
                    f"metric {name} label mismatch: "
                    f"{label_names} vs {family.label_names}"
                )
            for entry in family_state.get("children", ()):
                labels = tuple(str(v) for v in entry.get("labels", ()))
                if len(labels) != len(label_names):
                    raise ValueError(
                        f"metric {name} child labels {labels} do not match "
                        f"label names {label_names}"
                    )
                if kind == "histogram":
                    bounds = tuple(entry.get("bounds", ()))
                    with family.lock:
                        child = family.children.get(labels)
                        if child is None:
                            child = Histogram(bounds or DEFAULT_BUCKETS)
                            family.children[labels] = child
                    child.absorb(entry)
                else:
                    value = float(entry.get("value", 0.0))
                    child = family.child(labels)
                    if kind == "counter":
                        child.inc(max(0.0, value))
                    else:
                        child.inc(value)  # gauges federate by summing


def merge_metrics_states(
    states: Iterable[dict], namespace: str = ""
) -> MetricsRegistry:
    """Merge N :meth:`MetricsRegistry.export_state` docs into one registry.

    The merge is bucket-wise for histograms and additive for counters and
    gauges, preserving every label set — the algebra behind the fleet's
    federated ``/metrics`` view.  A malformed state raises ``ValueError``;
    federating callers should validate per member before merging.
    """
    merged = MetricsRegistry(namespace=namespace)
    for state in states:
        merged.absorb_state(state)
    return merged


class _Bound:
    """A family handle; ``labels(...)`` resolves the concrete child."""

    __slots__ = ("_family",)

    def __init__(self, family: _Family) -> None:
        self._family = family

    def labels(self, *values: object) -> object:
        return self._family.child(tuple(str(v) for v in values))


class Timer:
    """Context manager feeding elapsed seconds to a histogram child."""

    __slots__ = ("_histogram", "_started", "elapsed")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._started: Optional[float] = None
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._started is None:  # __exit__ without __enter__ — record nothing
            return
        self.elapsed = time.perf_counter() - self._started
        self._histogram.observe(self.elapsed)
