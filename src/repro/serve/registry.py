"""Named detector versions with hot-reload on file change.

The registry maps model names to loaded
:class:`~repro.core.detector.HotspotDetector` instances backed by
``.npz`` archives (:mod:`repro.core.persist`).  Multiple versions serve
side by side; each lookup cheaply re-``stat``\\ s the backing file (at
most once per ``poll_interval``) and transparently reloads when the
archive's mtime or size changes — so a deploy is "overwrite the file".

Loads are guarded per entry, so concurrent request threads never load
the same archive twice, and readers keep getting the previous detector
until the replacement is fully constructed (load is atomic-swap).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Optional, Union

from repro.core.detector import HotspotDetector
from repro.core.persist import load_detector, read_archive_info
from repro.errors import ModelNotFoundError, ServeError, TransientError
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy, call_with_retry

#: Registry name used when the caller does not pick one.
DEFAULT_MODEL = "default"

#: Archive loads retry torn reads: a deploy is "overwrite the file", so a
#: reader can race the writer and see a half-written npz for a moment.
#: ValueError covers numpy/zip/json complaints about truncated archives.
LOAD_RETRY = RetryPolicy(
    attempts=3,
    base_delay_s=0.02,
    max_delay_s=0.25,
    retry_on=(TransientError, OSError, ValueError),
)


@dataclass
class ModelEntry:
    """One loaded model version."""

    name: str
    path: Path
    detector: HotspotDetector
    info: dict
    mtime: float
    size: int
    loaded_unix: float
    reloads: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def spec(self):
        return self.detector.config.spec


def _stat_signature(path: Path) -> tuple[float, int]:
    stat = os.stat(path)
    return stat.st_mtime, stat.st_size


class ModelRegistry:
    """Thread-safe named collection of detector archives.

    Parameters
    ----------
    poll_interval:
        Minimum seconds between file-change checks per model.  ``0``
        checks on every lookup (used by the hot-reload tests).
    metrics:
        Optional :class:`~repro.serve.metrics.MetricsRegistry`; model
        load timestamps, load durations and reload counts are emitted
        when present.
    cache:
        Optional shared :class:`repro.cache.HotspotCache`, attached to
        every loaded detector (including hot reloads) so repeated clip
        geometries are extracted and scored once across requests and
        model versions.
    """

    def __init__(self, poll_interval: float = 1.0, metrics=None, cache=None) -> None:
        self.poll_interval = poll_interval
        self.metrics = metrics
        self.cache = cache
        self._entries: dict[str, ModelEntry] = {}
        self._lock = threading.Lock()
        self._last_poll: dict[str, float] = {}

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load(self, path: Union[str, Path], name: Optional[str] = None) -> ModelEntry:
        """Load (or replace) the model ``name`` from a ``.npz`` archive."""
        path = Path(path)
        if name is None:
            name = DEFAULT_MODEL if not self._entries else path.stem
        started = time.perf_counter()

        def _load() -> tuple[tuple[float, int], HotspotDetector, dict]:
            faults.inject("registry.load", model=name, path=str(path))
            signature = _stat_signature(path)
            return signature, load_detector(path), read_archive_info(path)

        try:
            (mtime, size), detector, info = call_with_retry(
                _load, LOAD_RETRY, label=f"model:{name}"
            )
            if self.metrics is not None:
                detector.metrics_sink_ = self.metrics
            if self.cache is not None:
                detector.attach_cache(self.cache)
        except (OSError, ValueError) as exc:
            raise ServeError(f"cannot load model {name!r} from {path}: {exc}") from exc
        entry = ModelEntry(
            name=name,
            path=path,
            detector=detector,
            info=info,
            mtime=mtime,
            size=size,
            loaded_unix=time.time(),
        )
        with self._lock:
            previous = self._entries.get(name)
            if previous is not None:
                entry.reloads = previous.reloads + 1
            self._entries[name] = entry
            self._last_poll[name] = time.monotonic()
        self._emit_load_metrics(entry, time.perf_counter() - started)
        return entry

    def _emit_load_metrics(self, entry: ModelEntry, seconds: float) -> None:
        if self.metrics is None:
            return
        self.metrics.gauge(
            "serve_model_loaded_timestamp_seconds",
            "Unix time the model version was loaded.",
            labels=("model",),
        ).labels(entry.name).set(entry.loaded_unix)
        self.metrics.counter(
            "serve_model_loads_total",
            "Model archive loads, including hot reloads.",
            labels=("model",),
        ).labels(entry.name).inc()
        self.metrics.histogram(
            "serve_model_load_seconds",
            "Time spent loading a model archive.",
            labels=("model",),
        ).labels(entry.name).observe(seconds)

    # ------------------------------------------------------------------
    # lookup + hot reload
    # ------------------------------------------------------------------
    def get(self, name: Optional[str] = None) -> ModelEntry:
        """The named model (or the only/default one), hot-reloaded."""
        with self._lock:
            if not self._entries:
                raise ModelNotFoundError("no model loaded")
            if name is None:
                if DEFAULT_MODEL in self._entries:
                    name = DEFAULT_MODEL
                elif len(self._entries) == 1:
                    name = next(iter(self._entries))
                else:
                    raise ModelNotFoundError(
                        f"model name required; loaded: {sorted(self._entries)}"
                    )
            entry = self._entries.get(name)
            if entry is None:
                raise ModelNotFoundError(
                    f"model {name!r} not loaded; loaded: {sorted(self._entries)}"
                )
        return self._maybe_reload(entry)

    def _maybe_reload(self, entry: ModelEntry) -> ModelEntry:
        now = time.monotonic()
        with self._lock:
            last = self._last_poll.get(entry.name, 0.0)
            if now - last < self.poll_interval:
                return self._entries.get(entry.name, entry)
            self._last_poll[entry.name] = now
        with entry.lock:
            current = self._entries.get(entry.name)
            if current is not entry:  # replaced while we waited
                return current or entry
            try:
                mtime, size = _stat_signature(entry.path)
            except OSError:
                # The file vanished mid-deploy; keep serving the loaded copy.
                return entry
            if (mtime, size) == (entry.mtime, entry.size):
                return entry
            return self.load(entry.path, entry.name)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def signature(self) -> str:
        """Deterministic version id of the loaded model set.

        Hashes every (name, mtime, size) triple, so two replicas agree
        iff they loaded the same archive bytes under the same names —
        the membership layer publishes this so a fleet front end can
        spot replicas that drifted apart mid-deploy.
        """
        with self._lock:
            triples = sorted(
                (entry.name, entry.mtime, entry.size)
                for entry in self._entries.values()
            )
        blob = json.dumps(triples, sort_keys=True)
        return sha256(blob.encode("utf-8")).hexdigest()[:16]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def unload(self, name: str) -> None:
        with self._lock:
            if name not in self._entries:
                raise ModelNotFoundError(f"model {name!r} not loaded")
            del self._entries[name]
            self._last_poll.pop(name, None)

    def describe(self) -> list[dict]:
        """JSON-friendly description of every loaded version."""
        with self._lock:
            entries = list(self._entries.values())
        out = []
        for entry in sorted(entries, key=lambda e: e.name):
            out.append(
                {
                    "name": entry.name,
                    "path": str(entry.path),
                    "loaded_unix": entry.loaded_unix,
                    "reloads": entry.reloads,
                    "spec": {
                        "core_side": entry.spec.core_side,
                        "clip_side": entry.spec.clip_side,
                    },
                    "kernels": entry.info.get("kernels"),
                    "feedback": entry.info.get("feedback"),
                    "decision_threshold": entry.info.get("decision_threshold"),
                    "registry": entry.info.get("registry"),
                }
            )
        return out
