"""Run manifests: one JSON artifact per train / detect / bench run.

A :class:`RunManifest` captures everything needed to compare two runs
without re-running them: the command and arguments, a summary of the
:class:`~repro.core.config.DetectorConfig`, a content fingerprint of the
dataset, per-stage timing aggregates pulled from the tracer, headline
metrics (accuracy, false alarms, extras, runtime), and the host
environment.  The CLI writes one next to every model / report it
produces; ``repro report <manifest>`` renders or diffs them.

Fingerprints hash geometry, not file paths: a clip set fingerprints as
the sha256 over every clip's core/window/rect integer coordinates and
label, so the same benchmark generated twice — or moved between
machines — fingerprints identically, while any geometric change shows
up as a different digest.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
import time
import uuid
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterable, Optional

SCHEMA_VERSION = 1


def new_run_id() -> str:
    """A sortable, collision-safe run id: UTC stamp + random suffix."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def new_request_id() -> str:
    """A compact id for one serving request (X-Request-Id default)."""
    return uuid.uuid4().hex[:16]


def config_summary(config: Any) -> dict:
    """A JSON-safe dump of a (possibly nested) config dataclass."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return _json_safe(dataclasses.asdict(config))
    if isinstance(config, dict):
        return _json_safe(config)
    return {"repr": repr(config)}


def fingerprint_rects(rects: Iterable) -> str:
    """sha256 over an iterable of rectangle-like (x0, y0, x1, y1).

    The digest format is load-bearing beyond manifest diffing: the shard
    journal (``repro.work``) keys every shard by this influence-region
    hash, which ``--resume`` and ``--incremental`` match on, and the cache keys
    in :mod:`repro.cache.keys` follow the same content-hash discipline.
    Changing the format only ever *invalidates* stored hashes (a mismatch
    costs a recompute, never a wrong reuse), but it silently turns every
    existing journal into a cold scan — bump deliberately.
    """
    return fingerprint_rows([v for r in rects for v in (r.x0, r.y0, r.x1, r.y1)])


def fingerprint_rows(rows) -> str:
    """:func:`fingerprint_rects` of rects given as a flat sequence of
    integers, four per rect (as :func:`repro.cache.keys.rows_text`
    renders them)."""
    from repro.cache.keys import rows_text

    return sha256(f"{rows_text(rows)}n={len(rows) // 4}".encode()).hexdigest()


def fingerprint_clipset(clips: Iterable) -> dict:
    """Content fingerprint of a clip set (order-sensitive, path-free).

    Hashes each clip's core and window coordinates, its label when
    present, and the rectangles it contains; duck-typed so it accepts
    anything with ``core``/``window``/``rects`` rectangle attributes.
    """
    digest = sha256()
    count = 0
    hotspots = 0
    for clip in clips:
        count += 1
        label = getattr(clip, "label", None)
        if label is not None:
            value = getattr(label, "value", label)  # enum-or-int labels
            digest.update(f"L{value};".encode())
            if str(value).lower() in ("hotspot", "1", "true"):
                hotspots += 1
        for name in ("core", "window"):
            rect = getattr(clip, name, None)
            if rect is not None:
                digest.update(
                    f"{name}:{int(rect.x0)},{int(rect.y0)},"
                    f"{int(rect.x1)},{int(rect.y1)};".encode()
                )
        for rect in getattr(clip, "rects", ()) or ():
            digest.update(
                f"r:{int(rect.x0)},{int(rect.y0)},{int(rect.x1)},{int(rect.y1)};".encode()
            )
    digest.update(f"n={count}".encode())
    out = {"clips": count, "sha256": digest.hexdigest()}
    if hotspots:
        out["hotspots"] = hotspots
    return out


def fingerprint_layout(layout: Any) -> dict:
    """Content fingerprint of a layout (anything exposing ``rects``)."""
    rects = list(getattr(layout, "rects", ()) or ())
    return {"rects": len(rects), "sha256": fingerprint_rects(rects)}


def environment_summary() -> dict:
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


@dataclasses.dataclass
class RunManifest:
    """The per-run artifact; see module docstring for field semantics."""

    run_id: str
    command: str
    created_unix: float
    argv: list = dataclasses.field(default_factory=list)
    config: dict = dataclasses.field(default_factory=dict)
    dataset: dict = dataclasses.field(default_factory=dict)
    stages: dict = dataclasses.field(default_factory=dict)
    metrics: dict = dataclasses.field(default_factory=dict)
    environment: dict = dataclasses.field(default_factory=dict)
    artifacts: dict = dataclasses.field(default_factory=dict)
    wall_s: float = 0.0
    schema: int = SCHEMA_VERSION
    _started_perf: float = dataclasses.field(default=0.0, repr=False, compare=False)

    # ------------------------------------------------------------------
    @classmethod
    def new(cls, command: str, argv: Optional[list] = None, run_id: Optional[str] = None):
        manifest = cls(
            run_id=run_id or new_run_id(),
            command=command,
            created_unix=time.time(),
            argv=list(argv if argv is not None else sys.argv[1:]),
            environment=environment_summary(),
        )
        manifest._started_perf = time.perf_counter()
        return manifest

    def finish(self, tracer: Optional[object] = None) -> "RunManifest":
        """Seal the run: total wall time plus the tracer's stage totals."""
        self.wall_s = round(time.perf_counter() - self._started_perf, 6)
        if tracer is not None and getattr(tracer, "enabled", False):
            self.stages = tracer.stage_totals()
        return self

    # ------------------------------------------------------------------
    def record_metrics(self, **metrics: Any) -> None:
        self.metrics.update(_json_safe(metrics))

    def record_artifact(self, kind: str, path) -> None:
        self.artifacts[kind] = str(path)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out.pop("_started_perf", None)
        return _json_safe(out)

    def write(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        fields = {f.name for f in dataclasses.fields(cls) if f.name != "_started_perf"}
        known = {k: v for k, v in data.items() if k in fields}
        known.setdefault("run_id", "unknown")
        known.setdefault("command", "unknown")
        known.setdefault("created_unix", 0.0)
        return cls(**known)

    @classmethod
    def load(cls, path) -> "RunManifest":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(data)


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if hasattr(value, "item"):  # numpy scalars
        try:
            return _json_safe(value.item())
        except Exception:
            pass
    return str(value)
