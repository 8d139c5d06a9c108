"""Structured JSON-lines logging with bound, run-scoped context.

The CLI and the serving layer emit one JSON object per line to a stream
(stderr by default) when structured logging is switched on::

    from repro.obs import get_logger

    log = get_logger("serve").bind(run_id=run_id, model="benchmark1")
    log.info("request", endpoint="/v1/predict", status=200, seconds=0.012)

Logging is **disabled by default** — `.info()` on an unconfigured
logger is a cheap early return, so library code can log unconditionally
without polluting stdout (several CLI tests parse stdout as JSON).
:func:`configure` flips the switch (the ``--json-logs`` CLI flag); the
global configuration carries a base context (run id, command) merged
under each logger's bound context.

The line schema is flat and stable::

    {"ts": <unix seconds>, "level": "info", "logger": "serve",
     "event": "request", ...bound context..., ...event fields...}
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Optional, TextIO

_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class _Config:
    __slots__ = ("enabled", "stream", "level", "context")

    def __init__(self) -> None:
        self.enabled = False
        self.stream: Optional[TextIO] = None
        self.level = _LEVELS["info"]
        self.context: dict = {}


_config = _Config()
_write_lock = threading.Lock()
_thread_context = threading.local()


class _BoundContext:
    """Context manager restoring the thread-local log context on exit."""

    __slots__ = ("_previous",)

    def __init__(self, previous: dict) -> None:
        self._previous = previous

    def __enter__(self) -> "_BoundContext":
        return self

    def __exit__(self, *exc) -> bool:
        _thread_context.fields = self._previous
        return False


def log_context(**fields: Any) -> _BoundContext:
    """Bind fields onto every log line emitted by *this thread*.

    Used by the fleet HTTP servers to stamp the caller's request id onto
    whatever the handler logs, without threading a logger through every
    call::

        with log_context(request_id=rid):
            ...  # any get_logger(...) line in here carries request_id

    Nests: inner bindings shadow outer ones and are restored on exit.
    """
    previous = getattr(_thread_context, "fields", None) or {}
    merged = dict(previous)
    merged.update(fields)
    _thread_context.fields = merged
    return _BoundContext(previous)


def configure(
    enabled: bool = True,
    stream: Optional[TextIO] = None,
    level: str = "info",
    **context: Any,
) -> None:
    """Switch structured logging on (or off) process-wide.

    ``context`` keys (run_id, command, ...) are stamped on every line.
    """
    _config.enabled = enabled
    _config.stream = stream
    _config.level = _LEVELS.get(level, _LEVELS["info"])
    _config.context = dict(context)


class StructuredLogger:
    """A named logger with an immutable bound context."""

    __slots__ = ("name", "_context")

    def __init__(self, name: str, context: Optional[dict] = None) -> None:
        self.name = name
        self._context = dict(context or {})

    def bind(self, **context: Any) -> "StructuredLogger":
        """A child logger whose lines carry the merged context."""
        merged = dict(self._context)
        merged.update(context)
        return StructuredLogger(self.name, merged)

    # ------------------------------------------------------------------
    def debug(self, event: str, **fields: Any) -> None:
        self._emit("debug", event, fields)

    def info(self, event: str, **fields: Any) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields: Any) -> None:
        self._emit("error", event, fields)

    def _emit(self, level: str, event: str, fields: dict) -> None:
        if not _config.enabled or _LEVELS[level] < _config.level:
            return
        record = {
            "ts": round(time.time(), 6),
            "level": level,
            "logger": self.name,
            "event": event,
        }
        record.update(_config.context)
        thread_fields = getattr(_thread_context, "fields", None)
        if thread_fields:
            record.update(thread_fields)
        record.update(self._context)
        record.update(fields)
        line = json.dumps(record, default=str)
        stream = _config.stream or sys.stderr
        with _write_lock:
            stream.write(line + "\n")
            stream.flush()


def get_logger(name: str) -> StructuredLogger:
    """A logger for one subsystem (``"cli"``, ``"serve"``, ...)."""
    return StructuredLogger(name)
