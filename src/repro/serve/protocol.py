"""Wire format of the serving API: JSON payloads <-> domain objects.

Requests and responses are plain JSON so any client can speak the
protocol.  Geometry is encoded as integer DBU rectangles
``[x0, y0, x1, y1]``:

``POST /v1/predict`` ::

    {"model": "default",          # optional; the registry default
     "threshold": 0.5,            # optional; the model's trained value
     "clips": [
        {"window": [x0, y0, x1, y1],   # clip_side x clip_side square
         "rects":  [[x0, y0, x1, y1], ...]},
        ...]}
    -> {"model": "default", "threshold": 0.0,
        "flags": [true, false, ...], "margins": [0.83, -1.2, ...],
        "count": 2, "batch": {...telemetry...}}

``POST /v1/scan`` ::

    {"model": "default", "layer": 1, "threshold": null,
     "rects": [[x0, y0, x1, y1], ...]}
    -> {"reports": [{"core": [...], "window": [...]}, ...],
        "candidates": 41, "eval_seconds": 0.8, ...}

Decoding is strict: malformed payloads raise :class:`ProtocolError`
with a message naming the offending field, which the HTTP layer turns
into a structured ``400``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.training import GATED_OUT
from repro.errors import ServeError
from repro.geometry.rect import Rect
from repro.layout.clip import Clip, ClipSpec
from repro.layout.layout import Layout


class ProtocolError(ServeError):
    """The request payload does not match the wire format."""


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------


def decode_rect(payload: object, field: str) -> Rect:
    if (
        not isinstance(payload, (list, tuple))
        or len(payload) != 4
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in payload)
    ):
        raise ProtocolError(
            f"{field} must be an integer rectangle [x0, y0, x1, y1], got {payload!r}"
        )
    x0, y0, x1, y1 = payload
    if x0 >= x1 or y0 >= y1:
        raise ProtocolError(f"{field} is degenerate: {payload!r}")
    return Rect(x0, y0, x1, y1)


def encode_rect(rect: Rect) -> list[int]:
    return [rect.x0, rect.y0, rect.x1, rect.y1]


def decode_rects(payload: object, field: str) -> list[Rect]:
    if not isinstance(payload, list):
        raise ProtocolError(f"{field} must be a list of rectangles")
    return [decode_rect(item, f"{field}[{i}]") for i, item in enumerate(payload)]


def _get_threshold(document: dict) -> Optional[float]:
    threshold = document.get("threshold")
    if threshold is None:
        return None
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise ProtocolError(f"threshold must be a number, got {threshold!r}")
    return float(threshold)


def request_model_name(document: object) -> Optional[str]:
    """The model a request addresses (``None`` = registry default).

    Used before full decoding: the clip spec needed to decode geometry
    belongs to the addressed model.
    """
    if not isinstance(document, dict):
        raise ProtocolError("request body must be a JSON object")
    model = document.get("model")
    if model is not None and not isinstance(model, str):
        raise ProtocolError(f"model must be a string, got {model!r}")
    return model


_get_model = request_model_name


def _get_layer(document: dict) -> int:
    layer = document.get("layer", 1)
    if isinstance(layer, bool) or not isinstance(layer, int):
        raise ProtocolError(f"layer must be an integer, got {layer!r}")
    return layer


# ----------------------------------------------------------------------
# predict
# ----------------------------------------------------------------------


def decode_clip(payload: object, spec: ClipSpec, layer: int, field: str) -> Clip:
    if not isinstance(payload, dict):
        raise ProtocolError(f"{field} must be an object with window/rects")
    if "window" not in payload:
        raise ProtocolError(f"{field} is missing 'window'")
    window = decode_rect(payload["window"], f"{field}.window")
    if window.width != spec.clip_side or window.height != spec.clip_side:
        raise ProtocolError(
            f"{field}.window must be a {spec.clip_side} DBU square for this "
            f"model, got {window.width}x{window.height}"
        )
    rects = decode_rects(payload.get("rects", []), f"{field}.rects")
    return Clip.build(window, spec, rects, layer=layer)


def encode_clip(clip: Clip) -> dict:
    return {
        "window": encode_rect(clip.window),
        "rects": [encode_rect(rect) for rect in clip.rects],
    }


def decode_predict_request(
    document: object, spec: ClipSpec
) -> tuple[list[Clip], Optional[float], Optional[str]]:
    """Parse a ``/v1/predict`` body into (clips, threshold, model name)."""
    if not isinstance(document, dict):
        raise ProtocolError("request body must be a JSON object")
    clips_payload = document.get("clips")
    if not isinstance(clips_payload, list) or not clips_payload:
        raise ProtocolError("'clips' must be a non-empty list")
    layer = _get_layer(document)
    clips = [
        decode_clip(item, spec, layer, f"clips[{i}]")
        for i, item in enumerate(clips_payload)
    ]
    return clips, _get_threshold(document), _get_model(document)


def encode_predict_response(
    model: str,
    threshold: float,
    flags: Sequence[bool],
    margins: Sequence[float],
    request_id: Optional[str] = None,
) -> dict:
    document = {
        "model": model,
        "threshold": threshold,
        "flags": [bool(f) for f in flags],
        "margins": [float(m) for m in margins],
        "count": int(sum(bool(f) for f in flags)),
    }
    if request_id is not None:
        document["request_id"] = request_id
    return document


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------


def decode_scan_request(
    document: object,
) -> tuple[Layout, int, Optional[float], Optional[str]]:
    """Parse a ``/v1/scan`` body into (layout, layer, threshold, model)."""
    if not isinstance(document, dict):
        raise ProtocolError("request body must be a JSON object")
    rects = decode_rects(document.get("rects"), "rects")
    if not rects:
        raise ProtocolError("'rects' must be a non-empty list")
    layer = _get_layer(document)
    threshold = _get_threshold(document)
    if threshold is not None and threshold <= GATED_OUT:
        raise ProtocolError(
            f"scan threshold must be above GATED_OUT ({GATED_OUT:g})"
        )
    layout = Layout()
    for rect in rects:
        layout.add_rect(layer, rect)
    return layout, layer, threshold, _get_model(document)


def encode_scan_response(model: str, report, request_id: Optional[str] = None) -> dict:
    """Serialise a :class:`~repro.core.detector.DetectionReport`."""
    document = {
        "model": model,
        "reports": [
            {"core": encode_rect(clip.core), "window": encode_rect(clip.window)}
            for clip in report.reports
        ],
        "count": report.report_count,
        "candidates": report.extraction.candidate_count,
        "flagged_before_feedback": report.flagged_before_feedback,
        "flagged_after_feedback": report.flagged_after_feedback,
        "eval_seconds": report.eval_seconds,
        "quarantined": getattr(report, "quarantined", 0),
        "feedback_degraded": getattr(report, "feedback_degraded", False),
    }
    if request_id is not None:
        document["request_id"] = request_id
    return document

