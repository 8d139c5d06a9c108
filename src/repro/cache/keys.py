"""Content-addressed cache keys for clips, configs and models.

Every cached artifact is addressed by *what it was computed from*, never
by where it came from:

- :func:`clip_content_key` hashes a clip's geometry after translating it
  to the origin, so the same pattern cut from two layout locations — or
  from two runs over the same layout — shares one key.  Orientations
  keep distinct keys: a density-grid extraction sees orientation, so a
  key shared across the D8 group would be unsound for it.  The scan
  funnel's candidates (:class:`~repro.core.extraction.CandidateClips`)
  hash the same key from their integer rows through
  :func:`rows_content_key`, without building the clip.
- :func:`feature_fingerprint` hashes a :class:`~repro.features.vector.
  FeatureConfig`, versioning every cached feature blob by the extraction
  configuration that produced it.
- :func:`model_fingerprint` hashes a trained
  :class:`~repro.core.training.MultiKernelModel`'s kernels (weights,
  support vectors, schemas, gates) — the only state per-kernel margins
  depend on; :func:`feedback_fingerprint` does the same for the
  feedback kernel.

Labels, layer numbers and file paths are deliberately excluded: none of
them influence features or margins, and including them would split the
cache for no gain.
"""

from __future__ import annotations

import dataclasses
import json
from hashlib import sha256

import numpy as np

#: Bump to invalidate every existing cache entry on a format change.
CACHE_KEY_VERSION = 1


def rows_text(rows) -> str:
    """The ``x0,y0,x1,y1;`` text of rects given as a flat sequence of
    integers, four per rect, in the order given.

    Content keys hash it, and so do the geometry fingerprints of
    :func:`repro.obs.fingerprint_rects` that key the scan journal.
    """
    return ("%d,%d,%d,%d;" * (len(rows) // 4)) % tuple(rows)


def rows_content_key(spec, width: int, height: int, rows) -> str:
    """Content key of a ``width`` x ``height`` clip window of ``spec``
    holding the rects ``rows``.

    ``rows`` are the clip's rects minus the window's lower-left corner,
    in ``Rect`` order, flattened as in :func:`rows_text`.  Every content
    key is hashed here: by :func:`clip_content_key`, and by the scan
    funnel's candidates straight from their integer rows.
    """
    text = (
        f"v{CACHE_KEY_VERSION};{width}x{height};"
        f"core={spec.core_side};ambit={spec.ambit_margin};raw;{rows_text(rows)}"
    )
    return sha256(text.encode()).hexdigest()


def clip_content_key(clip) -> str:
    """Translation-invariant geometry hash of a clip.

    Hashes ``clip.rects`` minus the window origin: every clip constructor
    sorts its rects and translation keeps that order, so this is the
    sorted normalized geometry without building it.
    """
    window = clip.window
    dx, dy = window.x0, window.y0
    rows = [
        v for r in clip.rects for v in (r.x0 - dx, r.y0 - dy, r.x1 - dx, r.y1 - dy)
    ]
    return rows_content_key(clip.spec, window.width, window.height, rows)


def feature_fingerprint(config) -> str:
    """Hash of a feature-extraction configuration (cache version tag)."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        summary = dataclasses.asdict(config)
    else:
        summary = {"repr": repr(config)}
    blob = json.dumps(
        {"version": CACHE_KEY_VERSION, "features": summary},
        sort_keys=True,
        default=str,
    )
    return sha256(blob.encode("utf-8")).hexdigest()


def model_fingerprint(model) -> str:
    """Hash of the state per-kernel margins depend on.

    Covers the trained kernels (weights, support vectors, schemas,
    gates) and the extractor configuration — the same clip extracted
    under a different :class:`FeatureConfig` yields different vectors,
    so the config is part of the margin identity.
    """
    from repro.core.persist import encode_trained_kernel

    arrays: dict = {}
    metas = [
        encode_trained_kernel(kernel, arrays, f"k{index}")
        for index, kernel in enumerate(model.kernels)
    ]
    payload = {"kernels": metas, "features": feature_fingerprint(model.extractor.config)}
    return _state_digest(payload, arrays)


def feedback_fingerprint(feedback) -> str:
    """Hash of the state feedback verdicts depend on, or ``"none"``.

    Covers the feedback kernel's schema, SVM arrays and extractor
    configuration, as persisted in a model archive.
    """
    if feedback is None:
        return "none"
    from repro.core.persist import encode_feedback_kernel

    arrays: dict = {}
    return _state_digest(encode_feedback_kernel(feedback, arrays), arrays)


def _state_digest(payload: dict, arrays: dict) -> str:
    """sha256 of a JSON ``payload`` followed by each named array's bytes."""
    digest = sha256(json.dumps(payload, sort_keys=True, default=str).encode("utf-8"))
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()
