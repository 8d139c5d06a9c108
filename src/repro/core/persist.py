"""Trained-model persistence: save/load a fitted detector without pickle.

A trained :class:`~repro.core.detector.HotspotDetector` is a bundle of
small numpy arrays (support vectors, dual coefficients, scaler state) and
plain metadata (schemas, gates, config).  It serialises to a single
``.npz`` archive whose ``meta`` entry is a JSON document and whose other
entries are the arrays — portable, diffable, and safe to load from
untrusted sources (no code execution on load, unlike pickle).
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.detector import HotspotDetector
from repro.core.feedback import FeedbackKernel
from repro.core.training import MultiKernelModel, TrainedKernel
from repro.errors import ConfigError, NotFittedError
from repro.features.vector import FeatureConfig, FeatureExtractor, FeatureSchema
from repro.mtcg.rules import FeatureType
from repro.svm.model import SupportVectorClassifier
from repro.svm.scaling import MinMaxScaler, StandardScaler
from repro.topology.cluster import TopologicalClassifier

#: Format version; bump on breaking layout changes.
FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# component encoders
# ----------------------------------------------------------------------


def _encode_schema(schema: FeatureSchema) -> dict:
    return {ftype.value: count for ftype, count in schema.counts.items()}


def _decode_schema(payload: dict) -> FeatureSchema:
    return FeatureSchema({FeatureType(name): count for name, count in payload.items()})


def _encode_svc(model: SupportVectorClassifier, arrays: dict, prefix: str) -> dict:
    if model.support_vectors_ is None or model.dual_coef_ is None:
        raise NotFittedError("cannot persist an unfitted classifier")
    arrays[f"{prefix}_sv"] = model.support_vectors_
    arrays[f"{prefix}_coef"] = model.dual_coef_
    meta = {
        "C": model.C,
        "gamma": model.gamma,
        "kernel": model.kernel,
        "bias": model.bias_,
        "far_field_floor": model.far_field_floor,
        "scaler": None,
    }
    scaler = model.scaler_
    if isinstance(scaler, MinMaxScaler):
        arrays[f"{prefix}_smin"] = scaler.min_
        arrays[f"{prefix}_sspan"] = scaler.span_
        meta["scaler"] = "minmax"
    elif isinstance(scaler, StandardScaler):
        arrays[f"{prefix}_smin"] = scaler.mean_
        arrays[f"{prefix}_sspan"] = scaler.scale_
        meta["scaler"] = "standard"
    return meta


def _decode_svc(meta: dict, arrays, prefix: str) -> SupportVectorClassifier:
    model = SupportVectorClassifier(
        C=meta["C"],
        gamma=meta["gamma"],
        kernel=meta["kernel"],
        far_field_floor=meta["far_field_floor"],
        scale_features="none",
    )
    model.support_vectors_ = arrays[f"{prefix}_sv"]
    model.dual_coef_ = arrays[f"{prefix}_coef"]
    model.bias_ = meta["bias"]
    if meta["scaler"] == "minmax":
        scaler = MinMaxScaler()
        scaler.min_ = arrays[f"{prefix}_smin"]
        scaler.span_ = arrays[f"{prefix}_sspan"]
        model.scaler_ = scaler
    elif meta["scaler"] == "standard":
        scaler = StandardScaler()
        scaler.mean_ = arrays[f"{prefix}_smin"]
        scaler.scale_ = arrays[f"{prefix}_sspan"]
        model.scaler_ = scaler
    return model


def _encode_key_set(key_set: Optional[frozenset]) -> Optional[list]:
    if key_set is None:
        return None
    # A canonical key is a 4-tuple of int tuples; JSON-encode as lists.
    return sorted([list(side) for side in key] for key in key_set)


def _decode_key_set(payload: Optional[list]) -> Optional[frozenset]:
    if payload is None:
        return None
    return frozenset(tuple(tuple(side) for side in key) for key in payload)


def _encode_feature_config(config: FeatureConfig) -> dict:
    return {
        "region": config.region,
        "context_margin": config.context_margin,
        "diagonal_max_gap": config.diagonal_max_gap,
        "include_density_grid": config.include_density_grid,
        "density_resolution": config.density_resolution,
        "canonical_orientation": config.canonical_orientation,
    }


def _decode_feature_config(payload: dict) -> FeatureConfig:
    # Older archives also record a ``compute`` mode ("exact" or "fast").
    # Margins are now always evaluated row by row, so the key is ignored.
    payload = {key: value for key, value in payload.items() if key != "compute"}
    return FeatureConfig(**payload)


def encode_feedback_kernel(feedback, arrays: dict) -> dict:
    """A feedback kernel's JSON metadata; its SVM arrays go into ``arrays``."""
    return {
        "schema": _encode_schema(feedback.schema),
        "svc": _encode_svc(feedback.model, arrays, "fb"),
        "features": _encode_feature_config(feedback.extractor.config),
        "extras_used": feedback.extras_used,
        "hotspots_used": feedback.hotspots_used,
    }


def encode_trained_kernel(kernel: TrainedKernel, arrays: dict, prefix: str) -> dict:
    """Encode one kernel into ``arrays`` (mutated) plus a JSON-safe meta.

    Shared by full-detector archives and per-cluster training
    checkpoints (:mod:`repro.resilience.checkpoint`).
    """
    import dataclasses

    return {
        "cluster_index": kernel.cluster_index,
        "schema": _encode_schema(kernel.schema),
        "svc": _encode_svc(kernel.model, arrays, prefix),
        "key_set": _encode_key_set(kernel.key_set),
        "hotspot_count": kernel.hotspot_count,
        "nonhotspot_count": kernel.nonhotspot_count,
        "history": [dataclasses.asdict(round_) for round_ in kernel.history],
    }


def decode_trained_kernel(meta: dict, arrays, prefix: str) -> TrainedKernel:
    """Inverse of :func:`encode_trained_kernel`."""
    from repro.svm.grid_search import TrainingRound

    return TrainedKernel(
        cluster_index=meta["cluster_index"],
        schema=_decode_schema(meta["schema"]),
        model=_decode_svc(meta["svc"], arrays, prefix),
        key_set=_decode_key_set(meta["key_set"]),
        hotspot_count=meta["hotspot_count"],
        nonhotspot_count=meta["nonhotspot_count"],
        history=[TrainingRound(**round_) for round_ in meta.get("history") or []],
    )


def encode_kernel_payload(kernel: TrainedKernel) -> bytes:
    """One kernel as compressed npz bytes: a training-journal unit."""
    arrays: dict = {}
    meta = encode_trained_kernel(kernel, arrays, "k")
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def decode_kernel_payload(raw: bytes, index: int) -> TrainedKernel:
    """Inverse of :func:`encode_kernel_payload` for the kernel at ``index``.

    Raises on malformed bytes or a kernel of another cluster; the
    training journal counts either as one kernel to retrain.
    """
    with np.load(io.BytesIO(raw)) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    if meta["cluster_index"] != index:
        raise ValueError(f"kernel {meta['cluster_index']} journaled as {index}")
    return decode_trained_kernel(meta, arrays, "k")


# ----------------------------------------------------------------------
# save / load
# ----------------------------------------------------------------------


def save_detector(
    detector: HotspotDetector,
    path: Union[str, Path],
    name: Optional[str] = None,
) -> None:
    """Persist a fitted detector to a ``.npz`` archive.

    ``name`` labels the archive for model registries (``repro serve``);
    it is advisory metadata and does not affect loading.
    """
    model = detector.model_
    if model is None:
        raise NotFittedError("cannot save an unfitted detector")
    arrays: dict = {}
    kernels_meta = [
        encode_trained_kernel(kernel, arrays, f"k{index}")
        for index, kernel in enumerate(model.kernels)
    ]
    feedback_meta = None
    if detector.feedback_ is not None:
        feedback_meta = encode_feedback_kernel(detector.feedback_, arrays)
    meta = {
        "format": FORMAT_VERSION,
        "decision_threshold": detector.config.decision_threshold,
        "spec": {
            "core_side": detector.config.spec.core_side,
            "clip_side": detector.config.spec.clip_side,
        },
        "features": _encode_feature_config(model.extractor.config),
        "kernels": kernels_meta,
        "feedback": feedback_meta,
        # Ablation switches travel with the model so a reloaded detector
        # evaluates exactly like the saved one (``use_removal`` changes
        # ``detect`` output; the others keep the config honest).
        "switches": {
            "use_topology": detector.config.use_topology,
            "use_feedback": detector.config.use_feedback,
            "use_removal": detector.config.use_removal,
        },
        # Advisory registry metadata (``repro serve``, ``info``).
        "registry": {
            "name": name,
            "created_unix": time.time(),
            "kernels": len(model.kernels),
            "feedback": feedback_meta is not None,
        },
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def load_detector(
    path: Union[str, Path], config: Optional[DetectorConfig] = None
) -> HotspotDetector:
    """Load a detector saved by :func:`save_detector`.

    ``config`` overrides runtime knobs (e.g. the threshold); the
    persisted feature configuration and kernels always win for anything
    affecting the model's numerical behaviour.
    """
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    try:
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"not a detector archive: {exc}") from exc
    if meta.get("format") != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported detector archive format {meta.get('format')!r}"
        )

    from repro.layout.clip import ClipSpec

    spec = ClipSpec(**meta["spec"])
    features = _decode_feature_config(meta["features"])
    base = config or DetectorConfig()
    from dataclasses import replace

    switches = meta.get("switches") or {}
    detector_config = replace(
        base,
        spec=spec,
        features=features,
        decision_threshold=meta["decision_threshold"],
        use_topology=switches.get("use_topology", base.use_topology),
        use_feedback=switches.get("use_feedback", base.use_feedback),
        use_removal=switches.get("use_removal", base.use_removal),
    )

    kernels = [
        decode_trained_kernel(kernel_meta, arrays, f"k{index}")
        for index, kernel_meta in enumerate(meta["kernels"])
    ]
    model = MultiKernelModel(
        kernels=kernels,
        hotspot_clips=[],
        hotspot_clusters=[],
        nonhotspot_centroids=[],
        extractor=FeatureExtractor(features),
        classifier=TopologicalClassifier(detector_config.classifier),
    )
    feedback = None
    if meta["feedback"] is not None:
        fb = meta["feedback"]
        feedback = FeedbackKernel(
            schema=_decode_schema(fb["schema"]),
            model=_decode_svc(fb["svc"], arrays, "fb"),
            extractor=FeatureExtractor(_decode_feature_config(fb["features"])),
            extras_used=fb["extras_used"],
            hotspots_used=fb["hotspots_used"],
        )
    detector = HotspotDetector(detector_config)
    detector.model_ = model
    detector.feedback_ = feedback
    return detector


def read_archive_info(path: Union[str, Path]) -> dict:
    """Describe a detector archive without constructing the detector.

    Model registries and ``repro info`` use this to show what an archive
    holds (kernel count, spec, registry metadata) at ``stat`` cost rather
    than full model-load cost.
    """
    with np.load(path) as archive:
        try:
            meta = json.loads(bytes(archive["meta"]).decode("utf-8"))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"not a detector archive: {exc}") from exc
    if meta.get("format") != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported detector archive format {meta.get('format')!r}"
        )
    return {
        "format": meta["format"],
        "spec": dict(meta["spec"]),
        "decision_threshold": meta["decision_threshold"],
        "kernels": len(meta["kernels"]),
        "feedback": meta["feedback"] is not None,
        "switches": meta.get("switches"),
        "registry": meta.get("registry"),
    }
