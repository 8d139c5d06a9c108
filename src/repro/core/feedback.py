"""Feedback-kernel learning (Section III-D4, Fig. 9(b)-(c)).

After the multiple kernels are trained, a self-evaluation pass runs the
nonhotspot centroids back through them.  Centroids still classified as
hotspots are *extras*: patterns whose core region looks like a hotspot and
can only be told apart by their ambit (Fig. 10).  The feedback kernel is
trained on full-clip (core + ambit) features:

- nonhotspot side: the extras, re-clustered *with ambit information*, and
  downsampled to sub-cluster centroids;
- hotspot side: the hotspots of every kernel that produced extras.

At evaluation, clips flagged by the multiple kernels are passed through
the feedback kernel, which may reclaim them as nonhotspots — reducing the
false alarm while the multiple kernels' hits stand.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.resample import balancing_class_weights
from repro.core.training import HOTSPOT, NON_HOTSPOT, MultiKernelModel
from repro.errors import ReproError
from repro.features.vector import ExtractedFeatures, FeatureExtractor, FeatureSchema
from repro.layout.clip import Clip
from repro.obs import get_logger, trace
from repro.svm.grid_search import IterativeConfig, train_iterative
from repro.svm.model import SupportVectorClassifier
from repro.topology.cluster import ClassifierConfig, TopologicalClassifier


@dataclass
class FeedbackKernel:
    """The trained ambit-aware false-alarm filter."""

    schema: FeatureSchema
    model: SupportVectorClassifier
    extractor: FeatureExtractor
    extras_used: int = 0
    hotspots_used: int = 0

    def margins(self, clips: Sequence[Clip]) -> np.ndarray:
        if not clips:
            return np.zeros(0)
        matrix = np.vstack(
            [self.extractor.vectorize_clip(clip, self.schema) for clip in clips]
        )
        return self.model.decision_function(matrix)

    def keep_mask(self, clips: Sequence[Clip], threshold: float = 0.0) -> np.ndarray:
        """True where a flagged clip should *stay* a hotspot report.

        The feedback kernel only reclaims clips it has evidence about:
        a clip far from every feedback support vector is kept — the
        primary kernels flagged it, and overruling them with no evidence
        would sacrifice hits (the paper's removal/feedback stages must not
        reduce accuracy).
        """
        if not clips:
            return np.zeros(0, dtype=bool)
        matrix = np.vstack(
            [self.extractor.vectorize_clip(clip, self.schema) for clip in clips]
        )
        margins = self.model.decision_function(matrix)
        unknown = self.model.support_similarity(matrix) < max(
            self.model.far_field_floor, 0.05
        )
        return (margins >= threshold) | unknown


def guarded_keep_mask(
    feedback: FeedbackKernel, clips: Sequence[Clip]
) -> Optional[np.ndarray]:
    """``feedback.keep_mask(clips)``, or ``None`` when the kernel errors.

    The feedback kernel is a precision refinement; when it errors
    (corrupt state, injected fault) the caller degrades to the primary
    kernels' verdicts instead of failing, and the error is logged here.
    """
    try:
        return np.asarray(feedback.keep_mask(clips), dtype=bool)
    except ReproError as exc:
        get_logger("detector").error(
            "feedback_degraded", error=str(exc), clips=len(clips)
        )
        return None


def _ambit_extractor(config: DetectorConfig) -> FeatureExtractor:
    """Feature extractor over the core-plus-inner-ambit context window."""
    features = replace(config.features, region="context")
    return FeatureExtractor(features)


def _ambit_classifier(config: DetectorConfig) -> TopologicalClassifier:
    """Topological classifier that sees the ambit (Fig. 9(c))."""
    base = config.classifier
    ambit_config = ClassifierConfig(
        grid_resolution=base.grid_resolution,
        radius_threshold=base.radius_threshold,
        expected_cluster_count=base.expected_cluster_count,
        recompute_centroids=base.recompute_centroids,
        use_ambit=True,
        pairwise_sample_limit=base.pairwise_sample_limit,
    )
    return TopologicalClassifier(ambit_config)


def train_feedback_kernel(
    model: MultiKernelModel,
    config: DetectorConfig,
    centroid_features: Optional[Sequence[ExtractedFeatures]] = None,
) -> Optional[FeedbackKernel]:
    """Self-evaluate and train the feedback kernel; ``None`` when clean.

    Returns ``None`` when self-evaluation produces no extras — then there
    is nothing for a feedback kernel to learn and evaluation skips the
    stage entirely.  ``centroid_features`` are the model's own extractions
    of its nonhotspot centroids, in order, when training already made
    them; without them the self-evaluation extracts the centroids again.
    """
    with trace("train.feedback", centroids=len(model.nonhotspot_centroids)) as span:
        return _train_feedback_kernel(model, config, centroid_features, span)


def _train_feedback_kernel(
    model: MultiKernelModel,
    config: DetectorConfig,
    centroid_features: Optional[Sequence[ExtractedFeatures]],
    span,
) -> Optional[FeedbackKernel]:
    centroids = model.nonhotspot_centroids
    if not centroids:
        span.set(trained=False, reason="no centroids")
        return None
    per_kernel = model._kernel_margins_uncached(centroids, centroid_features)
    flagged_any = per_kernel.max(axis=1) >= 0.0 if per_kernel.size else np.zeros(0, bool)
    extras = [clip for clip, bad in zip(centroids, flagged_any) if bad]
    if not extras:
        span.set(trained=False, reason="no extras")
        return None

    # Hotspot side: hotspots of every kernel that contributed an extra.
    offending = {
        k
        for k in range(per_kernel.shape[1])
        if np.any(per_kernel[:, k] >= 0.0)
    }
    hotspot_clips: list[Clip] = []
    for kernel in model.kernels:
        if kernel.cluster_index in offending:
            cluster = model.hotspot_clusters[kernel.cluster_index]
            hotspot_clips.extend(model.hotspot_clips[i] for i in cluster.members)
    if not hotspot_clips:
        span.set(trained=False, reason="no hotspot clips")
        return None

    # Nonhotspot side: extras re-clustered with ambit, one centroid each.
    ambit_classifier = _ambit_classifier(config)
    sub_clusters = ambit_classifier.classify(extras)
    nonhotspot_clips = [extras[c.centroid_member()] for c in sub_clusters]

    extractor = _ambit_extractor(config)
    clips = hotspot_clips + nonhotspot_clips
    labels = np.array(
        [HOTSPOT] * len(hotspot_clips) + [NON_HOTSPOT] * len(nonhotspot_clips)
    )
    matrix, schema = extractor.build_matrix([extractor.extract(clip) for clip in clips])
    weights = balancing_class_weights(len(hotspot_clips), len(nonhotspot_clips))
    svm = config.svm
    result = train_iterative(
        matrix,
        labels,
        IterativeConfig(
            initial_c=svm.initial_c,
            initial_gamma=svm.initial_gamma,
            target_accuracy=svm.target_accuracy,
            max_rounds=svm.max_rounds,
            class_weight=weights or None,
            kernel=svm.kernel,
            far_field_floor=svm.far_field_floor,
            scale_features=svm.scale_features,
        ),
    )
    span.set(
        trained=True,
        extras=len(nonhotspot_clips),
        hotspots=len(hotspot_clips),
    )
    return FeedbackKernel(
        schema=schema,
        model=result.model,
        extractor=extractor,
        extras_used=len(nonhotspot_clips),
        hotspots_used=len(hotspot_clips),
    )
