"""Multiple SVM-kernel training (Section III-D3, Fig. 9(a)).

One C-SVM kernel is trained per hotspot cluster, against the downsampled
nonhotspot centroid set.  Each kernel owns the feature schema of its
cluster, so it concentrates on the critical features specific to that
topology.  Kernels are independent; the paper trains them on threads
(Section III-G), but under the GIL threads measured slower than this
serial loop, so kernels train one after another.

Every kernel trains against the same centroids, so a fit extracts them
once, before the first kernel, and each kernel's matrix and the feedback
self-evaluation (:mod:`repro.core.feedback`) reuse those extractions: a
fit extracts each training clip once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.config import DetectorConfig
from repro.core.resample import (
    balancing_class_weights,
    downsample_to_centroids,
    shift_derivatives,
)
from repro.errors import SvmError
from repro.features.vector import ExtractedFeatures, FeatureExtractor, FeatureSchema
from repro.layout.clip import Clip, ClipSet
from repro.obs import trace
from repro.resilience import faults
from repro.svm.grid_search import IterativeConfig, TrainingRound, train_iterative
from repro.svm.model import SupportVectorClassifier
from repro.topology.cluster import Cluster, TopologicalClassifier
from repro.topology.strings import canonical_string_key

#: Margin assigned by a kernel to clips outside its topological gate.
GATED_OUT = -1e9


def core_string_key(clip: Clip) -> tuple:
    """D8-canonical directional-string key of a clip's core region."""
    return canonical_string_key(clip.core_rects(), clip.core)

#: Numeric labels used throughout: +1 hotspot, -1 nonhotspot.
HOTSPOT, NON_HOTSPOT = 1, -1


@dataclass
class TrainedKernel:
    """One per-cluster SVM kernel with its schema and telemetry.

    ``key_set`` is the kernel's topological gate: the canonical string
    keys of every hotspot pattern (including shifted derivatives) the
    kernel was trained on.  At evaluation the kernel judges only clips
    whose core topology appears in this set — vectorizing an
    alien-topology clip under this cluster's schema would be meaningless,
    and an RBF kernel's decision at such far-field points degenerates to
    its bias.  ``None`` disables gating (the 'Basic' single-kernel
    baseline).
    """

    cluster_index: int
    schema: FeatureSchema
    model: SupportVectorClassifier
    history: list[TrainingRound] = field(default_factory=list)
    hotspot_count: int = 0
    nonhotspot_count: int = 0
    key_set: Optional[frozenset] = None


@dataclass
class MultiKernelModel:
    """The trained multiple-kernel stage.

    Holds everything evaluation and feedback training need: the kernels,
    the upsampled hotspot population with its clusters, the nonhotspot
    centroids, and the shared core-region feature extractor.
    """

    kernels: list[TrainedKernel]
    hotspot_clips: list[Clip]
    hotspot_clusters: list[Cluster]
    nonhotspot_centroids: list[Clip]
    extractor: FeatureExtractor
    classifier: TopologicalClassifier
    #: Optional :class:`repro.cache.HotspotCache` memoizing margin rows by
    #: clip geometry.  Shared mutable state; dropped on pickling.
    cache: Optional[object] = field(default=None, repr=False, compare=False)
    #: Kernels a training journal supplied instead of training them.
    resumed_kernels: int = field(default=0, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["cache"] = None
        state.pop("_margin_fingerprint", None)
        return state

    def _cache_fingerprint(self) -> str:
        """Margin-cache namespace: kernels + feature config, hashed once."""
        fingerprint = getattr(self, "_margin_fingerprint", None)
        if fingerprint is None:
            from repro.cache.keys import model_fingerprint

            fingerprint = model_fingerprint(self)
            self._margin_fingerprint = fingerprint
        return fingerprint

    def kernel_margins(self, clips: Sequence[Clip]) -> np.ndarray:
        """Margin matrix ``(len(clips), len(kernels))``.

        Clips are first routed through each kernel's topological gate;
        gated-out entries get :data:`GATED_OUT`.  Features are extracted
        once per clip that passes at least one gate (vectorization is
        per-kernel because schemas differ).

        With a :attr:`cache` attached, rows are memoized per clip
        geometry: a geometry seen before (this run or, with a disk tier,
        any run of this model) skips extraction and the SVM entirely.
        Rows are computed per clip and the decision function is
        row-independent, so cached and recomputed rows are bit-identical.
        A scan funnel's :class:`~repro.core.extraction.CandidateClips`
        hashes its own content keys from integer rows and is read only
        for the misses, so it builds no clip whose row is cached; any
        other sequence has each clip hashed.
        """
        if not clips:
            return np.zeros((0, len(self.kernels)))
        if self.cache is None:
            return self._kernel_margins_uncached(clips)

        fingerprint = self._cache_fingerprint()
        content_keys = getattr(clips, "content_keys", None)
        if content_keys is not None:
            keys = content_keys()
        else:
            from repro.cache.keys import clip_content_key

            keys = [clip_content_key(clip) for clip in clips]
        # With a batch-capable tier attached (the fleet's remote cache)
        # warm the whole clip batch in one RPC per node up front, so the
        # per-clip loop below hits memory instead of the network.
        prefetch = getattr(self.cache, "prefetch", None)
        if prefetch is not None:
            prefetch("margins", fingerprint, keys)
        margins = np.full((len(clips), len(self.kernels)), GATED_OUT)
        # Group cache misses by key: same geometry -> same row, so each
        # distinct geometry is evaluated once per call.
        missing: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            row = self.cache.get_margins(fingerprint, key)
            if row is not None and row.shape == (len(self.kernels),):
                margins[i] = row
            else:
                missing.setdefault(key, []).append(i)
        if missing:
            groups = list(missing.values())
            self._prefetch_features(list(missing))
            computed = self._kernel_margins_uncached(
                [clips[indices[0]] for indices in groups]
            )
            for row, indices in zip(computed, groups):
                margins[indices] = row
                self.cache.put_margins(fingerprint, keys[indices[0]], row)
        flush = getattr(self.cache, "flush", None)
        if flush is not None:
            flush()
        return margins

    def _prefetch_features(self, keys: list[str]) -> None:
        """Batch-warm the extractor's feature cache for margin misses,
        given their content keys (the feature cache's keys too)."""
        cache = getattr(self.extractor, "cache", None)
        prefetch = getattr(cache, "prefetch", None)
        if prefetch is None or not keys:
            return
        prefetch("features", self.extractor._cache_identity(), keys)

    def _kernel_margins_uncached(
        self,
        clips: Sequence[Clip],
        extractions: Optional[Sequence[ExtractedFeatures]] = None,
    ) -> np.ndarray:
        """Margins computed from scratch; ``extractions`` are ``clips``' own
        features when the caller already holds them (training does)."""
        margins = np.full((len(clips), len(self.kernels)), GATED_OUT)

        gated = any(kernel.key_set is not None for kernel in self.kernels)
        keys = [core_string_key(clip) for clip in clips] if gated else None

        # Which clips does each kernel accept?
        accept: list[list[int]] = []
        needed: set[int] = set()
        for kernel in self.kernels:
            if kernel.key_set is None:
                wanted = list(range(len(clips)))
            else:
                assert keys is not None
                wanted = [i for i, key in enumerate(keys) if key in kernel.key_set]
            accept.append(wanted)
            needed.update(wanted)

        if extractions is None:
            extractions = {
                i: self.extractor.extract(clips[i]) for i in sorted(needed)
            }
        for k, kernel in enumerate(self.kernels):
            wanted = accept[k]
            if not wanted:
                continue
            matrix = np.vstack(
                [
                    self.extractor.vectorize(extractions[i], kernel.schema)
                    for i in wanted
                ]
            )
            margins[wanted, k] = kernel.model.decision_function(matrix)
        return margins

    def margins(self, clips: Sequence[Clip]) -> np.ndarray:
        """Best (max over kernels) margin per clip.

        A clip is flagged hotspot when any kernel classifies it as one, so
        the effective score is the kernel maximum.
        """
        per_kernel = self.kernel_margins(clips)
        if per_kernel.size == 0:
            return np.zeros(len(clips))
        return per_kernel.max(axis=1)

    def predict(self, clips: Sequence[Clip], threshold: float = 0.0) -> np.ndarray:
        """Boolean hotspot flags at a decision threshold."""
        return self.margins(clips) >= threshold


def _single_cluster(clips: Sequence[Clip]) -> Cluster:
    """A degenerate cluster holding everything (the 'Basic' baseline)."""
    cluster = Cluster(string_key=("basic",))
    for index, _clip in enumerate(clips):
        cluster.members.append(index)
    return cluster


def _train_one_kernel(
    cluster_index: int,
    cluster_hotspots: list[Clip],
    centroid_features: list[ExtractedFeatures],
    extractor: FeatureExtractor,
    svm_config: IterativeConfig,
    gate: bool,
) -> TrainedKernel:
    faults.inject("train.kernel", cluster=cluster_index)
    # The kernel trains against the nonhotspot centroids that pass its
    # gate, plus every nonhotspot sharing no key (kept out by gating
    # anyway); restricting to gate-compatible centroids would starve small
    # kernels of negatives, so all centroids participate.
    extractions = [extractor.extract(clip) for clip in cluster_hotspots]
    extractions += centroid_features
    labels = np.array(
        [HOTSPOT] * len(cluster_hotspots) + [NON_HOTSPOT] * len(centroid_features)
    )
    matrix, schema = extractor.build_matrix(extractions)
    # Population balancing (Section III-D3): the residual imbalance after
    # resampling is absorbed by per-class C weights, biased toward the
    # hotspot class — accuracy is the primary objective, extras secondary.
    weights = svm_config.class_weight or balancing_class_weights(
        len(cluster_hotspots), len(centroid_features)
    )
    config = IterativeConfig(
        initial_c=svm_config.initial_c,
        initial_gamma=svm_config.initial_gamma,
        target_accuracy=svm_config.target_accuracy,
        max_rounds=svm_config.max_rounds,
        class_weight=weights or None,
        kernel=svm_config.kernel,
        far_field_floor=svm_config.far_field_floor,
        scale_features=svm_config.scale_features,
    )
    with trace(
        "train.kernel",
        cluster=cluster_index,
        hotspots=len(cluster_hotspots),
        nonhotspots=len(centroid_features),
    ) as span:
        result = train_iterative(matrix, labels, config)
        span.set(rounds=len(result.history))
        if result.history:
            span.set(
                c=result.history[-1].c_value,
                gamma=result.history[-1].gamma,
                accuracy=result.history[-1].train_accuracy,
            )
    key_set = (
        frozenset(core_string_key(clip) for clip in cluster_hotspots)
        if gate
        else None
    )
    return TrainedKernel(
        cluster_index=cluster_index,
        schema=schema,
        model=result.model,
        history=result.history,
        hotspot_count=len(cluster_hotspots),
        nonhotspot_count=len(centroid_features),
        key_set=key_set,
    )


def train_multi_kernel(
    training: ClipSet,
    config: DetectorConfig,
    classifier: Optional[TopologicalClassifier] = None,
    checkpoint=None,
    deadline=None,
    resume: bool = True,
) -> MultiKernelModel:
    """Run the full training phase of Fig. 9(a).

    1. Upsample hotspots by data shifting.
    2. Topologically classify hotspots and nonhotspots (unless the
       'Basic' ablation disabled clustering).
    3. Downsample nonhotspots to cluster centroids.
    4. Train one kernel per hotspot cluster.

    ``checkpoint`` (a :class:`repro.resilience.checkpoint.Journal`)
    journals each kernel as it converges, keyed by its index under a
    :func:`~repro.resilience.checkpoint.training_fingerprint` identity;
    with ``resume`` the kernels already journaled for this dataset +
    config are reused instead of retrained (counted in the model's
    ``resumed_kernels``), so a run killed mid-kernel (SIGTERM, OOM,
    injected fault) loses at most one kernel's work.  ``deadline``
    (a :class:`repro.resilience.retry.Deadline`) is checked between
    kernels and raises :class:`~repro.errors.StageTimeout` — after the
    completed kernels have checkpointed, so the timeout itself is
    resumable.  Stages 1-3 are cheap and deterministic; they re-run on
    every resume.
    """
    model, _ = _train_multi_kernel(
        training,
        config,
        classifier=classifier,
        checkpoint=checkpoint,
        deadline=deadline,
        resume=resume,
    )
    return model


def _train_multi_kernel(
    training: ClipSet,
    config: DetectorConfig,
    classifier: Optional[TopologicalClassifier],
    checkpoint,
    deadline,
    resume: bool,
) -> tuple[MultiKernelModel, Optional[list[ExtractedFeatures]]]:
    """:func:`train_multi_kernel`, plus the centroid extractions it made.

    Every kernel's matrix ends in the same nonhotspot centroids, so they
    are extracted once, before the first kernel trains, and the list is
    returned for the feedback self-evaluation to reuse.  It is ``None``
    when the journal supplied every kernel and nothing was extracted.
    """
    hotspots, nonhotspots = training.split()
    if not hotspots or not nonhotspots:
        raise SvmError(
            "training set needs both hotspot and nonhotspot patterns, got "
            f"{len(hotspots)} / {len(nonhotspots)}"
        )
    classifier = classifier or TopologicalClassifier(config.classifier)
    extractor = FeatureExtractor(config.features)

    # Upsample each hotspot; remember which derivatives belong to which
    # original so derivatives join their parent's cluster (the shifting is
    # meant to add fuzziness *inside* a cluster, not to spawn new ones).
    with trace("train.shift", hotspots=len(hotspots)) as span:
        upsampled: list[Clip] = []
        derivative_groups: list[list[int]] = []
        for clip in hotspots:
            derivatives = shift_derivatives(clip, config.shift_amount)
            indices = list(range(len(upsampled), len(upsampled) + len(derivatives)))
            upsampled.extend(derivatives)
            derivative_groups.append(indices)
        span.set(upsampled=len(upsampled))

    with trace("train.cluster", use_topology=config.use_topology) as span:
        if config.use_topology:
            original_clusters = classifier.classify(hotspots)
            hotspot_clusters = []
            for original in original_clusters:
                expanded = Cluster(
                    string_key=original.string_key, radius=original.radius
                )
                expanded.centroid_grid = original.centroid_grid
                for original_index in original.members:
                    expanded.members.extend(derivative_groups[original_index])
                hotspot_clusters.append(expanded)
            nonhotspot_clusters = classifier.classify(nonhotspots)
            centroids = downsample_to_centroids(nonhotspots, nonhotspot_clusters)
        else:
            hotspot_clusters = [_single_cluster(upsampled)]
            centroids = list(nonhotspots)
        span.set(
            hotspot_clusters=len(hotspot_clusters),
            nonhotspot_centroids=len(centroids),
        )

    jobs = [
        (index, [upsampled[i] for i in cluster.members])
        for index, cluster in enumerate(hotspot_clusters)
    ]

    done: dict[int, TrainedKernel] = {}
    if checkpoint is not None:
        from repro.core.persist import decode_kernel_payload, encode_kernel_payload
        from repro.resilience.checkpoint import CHECKPOINT_VERSION, training_fingerprint

        identity = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": training_fingerprint(training, config),
        }
        keys = [str(index) for index, _ in jobs]
        done = checkpoint.begin(identity, keys, resume, decode_kernel_payload)
    resumed = len(done)
    pending = [(index, members) for index, members in jobs if index not in done]

    centroid_features = (
        [extractor.extract(clip) for clip in centroids] if pending else None
    )
    with trace("train.kernels", kernels=len(jobs), resumed=resumed):
        for index, members in pending:
            if deadline is not None:
                deadline.check("train.kernels")
            done[index] = _train_one_kernel(
                index,
                members,
                centroid_features,
                extractor,
                config.svm,
                config.use_topology,
            )
            if checkpoint is not None:
                checkpoint.record(str(index), encode_kernel_payload(done[index]))
    kernels = [done[index] for index, _ in jobs]
    model = MultiKernelModel(
        kernels=kernels,
        hotspot_clips=upsampled,
        hotspot_clusters=hotspot_clusters,
        nonhotspot_centroids=centroids,
        extractor=extractor,
        classifier=classifier,
        resumed_kernels=resumed,
    )
    return model, centroid_features
