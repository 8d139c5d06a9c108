"""Feature vectorization: clips -> fixed-length numeric vectors.

The SVM kernels consume fixed-length vectors, while Section III-C's
extraction yields a variable set of rule rectangles.  Topological
classification guarantees members of one cluster share a topology and
hence (modulo window-boundary effects) a feature census, so each cluster
carries a :class:`FeatureSchema` — the per-type rule-rectangle counts all
member vectors are padded/truncated to.

Patterns are first rotated to a canonical D8 orientation so congruent
patterns vectorize identically; the paper instead stores eight oriented
feature sets per pattern — canonicalisation is the storage-free equivalent
(both make matching orientation-blind).

An optional pixel-density block can be appended to the vector.  It is NOT
part of the paper's feature set (the paper's features are the rule
rectangles plus the five nontopological values); it is provided for the
ablation bench that isolates the value of the critical features, and is
disabled by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import FeatureError
from repro.features.nontopo import (
    NONTOPO_SLOTS,
    NonTopoFeatures,
    nontopo_features_from_tilings,
)
from repro.mtcg.rules import RULE_RECT_SLOTS, FeatureType, RuleRect
from repro.geometry.rect import Rect
from repro.geometry.transform import canonical_form
from repro.layout.clip import Clip
from repro.mtcg.features import topological_features_with_tilings
from repro.obs import trace

#: Fixed serialisation order of the four feature types inside a vector.
TYPE_ORDER: tuple[FeatureType, ...] = (
    FeatureType.INTERNAL,
    FeatureType.EXTERNAL,
    FeatureType.DIAGONAL,
    FeatureType.SEGMENT,
)


@dataclass(frozen=True)
class FeatureConfig:
    """Extraction settings shared by a detector instance.

    ``region`` selects which window the features describe: ``"core"``
    (normal kernels), ``"clip"`` (the whole window), or ``"context"`` —
    the core expanded by ``context_margin`` per side, the inner ambit
    ring where lithographic crowding acts.  The feedback kernel uses
    ``"context"``: the Fig. 10 signal (ambit geometry deciding an
    otherwise-identical core) lives there, while the outer ambit is
    mostly unrelated routing that would drown it.  ``diagonal_max_gap``
    bounds diagonal-feature search distance in DBU.
    """

    region: str = "core"
    context_margin: int = 900
    diagonal_max_gap: Optional[int] = 600
    include_density_grid: bool = False
    density_resolution: int = 12
    canonical_orientation: bool = True

    def __post_init__(self) -> None:
        if self.region not in ("core", "clip", "context"):
            raise FeatureError(
                f"region must be 'core', 'clip' or 'context', got {self.region!r}"
            )
        if self.context_margin < 0:
            raise FeatureError("context_margin must be non-negative")
        if self.density_resolution <= 0:
            raise FeatureError("density_resolution must be positive")


@dataclass(frozen=True)
class ExtractedFeatures:
    """Raw extraction result for one clip, before schema alignment."""

    rules: tuple[RuleRect, ...]
    nontopo: NonTopoFeatures
    grid: Optional[np.ndarray]

    def count_of(self, feature_type: FeatureType) -> int:
        return sum(1 for rule in self.rules if rule.feature_type is feature_type)


@dataclass
class FeatureSchema:
    """Per-cluster feature census: how many rule rects of each type.

    ``counts`` maps each :class:`FeatureType` to the slot count reserved in
    the vector.  Vectors with fewer features are zero-padded; vectors with
    more are truncated in canonical sort order.
    """

    counts: dict[FeatureType, int] = field(default_factory=dict)

    @staticmethod
    def from_extractions(extractions: Sequence[ExtractedFeatures]) -> "FeatureSchema":
        """Schema sized to the per-type maximum over a pattern population."""
        counts = {ftype: 0 for ftype in TYPE_ORDER}
        for extraction in extractions:
            for ftype in TYPE_ORDER:
                counts[ftype] = max(counts[ftype], extraction.count_of(ftype))
        return FeatureSchema(counts)

    def rule_slots(self) -> int:
        return sum(self.counts.get(ftype, 0) for ftype in TYPE_ORDER) * RULE_RECT_SLOTS

    def vector_length(self, config: FeatureConfig) -> int:
        length = self.rule_slots() + NONTOPO_SLOTS
        if config.include_density_grid:
            length += config.density_resolution**2
        return length


class FeatureExtractor:
    """Extracts and vectorizes clip features under one configuration.

    ``cache`` (a :class:`repro.cache.HotspotCache`, attached via
    :class:`~repro.core.detector.HotspotDetector.attach_cache` or set
    directly) memoizes :meth:`extract` by clip geometry content — the
    MTCG tiling sweep is the per-clip hot spot, and identical geometry
    yields identical features.  The cache is shared mutable state and is
    dropped on pickling (scan workers run cold).
    """

    def __init__(self, config: FeatureConfig = FeatureConfig()):
        self.config = config
        self.cache = None
        self._cache_id: Optional[str] = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["cache"] = None
        state["_cache_id"] = None
        return state

    def _cache_identity(self) -> str:
        """The config fingerprint namespacing cached features, computed once."""
        if self._cache_id is None:
            from repro.cache.keys import feature_fingerprint

            self._cache_id = feature_fingerprint(self.config)
        return self._cache_id

    # ------------------------------------------------------------------
    def _region_of(self, clip: Clip) -> tuple[list[Rect], Rect]:
        if self.config.region == "core":
            return clip.core_rects(), clip.core
        if self.config.region == "context":
            margin = min(self.config.context_margin, clip.spec.ambit_margin)
            window = clip.core.expanded(margin)
            rects = [
                r for r in (rect.intersection(window) for rect in clip.rects) if r
            ]
            return rects, window
        return list(clip.rects), clip.window

    def extract(self, clip: Clip) -> ExtractedFeatures:
        """Raw features of one clip (canonically oriented when configured)."""
        if self.cache is not None:
            from repro.cache.keys import clip_content_key

            fingerprint = self._cache_identity()
            key = clip_content_key(clip)
            cached = self.cache.get_features(fingerprint, key)
            if cached is not None:
                return cached
            features = self._extract_uncached(clip)
            self.cache.put_features(fingerprint, key, features)
            return features
        return self._extract_uncached(clip)

    def _extract_uncached(self, clip: Clip) -> ExtractedFeatures:
        rects, window = self._region_of(clip)
        if self.config.canonical_orientation and rects:
            _, rects = canonical_form(rects, window)
        # One window clip and one pair of tilings serve both feature sets.
        clipped = [r for r in (rect.intersection(window) for rect in rects) if r]
        rules, h_tiling, v_tiling = topological_features_with_tilings(
            clipped, window, self.config.diagonal_max_gap
        )
        nontopo = nontopo_features_from_tilings(clipped, window, h_tiling, v_tiling)
        grid: Optional[np.ndarray] = None
        if self.config.include_density_grid:
            resolution = self.config.density_resolution
            if self.config.region == "core":
                grid = clip.core_density_grid(resolution)
            elif self.config.region == "context":
                from repro.geometry.grid import density_grid as _density_grid

                grid = _density_grid(rects, window, resolution)
            else:
                grid = clip.clip_density_grid(resolution)
        return ExtractedFeatures(tuple(rules), nontopo, grid)

    # ------------------------------------------------------------------
    def vectorize(self, extraction: ExtractedFeatures, schema: FeatureSchema) -> np.ndarray:
        """Align one extraction to a schema and emit the numeric vector."""
        parts: list[float] = []
        for ftype in TYPE_ORDER:
            slots = schema.counts.get(ftype, 0)
            rules = sorted(r for r in extraction.rules if r.feature_type is ftype)
            for i in range(slots):
                if i < len(rules):
                    parts.extend(float(v) for v in rules[i].as_tuple())
                else:
                    parts.extend([0.0] * RULE_RECT_SLOTS)
        parts.extend(extraction.nontopo.as_list())
        vector = np.array(parts, dtype=np.float64)
        if self.config.include_density_grid:
            if extraction.grid is None:
                raise FeatureError("schema expects a density grid but none was extracted")
            vector = np.concatenate([vector, extraction.grid.ravel()])
        return vector

    def vectorize_clip(self, clip: Clip, schema: FeatureSchema) -> np.ndarray:
        """Convenience: extract then vectorize one clip."""
        return self.vectorize(self.extract(clip), schema)

    def build_matrix(
        self,
        extractions: Sequence[ExtractedFeatures],
        schema: Optional[FeatureSchema] = None,
    ) -> tuple[np.ndarray, FeatureSchema]:
        """An ``(n, d)`` matrix of a population's extractions, plus its schema.

        Callers extract, so an extraction several matrices share is made
        once.  When ``schema`` is omitted it is derived from the
        population itself (per-type maximum counts).
        """
        with trace("features.build_matrix", clips=len(extractions)) as span:
            if schema is None:
                schema = FeatureSchema.from_extractions(extractions)
            span.set(vector_length=schema.vector_length(self.config))
            if not extractions:
                return np.zeros((0, schema.vector_length(self.config))), schema
            rows = [self.vectorize(extraction, schema) for extraction in extractions]
            return np.vstack(rows), schema
