"""Detector configuration: every tunable of the paper in one place.

Defaults are the Section V experiment parameters:

- initial C = 1000, initial gamma = 0.01, self-training target 90 %,
- expected cluster count K = 10,
- data shifting = lc/10 = 120 nm,
- clip-extraction max boundary-to-bbox distance = 1440 nm,
- clip-merging minimum core overlap = 20 %,
- reframing core separation ls = 1150 nm (< lc = 1200 nm).

The ablation switches (``use_topology``, ``use_feedback``, ``use_removal``)
reproduce Table III's Basic / +Topology / +Removal / Ours rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.features.vector import FeatureConfig
from repro.layout.clip import ClipSpec
from repro.svm.grid_search import IterativeConfig
from repro.topology.cluster import ClassifierConfig


@dataclass(frozen=True)
class ExtractionConfig:
    """Layout clip extraction requirements (Section III-E).

    A candidate clip is kept when its window's polygon distribution meets
    every requirement: density within bounds, enough polygon rectangles,
    and the bounding box of in-clip geometry within
    ``max_boundary_distance`` of every clip edge.
    """

    min_core_density: float = 0.02
    max_core_density: float = 0.95
    min_polygon_count: int = 2
    max_boundary_distance: int = 1440

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_core_density <= self.max_core_density <= 1.0:
            raise ConfigError(
                "core density bounds must satisfy 0 <= min <= max <= 1, got "
                f"[{self.min_core_density}, {self.max_core_density}]"
            )
        if self.min_polygon_count < 0:
            raise ConfigError("min_polygon_count must be non-negative")
        if self.max_boundary_distance < 0:
            raise ConfigError("max_boundary_distance must be non-negative")


@dataclass(frozen=True)
class RemovalConfig:
    """Redundant clip removal parameters (Section III-F)."""

    min_merge_overlap: float = 0.20
    reframe_separation: int = 1150
    reframe_threshold: int = 4
    max_boundary_distance: int = 1440

    def __post_init__(self) -> None:
        if not 0.0 < self.min_merge_overlap <= 1.0:
            raise ConfigError(
                f"min_merge_overlap must be in (0, 1], got {self.min_merge_overlap}"
            )
        if self.reframe_separation <= 0:
            raise ConfigError("reframe_separation must be positive")
        if self.reframe_threshold < 1:
            raise ConfigError("reframe_threshold must be >= 1")


@dataclass(frozen=True)
class DetectorConfig:
    """Full configuration of the hotspot-detection framework."""

    spec: ClipSpec = field(default_factory=ClipSpec)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    #: Kernel training schedule.  The far-field floor makes "similar to no
    #: support vector" decide nonhotspot instead of the model bias — it
    #: substitutes for the dense nonhotspot population the real contest
    #: training archives provide.
    svm: IterativeConfig = field(
        default_factory=lambda: IterativeConfig(far_field_floor=0.10)
    )
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    removal: RemovalConfig = field(default_factory=RemovalConfig)

    #: Data-shifting distance for hotspot upsampling (lc/10 in the paper).
    shift_amount: int = 120
    #: Decision threshold on the SVM margin; higher = fewer reports
    #: ("ours_low"/"ours_med" operating points, Fig. 15 sweep).
    decision_threshold: float = 0.0

    # Ablation switches (Table III rows).
    use_topology: bool = True
    use_feedback: bool = True
    use_removal: bool = True

    def __post_init__(self) -> None:
        if self.shift_amount < 0:
            raise ConfigError("shift_amount must be non-negative")
        if self.removal.reframe_separation >= self.spec.core_side:
            raise ConfigError(
                "reframe_separation must be smaller than the core side "
                f"({self.removal.reframe_separation} >= {self.spec.core_side})"
            )

    # ------------------------------------------------------------------
    # named operating points of Table II
    # ------------------------------------------------------------------
    def at_threshold(self, threshold: float) -> "DetectorConfig":
        """This configuration with a different decision threshold."""
        return replace(self, decision_threshold=threshold)

    @staticmethod
    def ours() -> "DetectorConfig":
        """The full framework at the accuracy-first operating point."""
        return DetectorConfig()

    @staticmethod
    def ours_med() -> "DetectorConfig":
        """Medium hit rate, medium hit/extra ratio (Table II 'ours_med')."""
        return DetectorConfig(decision_threshold=0.30)

    @staticmethod
    def ours_low() -> "DetectorConfig":
        """Lower hit rate, high hit/extra ratio (Table II 'ours_low')."""
        return DetectorConfig(decision_threshold=0.75)

    @staticmethod
    def basic() -> "DetectorConfig":
        """Table III 'Basic': one huge kernel, no feedback, no removal.

        Data shifting is off too — the baseline is a plain SVM on the raw
        (imbalanced) training set, as the paper's Basic row is.
        """
        return DetectorConfig(
            use_topology=False,
            use_feedback=False,
            use_removal=False,
            shift_amount=0,
        )

    @staticmethod
    def with_topology() -> "DetectorConfig":
        """Table III '+Topology': clustering on, feedback/removal off."""
        return DetectorConfig(use_feedback=False, use_removal=False)

    @staticmethod
    def with_removal() -> "DetectorConfig":
        """Table III '+Removal': clustering + removal, feedback off."""
        return DetectorConfig(use_feedback=False)
