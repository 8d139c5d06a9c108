"""The paper's framework: training, feedback, extraction, removal, facade."""

from repro.core.config import (
    DetectorConfig,
    ExtractionConfig,
    RemovalConfig,
)
from repro.core.metrics import DetectionScore, is_hit, score_reports
from repro.core.resample import (
    balancing_class_weights,
    downsample_to_centroids,
    shift_derivatives,
)
from repro.core.training import (
    HOTSPOT,
    NON_HOTSPOT,
    MultiKernelModel,
    TrainedKernel,
    train_multi_kernel,
)
from repro.core.feedback import FeedbackKernel, train_feedback_kernel
from repro.core.extraction import ExtractionReport, extract_candidate_clips
from repro.core.removal import (
    discard_redundant,
    merge_into_regions,
    reframe_region,
    region_frame,
    remove_redundant_clips,
    shift_to_gravity,
)
from repro.core.detector import DetectionReport, HotspotDetector, TrainingReport
from repro.core.inspect import Explanation, KernelVerdict, explain_clip
from repro.core.persist import load_detector, save_detector
from repro.core.roc import CurvePoint, area_under_curve, knee_point, sweep_thresholds

__all__ = [
    "DetectorConfig",
    "ExtractionConfig",
    "RemovalConfig",
    "DetectionScore",
    "is_hit",
    "score_reports",
    "shift_derivatives",
    "downsample_to_centroids",
    "balancing_class_weights",
    "HOTSPOT",
    "NON_HOTSPOT",
    "TrainedKernel",
    "MultiKernelModel",
    "train_multi_kernel",
    "FeedbackKernel",
    "train_feedback_kernel",
    "ExtractionReport",
    "extract_candidate_clips",
    "merge_into_regions",
    "region_frame",
    "reframe_region",
    "discard_redundant",
    "shift_to_gravity",
    "remove_redundant_clips",
    "HotspotDetector",
    "DetectionReport",
    "TrainingReport",
    "explain_clip",
    "Explanation",
    "KernelVerdict",
    "save_detector",
    "load_detector",
    "sweep_thresholds",
    "CurvePoint",
    "area_under_curve",
    "knee_point",
]
