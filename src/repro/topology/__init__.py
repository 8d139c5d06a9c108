"""Two-level topological classification (strings + density, Section III-B)."""

from repro.topology.strings import (
    SIDES,
    DirectionalStrings,
    canonical_string_key,
    directional_strings,
    downward_string,
)
from repro.topology.match import (
    composite_ccw,
    composite_cw,
    contains_subsequence,
    same_topology,
    strings_match,
)
from repro.topology.density import (
    best_alignment,
    cluster_radius,
    density_distance,
    pairwise_max_distance,
)
from repro.topology.cluster import (
    ClassifierConfig,
    Cluster,
    TopologicalClassifier,
)

__all__ = [
    "SIDES",
    "DirectionalStrings",
    "downward_string",
    "directional_strings",
    "canonical_string_key",
    "composite_ccw",
    "composite_cw",
    "contains_subsequence",
    "strings_match",
    "same_topology",
    "density_distance",
    "best_alignment",
    "pairwise_max_distance",
    "cluster_radius",
    "ClassifierConfig",
    "Cluster",
    "TopologicalClassifier",
]
