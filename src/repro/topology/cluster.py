"""Two-level topological classification (Section III-B).

Level 1 — *string-based*: patterns are grouped by the D8-canonical
directional-string key, so every member of a group has the same core
topology under some orientation (Theorem 1 guarantees uniqueness).

Level 2 — *density-based*: within each string group, patterns are
clustered by the Eq. 1 density distance using the incremental
centroid-cover scheme of Section III-B2: a pattern joins the first cluster
whose centroid is within the Eq. 2 radius, else it founds a new cluster;
optionally the centroid is re-estimated as the running mean of aligned
member grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import TopologyError
from repro.layout.clip import Clip
from repro.obs import trace
from repro.topology.density import (
    best_alignment,
    cluster_radius,
    density_distance,
)
from repro.topology.strings import canonical_string_key


@dataclass
class Cluster:
    """One topological cluster of clips.

    ``members`` are indices into the clip list passed to
    :meth:`TopologicalClassifier.classify`; ``centroid_grid`` is the running
    mean of orientation-aligned member density grids.
    """

    string_key: tuple
    members: list[int] = field(default_factory=list)
    grids: list[np.ndarray] = field(default_factory=list)
    centroid_grid: Optional[np.ndarray] = None
    radius: float = 0.0

    def __len__(self) -> int:
        return len(self.members)

    def add(self, index: int, grid: np.ndarray, *, recompute_centroid: bool) -> None:
        if self.centroid_grid is None:
            self.centroid_grid = grid.copy()
        elif recompute_centroid:
            _, aligned = best_alignment(self.centroid_grid, grid)
            count = len(self.members)
            self.centroid_grid = (self.centroid_grid * count + aligned) / (count + 1)
        self.members.append(index)
        self.grids.append(grid)

    def centroid_member(self) -> int:
        """Index (into the classified clip list) of the most central member.

        The representative used for nonhotspot downsampling: the member
        whose grid is closest to the centroid grid.
        """
        if self.centroid_grid is None or not self.members:
            raise TopologyError("cluster is empty")
        best_index = self.members[0]
        best_distance = float("inf")
        for member, grid in zip(self.members, self.grids):
            distance = density_distance(self.centroid_grid, grid)
            if distance < best_distance:
                best_index, best_distance = member, distance
        return best_index

    def distance_to(self, grid: np.ndarray) -> float:
        if self.centroid_grid is None:
            raise TopologyError("cluster has no centroid yet")
        return density_distance(self.centroid_grid, grid)


@dataclass(frozen=True)
class ClassifierConfig:
    """Knobs of the two-level classifier.

    Defaults follow Section V: expected cluster count K = 10.  The radius
    threshold ``R0`` is in summed-density units over the
    ``grid_resolution`` x ``grid_resolution`` grid; the default of 6.0 is
    calibrated so same-motif-family patterns (pairwise distance 1-7 on the
    synthetic benchmarks) cluster together while distinct families
    (distance > 10) stay apart.  ``grid_resolution`` is the pixelation of
    Eq. 1.
    """

    grid_resolution: int = 12
    radius_threshold: float = 6.0
    expected_cluster_count: int = 10
    recompute_centroids: bool = True
    use_ambit: bool = False
    pairwise_sample_limit: int = 256

    def __post_init__(self) -> None:
        if self.grid_resolution <= 0:
            raise TopologyError("grid_resolution must be positive")
        if self.expected_cluster_count <= 0:
            raise TopologyError("expected_cluster_count must be positive")
        if self.radius_threshold < 0:
            raise TopologyError("radius_threshold must be non-negative")


class TopologicalClassifier:
    """Two-level (string, then density) clip classifier."""

    def __init__(self, config: ClassifierConfig = ClassifierConfig()):
        self.config = config

    # ------------------------------------------------------------------
    def _grid(self, clip: Clip) -> np.ndarray:
        if self.config.use_ambit:
            return clip.clip_density_grid(self.config.grid_resolution)
        return clip.core_density_grid(self.config.grid_resolution)

    def _string_key(self, clip: Clip) -> tuple:
        if self.config.use_ambit:
            return canonical_string_key(list(clip.rects), clip.window)
        return canonical_string_key(clip.core_rects(), clip.core)

    # ------------------------------------------------------------------
    def classify(self, clips: Sequence[Clip]) -> list[Cluster]:
        """Cluster clips; returns clusters ordered by first-member index."""
        with trace("topology.classify", clips=len(clips)) as span:
            string_groups: dict[tuple, list[int]] = {}
            grids: list[np.ndarray] = []
            for index, clip in enumerate(clips):
                string_groups.setdefault(self._string_key(clip), []).append(index)
                grids.append(self._grid(clip))

            clusters: list[Cluster] = []
            for key in sorted(string_groups, key=lambda k: string_groups[k][0]):
                members = string_groups[key]
                clusters.extend(self._density_split(key, members, grids))
            span.set(string_groups=len(string_groups), clusters=len(clusters))
            return clusters

    def _density_split(
        self, key: tuple, members: list[int], grids: list[np.ndarray]
    ) -> list[Cluster]:
        """Level-2 density clustering within one string group."""
        member_grids = [grids[i] for i in members]
        radius = cluster_radius(
            member_grids,
            self.config.radius_threshold,
            self.config.expected_cluster_count,
            self.config.pairwise_sample_limit,
        )
        out: list[Cluster] = []
        for index, grid in zip(members, member_grids):
            home = next(
                (c for c in out if c.distance_to(grid) <= radius), None
            )
            if home is None:
                home = Cluster(string_key=key, radius=radius)
                out.append(home)
            home.add(index, grid, recompute_centroid=self.config.recompute_centroids)
        return out
