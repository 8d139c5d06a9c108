"""Density distance between pixelated core patterns (Eq. 1).

The distance between two patterns is the minimum over the eight window
orientations of the summed per-pixel density difference::

    rho(p_i, p_j) = min_{tau in D8}  sum_k | d_k(p_i) - d_k(tau(p_j)) |

Patterns enter as square numpy density grids produced by
:func:`repro.geometry.grid.density_grid`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError
from repro.geometry.grid import all_orientation_grids


def density_distance(grid_a: np.ndarray, grid_b: np.ndarray) -> float:
    """Eq. 1: orientation-minimised L1 distance between density grids."""
    if grid_a.shape != grid_b.shape:
        raise TopologyError(
            f"density grids differ in shape: {grid_a.shape} vs {grid_b.shape}"
        )
    if grid_a.shape[0] != grid_a.shape[1]:
        raise TopologyError(f"density grids must be square, got {grid_a.shape}")
    return min(
        float(np.abs(grid_a - oriented).sum())
        for oriented in all_orientation_grids(grid_b).values()
    )


def best_alignment(grid_a: np.ndarray, grid_b: np.ndarray) -> tuple[str, np.ndarray]:
    """The orientation of ``grid_b`` closest to ``grid_a`` and that grid.

    Used when folding a new pattern into a cluster centroid: the pattern is
    first aligned to the centroid so the running mean stays sharp instead
    of averaging over symmetry copies.
    """
    if grid_a.shape != grid_b.shape:
        raise TopologyError(
            f"density grids differ in shape: {grid_a.shape} vs {grid_b.shape}"
        )
    best_name = "R0"
    best_grid = grid_b
    best_distance = float("inf")
    for name, oriented in all_orientation_grids(grid_b).items():
        distance = float(np.abs(grid_a - oriented).sum())
        if distance < best_distance:
            best_name, best_grid, best_distance = name, oriented, distance
    return best_name, best_grid


def pairwise_max_distance(grids: list[np.ndarray], sample_limit: int = 256) -> float:
    """Maximum pairwise density distance, used by the Eq. 2 radius.

    The all-pairs computation is quadratic; beyond ``sample_limit``
    patterns a deterministic stride subsample is used (the maximum over a
    spread subsample tracks the true maximum closely for the unimodal
    pattern populations clusters hold, and Eq. 2 only needs the scale).
    """
    if len(grids) < 2:
        return 0.0
    if len(grids) > sample_limit:
        stride = len(grids) // sample_limit + 1
        grids = grids[::stride]
    worst = 0.0
    for i, first in enumerate(grids):
        for second in grids[i + 1 :]:
            distance = density_distance(first, second)
            if distance > worst:
                worst = distance
    return worst


def cluster_radius(
    grids: list[np.ndarray],
    radius_threshold: float,
    expected_cluster_count: int,
    sample_limit: int = 256,
) -> float:
    """Eq. 2: ``R = max(R0, max_{i,j} rho(p_i, p_j) / K)``."""
    if expected_cluster_count <= 0:
        raise TopologyError(
            f"expected cluster count must be positive, got {expected_cluster_count}"
        )
    spread = pairwise_max_distance(grids, sample_limit)
    return max(radius_threshold, spread / expected_cluster_count)
