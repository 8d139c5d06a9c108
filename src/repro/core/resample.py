"""Population balancing (Section III-D3).

Two halves:

- **Upsampling** hotspots: each hotspot training pattern is shifted
  slightly upward, downward, leftward and rightward to create derivatives
  *before* topological classification.  This both multiplies the minority
  class and injects the "adequate fuzziness" that compensates for the
  clip-extraction anchoring error at evaluation time.
- **Downsampling** nonhotspots: after topological classification, only the
  centroid pattern of each nonhotspot cluster is kept, eliminating
  redundant patterns and the noise they contribute.
"""

from __future__ import annotations

from typing import Sequence

from repro.layout.clip import Clip
from repro.topology.cluster import Cluster


def shift_derivatives(clip: Clip, amount: int) -> list[Clip]:
    """The four shifted derivatives of a training pattern.

    Returns the original plus up/down/left/right shifts by ``amount`` DBU
    (the paper uses lc/10 = 120 nm).  ``amount == 0`` returns only the
    original.
    """
    if amount == 0:
        return [clip]
    return [
        clip,
        clip.shifted(0, amount),
        clip.shifted(0, -amount),
        clip.shifted(amount, 0),
        clip.shifted(-amount, 0),
    ]


def downsample_to_centroids(
    clips: Sequence[Clip], clusters: Sequence[Cluster]
) -> list[Clip]:
    """Keep only each cluster's centroid pattern.

    ``clusters`` must have been produced by classifying exactly ``clips``
    (member indices index into it).
    """
    return [clips[cluster.centroid_member()] for cluster in clusters]


def balancing_class_weights(
    hotspot_count: int, nonhotspot_count: int
) -> dict[int, float]:
    """Per-class C multipliers equalising total class penalty.

    Applied on top of resampling for clusters that remain imbalanced
    (e.g. a two-hotspot cluster against dozens of nonhotspot centroids).
    """
    if hotspot_count <= 0 or nonhotspot_count <= 0:
        return {}
    if hotspot_count >= nonhotspot_count:
        return {-1: hotspot_count / nonhotspot_count}
    return {1: nonhotspot_count / hotspot_count}
