"""Reference implementations of redundant-clip removal (Section III-F).

These are the all-pairs versions that ``repro.core.removal`` had before
it found neighbouring cores through ``RectIndex``: every core is tested
against every other one, and each ``Clip.core`` access builds its
``Rect`` again.  ``tests/test_removal_oracle.py`` compares the indexed
code with them under Hypothesis.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import RemovalConfig
from repro.core.removal import (
    ClipFactory,
    reframe_region,
    region_frame,
    shift_to_gravity,
)
from repro.geometry.rect import Rect
from repro.layout.clip import Clip, ClipSpec


def merge_into_regions(reports: Sequence[Clip], min_overlap: float) -> list[list[int]]:
    """Union every pair of cores whose shared area reaches the threshold."""
    parent = list(range(len(reports)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    cores = [report.core for report in reports]
    for i in range(len(cores)):
        area_i = cores[i].area
        for j in range(i + 1, len(cores)):
            shared = cores[i].intersection_area(cores[j])
            if shared >= min_overlap * min(area_i, cores[j].area):
                union(i, j)

    groups: dict[int, list[int]] = {}
    for index in range(len(reports)):
        groups.setdefault(find(index), []).append(index)
    return list(groups.values())


def _corners_covered(core: Rect, others: Sequence[Rect]) -> bool:
    return all(
        any(other.contains_point(corner) for other in others)
        for corner in core.corners()
    )


def _polygons_covered(clip: Clip, others: Sequence[Clip]) -> bool:
    pieces = clip.core_rects()
    if not pieces:
        return True
    other_cores = [other.core for other in others]
    return all(
        any(core.contains_rect(piece) for core in other_cores) for piece in pieces
    )


def discard_redundant(reports: list[Clip]) -> list[Clip]:
    """Sequential drops against a survivor list, tested pair by pair.

    Membership and removal go by ``==``: of two equal clips, the first
    survivor equal to the visited one is removed.
    """
    survivors = list(reports)

    def overlap_degree(clip: Clip) -> int:
        return sum(1 for other in reports if other.core.overlaps(clip.core)) - 1

    for clip in sorted(reports, key=overlap_degree, reverse=True):
        if len(survivors) <= 1:
            break
        if clip not in survivors:
            continue
        others = [n for n in survivors if n is not clip and n.core.overlaps(clip.core)]
        if (
            others
            and _corners_covered(clip.core, [n.core for n in others])
            and _polygons_covered(clip, others)
        ):
            survivors.remove(clip)
    return survivors


def remove_redundant_clips(
    reports: Sequence[Clip],
    spec: ClipSpec,
    config: RemovalConfig,
    clip_factory: ClipFactory,
) -> list[Clip]:
    """The Section III-F pipeline over the all-pairs merge and discard."""
    if not reports:
        return []

    def merge_and_reframe(clips: Sequence[Clip]) -> list[Clip]:
        regions = merge_into_regions(clips, config.min_merge_overlap)
        out: list[Clip] = []
        for members in regions:
            if len(members) > config.reframe_threshold:
                frame = region_frame(clips, members)
                out.extend(
                    reframe_region(frame, spec, config.reframe_separation, clip_factory)
                )
            else:
                out.extend(clips[index] for index in members)
        return out

    stage1 = merge_and_reframe(list(reports))
    stage2 = discard_redundant(stage1)
    stage3 = [shift_to_gravity(clip, config, clip_factory) for clip in stage2]
    stage4 = merge_and_reframe(stage3)
    return discard_redundant(stage4)
