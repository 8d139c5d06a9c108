"""Redundant clip removal (Section III-F, Fig. 12).

SVM evaluation over density-extracted candidates reports many strongly
overlapping hotspot cores that all point at the same physical pattern.
The removal pipeline reduces them without losing coverage:

1. **Merge** reported cores into regions (cores overlapping by at least
   the configured fraction of core area join a region; a region's frame is
   the bounding box of its cores).
2. **Reframe** any region holding more than ``reframe_threshold`` cores:
   replace its cores by a grid of cores at separation ``ls < lc``, which
   guarantees every actual hotspot core inside the region still overlaps
   some reported core.
3. **Discard** a core when other cores already cover all of its polygons
   and each of its corners (the region-overlap redundancy rule).
4. **Shift** clips whose geometry sits far from the clip boundary toward
   the polygons' centre of gravity (axis-aligned recentring).
5. Merge and reframe once more.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.core.config import RemovalConfig
from repro.geometry.rect import Rect, bounding_box
from repro.layout.clip import Clip, ClipSpec
from repro.layout.spatial import RectIndex
from repro.obs import trace

#: Builds a clip (window + in-window geometry) for an arbitrary core
#: window — backed by the testing layout during evaluation.
ClipFactory = Callable[[Rect], Clip]


def merge_into_regions(
    reports: Sequence[Clip], min_overlap: float
) -> list[list[int]]:
    """Group report indices into merging regions by core overlap.

    Two cores are merged when their intersection is at least
    ``min_overlap`` (positive, as :class:`RemovalConfig` requires) of a
    core's area, so only overlapping cores can merge and the spatial
    index yields every candidate pair.  Union-find keeps this
    near-linear in the number of overlapping pairs.  Regions are ordered
    by their smallest member, with members ascending.
    """
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
    for i, neighbours in enumerate(_neighbours(cores)):
        area_i = cores[i].area
        for j in neighbours:
            if j > i:
                shared = cores[i].intersection_area(cores[j])
                if shared >= min_overlap * min(area_i, cores[j].area):
                    union(i, j)

    groups: dict[int, list[int]] = {}
    for index in range(len(reports)):
        groups.setdefault(find(index), []).append(index)
    return list(groups.values())


def region_frame(reports: Sequence[Clip], members: Iterable[int]) -> Rect:
    """The merging region's frame: bbox of its member cores."""
    box = bounding_box(reports[index].core for index in members)
    assert box is not None  # regions are non-empty by construction
    return box


def reframe_region(
    frame: Rect, spec: ClipSpec, separation: int, clip_factory: ClipFactory
) -> list[Clip]:
    """Replace a region's cores with a grid at ``separation`` (Fig. 12(c)).

    Grid cores start at the frame's lower-left and advance by
    ``separation < core_side``; the last row/column is clamped so cores
    never leave the frame's neighbourhood.  Any actual core inside the
    frame must overlap one grid core because consecutive grid cores are
    closer than a core side.
    """
    lc = spec.core_side

    def positions(lo: int, hi: int) -> list[int]:
        span = hi - lo
        if span <= lc:
            return [lo]
        out = list(range(lo, hi - lc, separation))
        out.append(hi - lc)
        return out

    clips = []
    for x in positions(frame.x0, frame.x1):
        for y in positions(frame.y0, frame.y1):
            clips.append(clip_factory(Rect(x, y, x + lc, y + lc)))
    return clips


def _neighbours(cores: Sequence[Rect]) -> list[list[int]]:
    """For each core, the ascending indices of the other cores it shares
    positive area with."""
    index = RectIndex(cores)
    return [
        [j for j in index.query_ids(core) if j != i] for i, core in enumerate(cores)
    ]


def _corners_covered(core: Rect, others: Sequence[Rect]) -> bool:
    """Whether every corner of ``core`` lies inside some other core."""
    return all(
        any(other.contains_point(corner) for other in others)
        for corner in core.corners()
    )


def _polygons_covered(clip: Clip, others: Sequence[Rect]) -> bool:
    """Whether all polygons in ``clip``'s core appear in other cores.

    Each core geometry piece must be fully contained in the union of the
    other cores' windows; containment per piece in a single other core is
    used (pieces are small relative to cores).
    """
    return all(
        any(core.contains_rect(piece) for core in others)
        for piece in clip.core_rects()
    )


def discard_redundant(reports: list[Clip]) -> list[Clip]:
    """Drop cores made redundant by their neighbours (Fig. 12(d)).

    A core is discarded when (1) all polygons within it are covered by
    the other *surviving* cores and (2) each of its corners overlaps a
    surviving core.  Drops are sequential against the live survivor set
    (most-overlapped candidates first), never against a snapshot: a
    snapshot test can cascade — a core dropped because of a neighbour
    that is itself dropped later — silently losing coverage (a failure
    mode pinned by ``tests/test_extraction_properties.py``).  Polygon
    coverage is transitive under sequential drops: a piece covered by a
    survivor that is later dropped was, at that drop, re-covered by the
    then-survivors.  Ties are visited in report order, so of two equal
    clips the earlier one is dropped: the later one covers it.
    """
    cores = [clip.core for clip in reports]
    neighbours = _neighbours(cores)
    alive = [True] * len(reports)
    living = len(reports)
    degree = [len(ids) for ids in neighbours]
    for i in sorted(range(len(reports)), key=degree.__getitem__, reverse=True):
        if living <= 1:
            break
        others = [cores[j] for j in neighbours[i] if alive[j]]
        if (
            others
            and _corners_covered(cores[i], others)
            and _polygons_covered(reports[i], others)
        ):
            alive[i] = False
            living -= 1
    return [clip for clip, keep in zip(reports, alive) if keep]


def shift_to_gravity(
    clip: Clip, config: RemovalConfig, clip_factory: ClipFactory
) -> Clip:
    """Re-anchor a clip toward its polygons' centre of gravity (Fig. 12(e)).

    When the in-clip geometry bounding box sits further than
    ``max_boundary_distance`` from some clip edge, the clip centre moves
    along that axis to the geometry's area-weighted centre.
    """
    box = bounding_box(clip.rects)
    if box is None:
        return clip
    window = clip.window
    total = sum(r.area for r in clip.rects)
    cx = sum((r.x0 + r.x1) / 2 * r.area for r in clip.rects) / total
    cy = sum((r.y0 + r.y1) / 2 * r.area for r in clip.rects) / total

    shift_x = shift_y = 0
    if (
        box.x0 - window.x0 > config.max_boundary_distance
        or window.x1 - box.x1 > config.max_boundary_distance
    ):
        shift_x = int(cx) - window.center.x
    if (
        box.y0 - window.y0 > config.max_boundary_distance
        or window.y1 - box.y1 > config.max_boundary_distance
    ):
        shift_y = int(cy) - window.center.y
    if shift_x == 0 and shift_y == 0:
        return clip
    core = clip.core.translated(shift_x, shift_y)
    # Safety: re-centring must not abandon the geometry this report was
    # covering.  With spread-out geometry the centre of gravity can sit
    # away from every feature; in that case the original framing stands.
    original_core_rects = clip.core_rects()
    if original_core_rects and not all(
        core.overlaps(rect) for rect in original_core_rects
    ):
        return clip
    return clip_factory(core)


def remove_redundant_clips(
    reports: Sequence[Clip],
    spec: ClipSpec,
    config: RemovalConfig,
    clip_factory: ClipFactory,
) -> list[Clip]:
    """The full Section III-F pipeline over a report list."""
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

    with trace("detect.removal", reports=len(reports)) as span:
        stage1 = merge_and_reframe(list(reports))
        stage2 = discard_redundant(stage1)
        stage3 = [shift_to_gravity(clip, config, clip_factory) for clip in stage2]
        stage4 = merge_and_reframe(stage3)
        final = discard_redundant(stage4)
        span.set(kept=len(final))
        return final
