"""Layout clips: the unit of training and evaluation.

Per the ICCAD-2012 formulation (Fig. 1), a *clip* is a square layout window
made of a central *core* — the part whose printability is being judged —
surrounded by an *ambit* that supplies lithographic context.  The contest
benchmarks use a 1.2 x 1.2 um core inside a 4.8 x 4.8 um clip.

A :class:`Clip` owns its window geometry plus the polygon rectangles that
fall inside the window (clipped to it), and an optional ground-truth label.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from typing import Iterable, Optional

import numpy as np

from repro.errors import LayoutError
from repro.geometry.dissect import any_overlap, disjoint_cover
from repro.geometry.grid import density_grid, window_density
from repro.geometry.rect import Rect
from repro.geometry.transform import Orientation, transform_rects_in_window

#: ``Rect``'s field order, so sorting by it equals sorting by ``Rect.__lt__``.
_RECT_ORDER = attrgetter("x0", "y0", "x1", "y1")


class ClipLabel(Enum):
    """Ground-truth (or predicted) class of a clip."""

    HOTSPOT = "hotspot"
    NON_HOTSPOT = "non_hotspot"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ClipSpec:
    """Window dimensions shared by every clip of a benchmark.

    ``core_side`` and ``clip_side`` are in DBU; the core is centred in the
    clip, so the ambit margin is ``(clip_side - core_side) / 2`` per side.
    Defaults are the ICCAD-2012 values with a 1 nm DBU.
    """

    core_side: int = 1200
    clip_side: int = 4800

    def __post_init__(self) -> None:
        if self.core_side <= 0 or self.clip_side <= 0:
            raise LayoutError("clip dimensions must be positive")
        if self.core_side > self.clip_side:
            raise LayoutError(
                f"core {self.core_side} larger than clip {self.clip_side}"
            )
        if (self.clip_side - self.core_side) % 2:
            raise LayoutError("ambit margin must be integral on both sides")

    @property
    def ambit_margin(self) -> int:
        return (self.clip_side - self.core_side) // 2

    def core_of(self, clip_window: Rect) -> Rect:
        """The core window centred inside a clip window."""
        m = self.ambit_margin
        return Rect(
            clip_window.x0 + m,
            clip_window.y0 + m,
            clip_window.x1 - m,
            clip_window.y1 - m,
        )

    def clip_at(self, x0: int, y0: int) -> Rect:
        """The clip window whose lower-left corner is ``(x0, y0)``."""
        return Rect(x0, y0, x0 + self.clip_side, y0 + self.clip_side)

    def clip_for_core(self, core: Rect) -> Rect:
        """The clip window whose centred core is ``core``."""
        if core.width != self.core_side or core.height != self.core_side:
            raise LayoutError(
                f"core must be {self.core_side} square, got {core.width}x{core.height}"
            )
        m = self.ambit_margin
        return Rect(core.x0 - m, core.y0 - m, core.x1 + m, core.y1 + m)


@dataclass(frozen=True)
class Clip:
    """A layout window with its geometry and label.

    ``rects`` hold the dissected polygon rectangles intersected with the
    clip window, sorted for canonical comparison.  Construction clips any
    out-of-window geometry rather than rejecting it, because shifted
    derivatives legitimately push geometry over the edge.
    """

    window: Rect
    spec: ClipSpec
    rects: tuple[Rect, ...]
    label: ClipLabel = ClipLabel.UNKNOWN
    layer: int = 1

    @staticmethod
    def build(
        window: Rect,
        spec: ClipSpec,
        rects: Iterable[Rect],
        label: ClipLabel = ClipLabel.UNKNOWN,
        layer: int = 1,
    ) -> "Clip":
        if window.width != spec.clip_side or window.height != spec.clip_side:
            raise LayoutError(
                f"clip window must be {spec.clip_side} square, "
                f"got {window.width}x{window.height}"
            )
        clipped = [
            r for r in (rect.intersection(window) for rect in rects) if r is not None
        ]
        ordered = sorted(clipped, key=_RECT_ORDER)
        # Layout geometry may overlap (GDSII union semantics); clips hold a
        # disjoint cover so density and tiling arithmetic stay exact.  The
        # cover depends on input order, so it is built from ``clipped``.
        if any_overlap(ordered):
            ordered = sorted(disjoint_cover(clipped), key=_RECT_ORDER)
        return Clip(window, spec, tuple(ordered), label, layer)

    # ------------------------------------------------------------------
    # regions
    # ------------------------------------------------------------------
    @property
    def core(self) -> Rect:
        return self.spec.core_of(self.window)

    def core_rects(self) -> list[Rect]:
        """Geometry intersected with the core window."""
        core = self.core
        return [r for r in (rect.intersection(core) for rect in self.rects) if r]

    def ambit_rects(self) -> list[Rect]:
        """Geometry pieces lying outside the core (the ambit ring).

        Each clip rectangle is reduced to its parts not covered by the core
        window; a rectangle straddling the core boundary contributes only
        its outside portions.
        """
        core = self.core
        out: list[Rect] = []
        for rect in self.rects:
            if not rect.overlaps(core):
                out.append(rect)
                continue
            # Split off up to four side pieces around the core.
            left = Rect.maybe(rect.x0, rect.y0, min(rect.x1, core.x0), rect.y1)
            right = Rect.maybe(max(rect.x0, core.x1), rect.y0, rect.x1, rect.y1)
            mid_x0, mid_x1 = max(rect.x0, core.x0), min(rect.x1, core.x1)
            below = Rect.maybe(mid_x0, rect.y0, mid_x1, min(rect.y1, core.y0))
            above = Rect.maybe(mid_x0, max(rect.y0, core.y1), mid_x1, rect.y1)
            out.extend(piece for piece in (left, right, below, above) if piece)
        return sorted(out)

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------
    def core_density(self) -> float:
        """Fraction of the core window covered by polygons."""
        return window_density(self.rects, self.core)

    def clip_density(self) -> float:
        """Fraction of the whole clip window covered by polygons."""
        return window_density(self.rects, self.window)

    def core_density_grid(self, resolution: int) -> np.ndarray:
        """Pixelated density of the core region (Section III-B2)."""
        return density_grid(self.core_rects(), self.core, resolution)

    def clip_density_grid(self, resolution: int) -> np.ndarray:
        """Pixelated density of the full clip (used by the feedback kernel)."""
        return density_grid(self.rects, self.window, resolution)

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def shifted(self, dx: int, dy: int) -> "Clip":
        """Derivative clip whose *window* moves by ``(-dx, -dy)``.

        Shifting the window opposite to the requested content shift makes
        the geometry appear shifted by ``(dx, dy)`` inside the window, which
        is how Section III-D3's data-shifting upsampling is defined.
        Geometry that leaves the window is clipped away.
        """
        moved = self.window.translated(-dx, -dy)
        return Clip.build(moved, self.spec, self.rects, self.label, self.layer)

    def oriented(self, orientation: Orientation) -> "Clip":
        """Derivative clip whose content is transformed by ``orientation``."""
        rects = transform_rects_in_window(list(self.rects), self.window, orientation)
        return Clip(self.window, self.spec, tuple(rects), self.label, self.layer)

    def with_label(self, label: ClipLabel) -> "Clip":
        return replace(self, label=label)

    def normalized(self) -> "Clip":
        """The clip translated so its window's lower-left is the origin.

        Training patterns from different layout locations compare equal
        after normalisation iff their content matches.
        """
        dx, dy = -self.window.x0, -self.window.y0
        return Clip(
            self.window.translated(dx, dy),
            self.spec,
            tuple(sorted(r.translated(dx, dy) for r in self.rects)),
            self.label,
            self.layer,
        )

    def content_key(self) -> tuple:
        """Hashable, position-independent content fingerprint."""
        normal = self.normalized()
        return (normal.spec, normal.rects)


@dataclass
class ClipSet:
    """A labelled collection of clips sharing one :class:`ClipSpec`."""

    spec: ClipSpec
    clips: list[Clip] = field(default_factory=list)

    def __post_init__(self) -> None:
        for clip in self.clips:
            self._check(clip)

    def _check(self, clip: Clip) -> None:
        if clip.spec != self.spec:
            raise LayoutError("clip spec does not match clip-set spec")

    def add(self, clip: Clip) -> None:
        self._check(clip)
        self.clips.append(clip)

    def __len__(self) -> int:
        return len(self.clips)

    def __iter__(self):
        return iter(self.clips)

    def hotspots(self) -> list[Clip]:
        return [c for c in self.clips if c.label is ClipLabel.HOTSPOT]

    def non_hotspots(self) -> list[Clip]:
        return [c for c in self.clips if c.label is ClipLabel.NON_HOTSPOT]

    def split(self) -> tuple[list[Clip], list[Clip]]:
        """Partition into (hotspots, non-hotspots), discarding unknowns."""
        return self.hotspots(), self.non_hotspots()
