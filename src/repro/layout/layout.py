"""The flat layout model used during evaluation.

A :class:`Layout` holds per-layer polygon geometry, its rectangle
dissection, and a spatial index per layer.  It is the object clip
extraction queries and the benchmark generator emits; conversion to and
from GDSII lives in :mod:`repro.layout.io`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import LayoutError
from repro.geometry.dissect import dissect_polygon
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect, bounding_box
from repro.layout.clip import Clip, ClipLabel, ClipSpec
from repro.layout.spatial import RectIndex


@dataclass
class Layer:
    """One layout layer: polygons plus their rectangle dissection."""

    number: int
    polygons: list[Polygon] = field(default_factory=list)
    rects: list[Rect] = field(default_factory=list)

    def add_polygon(self, polygon: Polygon) -> None:
        self.polygons.append(polygon)
        self.rects.extend(dissect_polygon(polygon))

    def add_rect(self, rect: Rect) -> None:
        """Add a rectangle directly (it is its own dissection)."""
        self.polygons.append(Polygon.from_rect(rect))
        self.rects.append(rect)


class Layout:
    """A flat multi-layer layout with spatial indexing.

    Polygons are dissected into maximal rectangles as they are added;
    the paper's core-side cut (Section III-E) happens at anchor time, in
    :func:`repro.core.extraction.candidate_anchors`.
    """

    def __init__(self):
        self._layers: dict[int, Layer] = {}
        self._indexes: dict[int, RectIndex] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def layer(self, number: int) -> Layer:
        """Get or create the layer with this number."""
        if number not in self._layers:
            self._layers[number] = Layer(number)
        return self._layers[number]

    def layer_numbers(self) -> list[int]:
        return sorted(self._layers)

    def add_polygon(self, layer: int, polygon: Polygon) -> None:
        self.layer(layer).add_polygon(polygon)
        self._indexes.pop(layer, None)

    def add_rect(self, layer: int, rect: Rect) -> None:
        self.layer(layer).add_rect(rect)
        self._indexes.pop(layer, None)

    def add_polygons(self, layer: int, polygons: Iterable[Polygon]) -> None:
        for polygon in polygons:
            self.add_polygon(layer, polygon)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def index(self, layer: int) -> RectIndex:
        """The (lazily built) spatial index for a layer."""
        if layer not in self._layers:
            raise LayoutError(f"layout has no layer {layer}")
        if layer not in self._indexes:
            self._indexes[layer] = RectIndex(self._layers[layer].rects)
        return self._indexes[layer]

    def rects_in_window(self, layer: int, window: Rect) -> list[Rect]:
        """All layer rectangles overlapping ``window``."""
        return self.index(layer).query(window)

    def bbox(self, layer: Optional[int] = None) -> Optional[Rect]:
        """Bounding box of one layer, or of the whole layout."""
        if layer is not None:
            if layer not in self._layers:
                raise LayoutError(f"layout has no layer {layer}")
            return bounding_box(self._layers[layer].rects)
        boxes = (bounding_box(lyr.rects) for lyr in self._layers.values())
        return bounding_box(box for box in boxes if box is not None)

    def polygon_count(self, layer: Optional[int] = None) -> int:
        if layer is not None:
            return len(self.layer(layer).polygons)
        return sum(len(lyr.polygons) for lyr in self._layers.values())

    def rect_count(self, layer: Optional[int] = None) -> int:
        if layer is not None:
            return len(self.layer(layer).rects)
        return sum(len(lyr.rects) for lyr in self._layers.values())

    # ------------------------------------------------------------------
    # clip cutting
    # ------------------------------------------------------------------
    def cut_clip(
        self,
        spec: ClipSpec,
        window: Rect,
        layer: int = 1,
        label: ClipLabel = ClipLabel.UNKNOWN,
    ) -> Clip:
        """Extract the clip at ``window`` with the geometry under it."""
        rects = self.rects_in_window(layer, window)
        return Clip.build(window, spec, rects, label, layer)

    def cut_clip_at_core(
        self,
        spec: ClipSpec,
        core: Rect,
        layer: int = 1,
        label: ClipLabel = ClipLabel.UNKNOWN,
    ) -> Clip:
        """Extract the clip whose *core* window is ``core``."""
        return self.cut_clip(spec, spec.clip_for_core(core), layer, label)
