"""Grid-bucket spatial index for rectangles.

Testing layouts hold hundreds of thousands of dissected rectangles; clip
extraction issues a window query per candidate clip.  A uniform grid of
buckets gives O(window area / bucket area + matches) queries, which is the
right trade-off for layouts whose shapes are uniformly routing-pitch sized.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.errors import LayoutError
from repro.geometry.dissect import overlapping_pairs
from repro.geometry.rect import Rect


class RectIndex:
    """A uniform-grid spatial index over a fixed set of rectangles.

    Parameters
    ----------
    bucket_size:
        Side length of a grid bucket in DBU.  Pick roughly the query-window
        size; the default of 2400 DBU is half the ICCAD-2012 clip side.
    """

    def __init__(self, rects: Iterable[Rect] = (), bucket_size: int = 2400):
        if bucket_size <= 0:
            raise LayoutError(f"bucket_size must be positive, got {bucket_size}")
        self._bucket_size = bucket_size
        self._buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
        self._rects: list[Rect] = []
        # Built on first use, dropped when a rect is inserted.
        self._coords: Optional[np.ndarray] = None
        self._overlap_coords: Optional[np.ndarray] = None
        for rect in rects:
            self.insert(rect)

    def __len__(self) -> int:
        return len(self._rects)

    @property
    def bucket_size(self) -> int:
        return self._bucket_size

    def insert(self, rect: Rect) -> int:
        """Add a rectangle; returns its stable integer id."""
        rect_id = len(self._rects)
        self._rects.append(rect)
        for key in self._bucket_keys(rect):
            self._buckets[key].append(rect_id)
        self._coords = self._overlap_coords = None
        return rect_id

    def rect(self, rect_id: int) -> Rect:
        """Look up a rectangle by the id :meth:`insert` returned."""
        return self._rects[rect_id]

    def query(self, window: Rect) -> list[Rect]:
        """All rectangles overlapping ``window`` (positive shared area)."""
        seen: set[int] = set()
        out: list[Rect] = []
        for key in self._bucket_keys(window):
            for rect_id in self._buckets.get(key, ()):
                if rect_id in seen:
                    continue
                seen.add(rect_id)
                rect = self._rects[rect_id]
                if rect.overlaps(window):
                    out.append(rect)
        return out

    def query_ids(self, window: Rect) -> list[int]:
        """Ids of the rectangles overlapping ``window``, in ascending order."""
        ids: set[int] = set()
        for key in self._bucket_keys(window):
            ids.update(self._buckets.get(key, ()))
        rects = self._rects
        return sorted(i for i in ids if rects[i].overlaps(window))

    def any_overlap(self, window: Rect) -> bool:
        """Fast emptiness test for a window."""
        for key in self._bucket_keys(window):
            for rect_id in self._buckets.get(key, ()):
                if self._rects[rect_id].overlaps(window):
                    return True
        return False

    def all_rects(self) -> list[Rect]:
        """Every indexed rectangle, in insertion order."""
        return list(self._rects)

    def coords(self) -> np.ndarray:
        """The indexed rectangles as ``(N, 4)`` int64 rows
        ``x0, y0, x1, y1``, row ``i`` being rect id ``i``."""
        if self._coords is None:
            self._coords = rect_coords(self._rects)
        return self._coords

    def overlap_coords(self) -> np.ndarray:
        """``(K, 4)`` int64 rows of the intersection of every pair of
        indexed rectangles that share area (GDSII union semantics;
        equal rectangles inserted twice are such a pair)."""
        if self._overlap_coords is None:
            ordered = sorted(self._rects, key=attrgetter("x0"))
            self._overlap_coords = rect_coords(
                [a.intersection(b) for a, b in overlapping_pairs(ordered)]
            )
        return self._overlap_coords

    def _bucket_keys(self, rect: Rect) -> Iterator[tuple[int, int]]:
        size = self._bucket_size
        # floor division handles negative coordinates correctly in Python.
        bx0, bx1 = rect.x0 // size, (rect.x1 - 1) // size
        by0, by1 = rect.y0 // size, (rect.y1 - 1) // size
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                yield (bx, by)


def rect_coords(rects: Iterable[Rect]) -> np.ndarray:
    """``rects`` as ``(N, 4)`` int64 rows ``x0, y0, x1, y1``."""
    return np.array(
        [(r.x0, r.y0, r.x1, r.y1) for r in rects], dtype=np.int64
    ).reshape(-1, 4)
