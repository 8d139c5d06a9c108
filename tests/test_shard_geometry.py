"""The shard geometry hash against the rect-sorting hash it replaced.

``shard_geometry_hash`` keys every journaled shard.  It takes an
influence region's rows from the layer index's coordinate array and
sorts them in numpy; a journal keyed by the hash of the sorted ``Rect``
objects must keep matching it, so the digests must be equal on layouts
with exactly repeated rects, overlapping rects and negative
coordinates.
"""

from hashlib import sha256

from hypothesis import given, settings
from hypothesis.strategies import composite, integers, permutations, sampled_from, tuples

from repro.geometry.rect import Rect
from repro.layout.layout import Layout
from repro.obs import fingerprint_rects
from repro.work.shard import shard_geometry_hash

CLIP_SIDE = 1000


@composite
def layouts(draw):
    """Layer-1 rects on both sides of the origin, some repeated exactly."""
    rects = []
    for _ in range(draw(integers(1, 30))):
        x, y = draw(integers(-5000, 5000)), draw(integers(-5000, 5000))
        rects.append(Rect(x, y, x + draw(integers(1, 3000)), y + draw(integers(1, 3000))))
    rects += [draw(sampled_from(rects)) for _ in range(draw(integers(0, 5)))]
    layout = Layout()
    for rect in draw(permutations(rects)):
        layout.add_rect(1, rect)
    return layout


class TestShardGeometryHash:
    @given(
        layouts(),
        tuples(integers(-6000, 6000), integers(-6000, 6000)),
        sampled_from([500, 2000, 4000]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_hash_of_the_sorted_rects(self, layout, cell, shard_side):
        window = Rect(
            cell[0], cell[1], cell[0] + shard_side, cell[1] + shard_side
        ).expanded(CLIP_SIDE)
        expected = fingerprint_rects(sorted(layout.rects_in_window(1, window)))
        assert shard_geometry_hash(layout, 1, cell, shard_side, CLIP_SIDE) == expected

    def test_fingerprint_hashes_the_row_text(self):
        """The text every journal key was hashed from, unchanged."""
        rects = [Rect(-3, 0, 5, 7), Rect(1, 2, 3, 4), Rect(1, 2, 3, 4)]
        text = b"-3,0,5,7;1,2,3,4;1,2,3,4;n=3"
        assert fingerprint_rects(rects) == sha256(text).hexdigest()
        assert fingerprint_rects([]) == sha256(b"n=0").hexdigest()
