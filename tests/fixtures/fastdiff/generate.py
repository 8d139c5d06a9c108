"""Regenerate the extraction fixture corpus and its expected records.

Each fixture is a small GDSII layout whose geometry stresses the
sweep-line extraction: degenerate unit/hairline rects, edge- and
corner-touching lattices, windows with no geometry at all, rects
spanning the window boundary, and one seeded mutation soup.  They were
promoted out of fuzz-mutant triage into named fixtures so extraction is
pinned on the nastiest inputs we know, not just on hypothesis' random
draws.

Next to each ``<name>.gds`` the generator writes
``<name>.expected.json``: for every window in :data:`WINDOWS`, the
horizontal and vertical tilings, the MTCG edges, the topological rule
rectangles, the nontopological features and the density grid that
extraction produces from the GDS file, plus the four directional side
strings and the canonical topology key.  ``tests/test_fastdiff_fixtures.py``
recomputes each part and compares it bit for bit.

Run from the repo root to rebuild::

    PYTHONPATH=src python tests/fixtures/fastdiff/generate.py

The generator is seeded (no wall-clock, no entropy), so a rebuild is
byte-identical to the committed files unless extraction itself changed
-- CI rebuilds the corpus and fails on any diff.
"""

import json
import random
import re
from dataclasses import asdict
from pathlib import Path

from repro.features.nontopo import extract_nontopo_features
from repro.geometry.grid import density_grid
from repro.geometry.rect import Rect
from repro.layout.io import load_layout_gds, save_layout_gds
from repro.layout.layout import Layout
from repro.mtcg.features import extract_topological_features
from repro.mtcg.graph import build_mtcg
from repro.mtcg.tiles import horizontal_tiling, vertical_tiling
from repro.topology.strings import canonical_string_key, directional_strings

HERE = Path(__file__).parent
LAYER = 1
SEED = 20260809

#: Every fixture is extracted inside each of these windows.  The second
#: window is empty for most fixtures -- the empty-window case is part of
#: the contract, not an accident.
WINDOWS = [
    Rect(0, 0, 600, 600),
    Rect(600, 600, 1200, 1200),
    Rect(0, 0, 1200, 1200),
]
DENSITY_RESOLUTION = 12
DIAGONAL_MAX_GAP = 600


def _layout(rects):
    layout = Layout()
    for rect in rects:
        layout.add_rect(LAYER, rect)
    return layout


def empty_window():
    """Geometry only in the first window; the second is empty space."""
    return [Rect(40, 40, 260, 140), Rect(300, 180, 560, 260)]


def single_unit_rect():
    """One 1x1-DBU rect — the most degenerate block a tiling can see."""
    return [Rect(299, 299, 300, 300)]


def hairline_strips():
    """Width-1 strips, horizontal and vertical, some touching the rim."""
    return [
        Rect(0, 100, 600, 101),
        Rect(120, 0, 121, 600),
        Rect(0, 0, 1, 600),
        Rect(598, 250, 599, 251),
    ]


def touching_edges():
    """Abutting rects: shared edges, zero overlap — adjacency stress."""
    return [
        Rect(100, 100, 200, 200),
        Rect(200, 100, 300, 200),
        Rect(100, 200, 200, 300),
        Rect(300, 100, 400, 150),
        Rect(300, 150, 400, 200),
    ]


def corner_touch_lattice():
    """Checkerboard of rects meeting only at corners."""
    rects = []
    for i in range(5):
        for j in range(5):
            if (i + j) % 2 == 0:
                x0, y0 = 60 + 80 * i, 60 + 80 * j
                rects.append(Rect(x0, y0, x0 + 80, y0 + 80))
    return rects


def full_cover():
    """The first window is one solid block: a tiling with no space."""
    return [Rect(0, 0, 600, 600), Rect(700, 700, 800, 800)]


def comb_fingers():
    """Interdigitated combs — long runs of alternating block/space."""
    rects = [Rect(50, 50, 70, 550)]
    for k in range(10):
        y0 = 70 + 48 * k
        rects.append(Rect(70, y0, 520, y0 + 20))
    rects.append(Rect(520, 50, 540, 550))
    return rects


def diagonal_ladder():
    """Staggered rects inside the diagonal-gap search distance."""
    rects = []
    for k in range(6):
        x0, y0 = 60 + 70 * k, 60 + 80 * k
        rects.append(Rect(x0, y0, x0 + 50, y0 + 40))
    return rects


def window_spanning():
    """Rects crossing the window boundary — clipping makes them thin."""
    return [
        Rect(580, 100, 700, 200),   # straddles x = 600
        Rect(100, 590, 220, 610),   # straddles y = 600
        Rect(595, 595, 605, 605),   # straddles the corner
        Rect(-40, 300, 5, 360),     # pokes in from outside
    ]


def mutation_soup():
    """Seeded random rects: duplicates, touching, containment, slivers."""
    rng = random.Random(SEED)
    rects = []
    for _ in range(24):
        x0 = rng.randrange(0, 560)
        y0 = rng.randrange(0, 560)
        w = rng.choice([1, 1, 2, 5, 20, 60, 120])
        h = rng.choice([1, 2, 4, 25, 70, 130])
        rects.append(Rect(x0, y0, min(600, x0 + w), min(600, y0 + h)))
    rects.extend(rects[:4])  # exact duplicates
    return rects


CASES = {
    "empty_window": empty_window,
    "single_unit_rect": single_unit_rect,
    "hairline_strips": hairline_strips,
    "touching_edges": touching_edges,
    "corner_touch_lattice": corner_touch_lattice,
    "full_cover": full_cover,
    "comb_fingers": comb_fingers,
    "diagonal_ladder": diagonal_ladder,
    "window_spanning": window_spanning,
    "mutation_soup": mutation_soup,
}


def window_key(window):
    return f"{window.x0},{window.y0},{window.x1},{window.y1}"


def fixture_rects(name, window):
    """The rects of fixture ``name`` overlapping ``window``, read from its GDS."""
    layout = load_layout_gds(HERE / f"{name}.gds")
    return layout.rects_in_window(layout.layer_numbers()[0], window)


def tilings(rects, window):
    return {
        tiling.orientation: [
            [t.rect.x0, t.rect.y0, t.rect.x1, t.rect.y1, t.kind.value, t.index]
            for t in tiling.tiles
        ]
        for tiling in (horizontal_tiling(rects, window), vertical_tiling(rects, window))
    }


def edges(rects, window):
    return {
        axis: [
            [e.source, e.target, e.diagonal]
            for e in build_mtcg(
                tiling_fn(rects, window),
                axis,
                with_diagonals=True,
                diagonal_max_gap=DIAGONAL_MAX_GAP,
            ).edges
        ]
        for tiling_fn, axis in ((horizontal_tiling, "h"), (vertical_tiling, "v"))
    }


def rules(rects, window):
    return [
        [r.feature_type.value, r.dx, r.dy, r.width, r.height, r.boundary_mark]
        for r in extract_topological_features(
            rects, window, diagonal_max_gap=DIAGONAL_MAX_GAP
        )
    ]


def nontopo(rects, window):
    return asdict(extract_nontopo_features(rects, window))


def density(rects, window):
    clipped = [r for r in (rect.clipped(window) for rect in rects) if r]
    return density_grid(clipped, window, DENSITY_RESOLUTION).tolist()


def strings(rects, window):
    """The four side strings and the D8-canonical key (the kernel gate)."""
    return {
        **asdict(directional_strings(rects, window)),
        "key": canonical_string_key(rects, window),
    }


#: Part name -> the function that computes it; a record holds every part per window.
PARTS = {
    "tilings": tilings,
    "edges": edges,
    "rules": rules,
    "nontopo": nontopo,
    "density": density,
    "strings": strings,
}


def expected_record(name):
    """Every part of fixture ``name``, per window, as JSON-ready lists."""
    record = {}
    for window in WINDOWS:
        rects = fixture_rects(name, window)
        record[window_key(window)] = {
            part: compute(rects, window) for part, compute in PARTS.items()
        }
    return record


def dumps(record):
    """JSON with each innermost list (a tile, edge, rule or grid row) on one line."""
    text = json.dumps(record, indent=1, sort_keys=True)
    return re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]",
        lambda match: "[" + " ".join(match.group(1).split()) + "]",
        text,
    ) + "\n"


def main():
    for name, build in CASES.items():
        path = HERE / f"{name}.gds"
        save_layout_gds(_layout(build()), path)
        expected = HERE / f"{name}.expected.json"
        expected.write_text(dumps(expected_record(name)))
        print(f"wrote {path.name} and {expected.name}")


if __name__ == "__main__":
    main()
