"""Named extraction regression fixtures (``tests/fixtures/fastdiff``).

Each fixture is a small GDSII layout promoted out of fuzz-mutant triage
because its geometry stresses the sweep-line extraction: degenerate
unit/hairline rects, edge- and corner-touching lattices, windows with
no geometry, rects spanning the window boundary, and a seeded mutation
soup.  Next to each GDS file sits the expected record the generator
wrote: per window, the tilings, the MTCG edges, the topological rules,
the nontopological features, the density grid, and the directional
side strings with their canonical key.  Extraction is
integer geometry, so every comparison here is ``==``, never a
tolerance.  ``tests/fixtures/fastdiff/generate.py`` rebuilds the corpus
deterministically.
"""

import importlib.util
import json
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures" / "fastdiff"
CASES = sorted(p.stem for p in FIXTURES.glob("*.gds"))

_spec = importlib.util.spec_from_file_location(
    "fastdiff_generate", FIXTURES / "generate.py"
)
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)


def test_corpus_is_complete():
    """The committed corpus holds every named case and its record, no strays."""
    assert CASES == sorted(generate.CASES)
    assert 8 <= len(CASES) <= 12
    records = sorted(p.name for p in FIXTURES.glob("*.expected.json"))
    assert records == sorted(f"{name}.expected.json" for name in CASES)


def _check(part, name, window):
    """Recompute one part of one fixture window; compare with its record."""
    expected = json.loads((FIXTURES / f"{name}.expected.json").read_text())
    rects = generate.fixture_rects(name, window)
    actual = json.loads(json.dumps(generate.PARTS[part](rects, window)))
    assert actual == expected[generate.window_key(window)][part]


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("window", generate.WINDOWS, ids=lambda w: f"{w.x0}_{w.y0}")
class TestFastdiffFixtures:
    def test_tilings_bit_identical(self, name, window):
        _check("tilings", name, window)

    def test_constraint_graphs_bit_identical(self, name, window):
        _check("edges", name, window)

    def test_topological_extraction_bit_identical(self, name, window):
        _check("rules", name, window)

    def test_nontopo_extraction_bit_identical(self, name, window):
        _check("nontopo", name, window)

    def test_density_grid_bit_identical(self, name, window):
        _check("density", name, window)

    def test_strings_bit_identical(self, name, window):
        _check("strings", name, window)
