"""Synthetic layout fabric and benchmark-piece builders.

Produces the two artefact kinds a benchmark pair needs:

- *training clips*: a labelled motif core embedded in routing-fabric ambit
  (the shape of the MX training archives), and
- *testing layouts*: a routing fabric with motifs planted at known core
  windows, giving exact ground truth for hit/extra scoring.

The fabric is a standard-cell-style metal layer: horizontal tracks at a
fixed pitch with random segment breaks plus sparse vertical stubs.  Its
dimensions are safely outside every motif's critical regime so the fabric
itself contains no accidental hotspots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import DataError
from repro.geometry.dissect import cut_to_max_size
from repro.geometry.rect import Rect
from repro.layout.clip import Clip, ClipLabel, ClipSpec
from repro.layout.layout import Layout
from repro.layout.spatial import RectIndex
from repro.data.patterns import AMBIT_MOTIF, MOTIFS, generate_ambit_motif, generate_motif

#: Fabric track geometry (nm): pitch/width chosen so spacing (128 nm) is
#: comfortably above the 70 nm hotspot regime.
FABRIC_PITCH = 192
FABRIC_WIDTH = 64
FABRIC_SPACING = FABRIC_PITCH - FABRIC_WIDTH


def fabric_bands(
    rng: np.random.Generator, window: Rect, fill_fraction: float
) -> list[tuple[int, int]]:
    """Standard-cell-style fabric band y-intervals for a window.

    Bands are tall enough to host a full clip core (so planted sites can
    sit inside dense fabric, where real hotspots live); channel gaps are
    sized so the covered fraction approximates ``fill_fraction``.
    """
    if fill_fraction >= 1.0:
        return [(window.y0, window.y1)]
    bands: list[tuple[int, int]] = []
    y = window.y0
    while y < window.y1:
        # Bands are at least a clip tall, so a clip centred on an in-band
        # site sees fabric all the way to its window boundary (the
        # extraction's bbox-proximity requirement).
        band_rows = int(rng.integers(30, 44))
        band_height = band_rows * FABRIC_PITCH
        top = min(window.y1, y + band_height)
        bands.append((y, top))
        gap_rows = max(2, round(band_rows * (1.0 - fill_fraction) / fill_fraction))
        y = top + gap_rows * FABRIC_PITCH
    return bands


def fabric_rects(
    rng: np.random.Generator,
    window: Rect,
    keep_out: Sequence[Rect] = (),
    break_probability: float = 0.35,
    stub_probability: float = 0.08,
    fill_fraction: float = 1.0,
    bands: Optional[list[tuple[int, int]]] = None,
) -> list[Rect]:
    """Routing-fabric rectangles filling ``window`` minus keep-out zones.

    Horizontal tracks at ``FABRIC_PITCH`` are segmented at random break
    points; segments intersecting a keep-out box are dropped entirely (so
    planted motifs keep clean surroundings).  Occasional vertical stubs
    connect adjacent tracks for corner variety — stubs are centred within
    the horizontal gap of a break so they never touch live segments
    sideways.

    ``fill_fraction`` < 1 structures the fabric into standard-cell-style
    bands separated by empty routing channels (real layouts are not
    wall-to-wall metal); the density-driven clip extraction's advantage
    over window scanning (Table V) comes precisely from skipping that
    empty area.
    """
    if not 0.0 < fill_fraction <= 1.0:
        raise DataError(f"fill_fraction must be in (0, 1], got {fill_fraction}")
    if bands is None:
        bands = fabric_bands(rng, window, fill_fraction)
    keep_out_index = RectIndex(keep_out)
    # Phase 1: horizontal track segments with random breaks, laid out in
    # the given bands (empty channels separate them when fill < 1).
    segments: list[Rect] = []
    stub_slots: list[tuple[int, int]] = []  # (x centre of a break, row y)
    band_index = 0
    y = window.y0 + FABRIC_SPACING // 2
    while y + FABRIC_WIDTH <= window.y1:
        while band_index < len(bands) and y >= bands[band_index][1]:
            band_index += 1
        if band_index >= len(bands):
            break
        band_lo, band_hi = bands[band_index]
        if y < band_lo:
            y = band_lo + FABRIC_SPACING // 2
            continue
        x = window.x0
        while x < window.x1:
            # Segment length: a few microns with jitter.
            length = int(rng.integers(1200, 4200))
            end = min(x + length, window.x1)
            segment = Rect.maybe(x, y, end, y + FABRIC_WIDTH)
            if segment is not None and segment.width >= FABRIC_WIDTH:
                blocked = keep_out_index.any_overlap(segment)
                if not blocked and rng.random() > break_probability * 0.3:
                    segments.append(segment)
            # Break gap before the next segment; gaps are wide enough that
            # a centred stub keeps safe-regime clearance on both sides.
            gap = int(rng.integers(FABRIC_SPACING + 260, 980))
            if rng.random() < stub_probability:
                stub_slots.append((end + gap // 2, y))
            x = end + gap
        y += FABRIC_PITCH

    # Phase 2: vertical stubs bridging adjacent rows, placed only where
    # they keep safe clearance (> the hotspot regime) from everything.
    from repro.data.patterns import GAP_REGIMES

    min_clear = GAP_REGIMES["hotspot"][1] + 30
    # Each accepted stub joins the index, so later stubs keep clear of it.
    placed = RectIndex(segments)
    for stub_x, row_y in stub_slots:
        # The stub fills the space strictly between two track rows, so it
        # abuts (never overlaps) any segments above and below.
        stub = Rect.maybe(
            stub_x, row_y + FABRIC_WIDTH, stub_x + FABRIC_WIDTH, row_y + FABRIC_PITCH
        )
        if stub is None or stub.y1 + FABRIC_WIDTH > window.y1:
            continue
        if keep_out_index.any_overlap(stub):
            continue
        danger = stub.expanded(min_clear)
        if any(not stub.touches(r) for r in placed.query(danger)):
            continue
        placed.insert(stub)
    return placed.all_rects()


def anchor_of(rects: Sequence[Rect], core_side: int) -> tuple[int, int]:
    """The canonical extraction anchor of a rectangle set.

    Layout clip extraction (Section III-E) anchors candidate cores at the
    bottom-left corner of each dissected rectangle; the canonical anchor is
    the lexicographically smallest such corner.  Training clips are built
    at this anchor so the training distribution matches what evaluation
    extracts at the same geometry — exactly the alignment the real contest
    clips have, since those were themselves cut from layouts.
    """
    pieces = cut_to_max_size(list(rects), core_side)
    return min((piece.x0, piece.y0) for piece in pieces)


#: Fabric moat half-width around an ambit-sensitive motif's core: wide
#: enough that the crowding tracks (or their deliberate absence) are the
#: only geometry the feedback kernel sees near the core.
AMBIT_MOAT = 1100


def build_training_clip(
    rng: np.random.Generator,
    spec: ClipSpec,
    motif_name: str,
    hotspot: bool,
    origin: tuple[int, int] = (0, 0),
) -> Clip:
    """One labelled training clip: motif core inside fabric ambit.

    The motif is generated in a nominal core box, then the clip window is
    re-anchored at the motif's canonical extraction anchor (see
    :func:`anchor_of`) so training and evaluation see identically-aligned
    patterns.  The ambit-sensitive motif (:data:`AMBIT_MOTIF`) brings its
    own ambit geometry and a wider fabric moat.
    """
    nominal = spec.core_of(spec.clip_at(*origin))
    if motif_name == AMBIT_MOTIF:
        motif, ambit_extra = generate_ambit_motif(rng, hotspot, nominal)
    else:
        motif = generate_motif(motif_name, rng, hotspot, nominal)
        ambit_extra = []
    ax, ay = anchor_of(motif, spec.core_side)
    core = Rect(ax, ay, ax + spec.core_side, ay + spec.core_side)
    window = spec.clip_for_core(core)
    # Keep fabric out of the *anchored core* so the core region holds the
    # motif alone — matching what evaluation extracts at this anchor.
    moat = AMBIT_MOAT if motif_name == AMBIT_MOTIF else FABRIC_SPACING
    keep_out = [core.expanded(moat)]
    ambit = fabric_rects(rng, window, keep_out)
    label = ClipLabel.HOTSPOT if hotspot else ClipLabel.NON_HOTSPOT
    return Clip.build(window, spec, motif + ambit_extra + ambit, label)


def build_fabric_clip(
    rng: np.random.Generator,
    spec: ClipSpec,
    origin: tuple[int, int] = (0, 0),
) -> Clip:
    """A motif-free nonhotspot clip of plain routing fabric.

    Real nonhotspot training populations are dominated by ordinary layout;
    fabric clips teach the kernels what "nothing interesting" looks like.
    The window is re-anchored at the fabric's canonical extraction anchor
    for the same alignment reason as :func:`build_training_clip`.
    """
    window = spec.clip_at(*origin)
    rects = fabric_rects(rng, window.expanded(spec.core_side))
    in_window = [r for r in rects if r.overlaps(window)]
    ax, ay = anchor_of(in_window, spec.core_side)
    core = Rect(ax, ay, ax + spec.core_side, ay + spec.core_side)
    return Clip.build(
        spec.clip_for_core(core), spec, rects, ClipLabel.NON_HOTSPOT
    )


@dataclass
class PlantedSite:
    """One motif planted into a layout.

    ``anchor`` is the canonical extraction anchor of the site's geometry —
    the lower-left corner of the core window a detector-extracted clip
    will use for this motif.
    """

    core: Rect
    motif: str
    hotspot: bool
    anchor: tuple[int, int] = (0, 0)


@dataclass
class TestingLayout:
    """A testing layout plus its planted ground truth."""

    layout: Layout
    window: Rect
    spec: ClipSpec
    sites: list[PlantedSite] = field(default_factory=list)

    def hotspot_cores(self) -> list[Rect]:
        """Ground-truth hotspot core windows (the actual hotspots)."""
        return [site.core for site in self.sites if site.hotspot]

    @property
    def area_um2(self) -> float:
        return self.window.area / 1e6


def harvest_training_clips(
    planted: "TestingLayout",
    fabric_clip_count: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> list[Clip]:
    """Cut labelled training clips out of a planted layout.

    This mirrors how the contest training archives were made: clips are
    extracted from real (here: generated) layouts at the sites' anchors,
    so the training distribution matches what evaluation-time clip
    extraction produces — including array sites, companion-contaminated
    cores and ambit-sensitive cases.  ``fabric_clip_count`` additional
    motif-free nonhotspot clips are cut at fabric anchors.
    """
    spec = planted.spec
    clips: list[Clip] = []
    for site in planted.sites:
        ax, ay = site.anchor
        core = Rect(ax, ay, ax + spec.core_side, ay + spec.core_side)
        label = ClipLabel.HOTSPOT if site.hotspot else ClipLabel.NON_HOTSPOT
        clips.append(planted.layout.cut_clip_at_core(spec, core, label=label))
    if fabric_clip_count:
        rng = rng or np.random.default_rng(0)
        site_zones = RectIndex(
            site.core.expanded(spec.clip_side) for site in planted.sites
        )
        layer_rects = planted.layout.layer(1).rects
        candidates = [r for r in layer_rects if not site_zones.any_overlap(r)]
        picks = rng.permutation(len(candidates))
        taken = 0
        margin = spec.ambit_margin + spec.core_side
        for index in picks:
            if taken >= fabric_clip_count:
                break
            rect = candidates[int(index)]
            core = Rect(
                rect.x0, rect.y0, rect.x0 + spec.core_side, rect.y0 + spec.core_side
            )
            inner = planted.window.expanded(-margin)
            if not inner.contains_rect(core):
                continue
            clip = planted.layout.cut_clip_at_core(
                spec, core, label=ClipLabel.NON_HOTSPOT
            )
            if clip.core_rects():
                clips.append(clip)
                taken += 1
    return clips


def build_testing_layout(
    rng: np.random.Generator,
    spec: ClipSpec,
    window: Rect,
    hotspot_count: int,
    decoy_count: int = 0,
    motif_names: Optional[Sequence[str]] = None,
    layer: int = 1,
    fabric_fill: float = 1.0,
) -> TestingLayout:
    """Build a fabric layout with planted hotspot (and decoy) motifs.

    Sites are placed on a coarse grid with at least one clip side of
    separation so truth cores never overlap; decoys are safe-regime motif
    instances that stress the false-alarm behaviour of a detector.
    """
    names = list(motif_names) if motif_names else [m.name for m in MOTIFS]
    total = hotspot_count + decoy_count
    bands = fabric_bands(rng, window, fabric_fill)
    # Every fourth hotspot becomes a periodic array spanning two cores
    # (comb across a wide window) when the comb motif is available, and
    # every second decoy draws from the borderline regime — these feed the
    # redundancy and false-alarm machinery the paper evaluates (Fig. 12's
    # strongly-overlapped reports come from such dense periodic regions).
    array_stride = 4

    # Candidate anchor grid for core windows: cores stay disjoint (the
    # jitter below is under half a core, the step is 2.5 cores) while clip
    # windows may overlap, as they do in real layouts.
    # 1.5-core steps keep jittered cores disjoint (jitter < core/2) while
    # packing enough sites into the fabric bands.
    step = spec.core_side + spec.core_side // 2
    # Clip windows extend one ambit margin beyond a site core; this margin
    # keeps every site's clip fully inside the layout window.
    margin = spec.ambit_margin + spec.core_side
    xs = list(range(window.x0 + margin, window.x1 - margin - spec.core_side, step))
    # Sites (plus their jitter head-room) must sit inside a fabric band —
    # real hotspots live in dense regions, and the extraction's
    # polygon-distribution requirements assume surrounding geometry.
    # A site's whole clip (core + ambit + jitter) must stay inside its
    # band, or the extraction's polygon-distribution check rejects the
    # site's candidates.
    clip_headroom = spec.ambit_margin + spec.core_side + spec.core_side // 2
    ys: list[int] = []
    for band_lo, band_hi in bands:
        y = max(band_lo + spec.ambit_margin, window.y0 + margin)
        while y + clip_headroom <= min(band_hi, window.y1 - margin):
            ys.append(y)
            y += step
    anchors = [(x, y) for x in xs for y in ys]
    if len(anchors) < total:
        raise DataError(
            f"window {window.width}x{window.height} fits only {len(anchors)} "
            f"sites, need {total}"
        )
    chosen = rng.permutation(len(anchors))[:total]

    sites: list[PlantedSite] = []
    motif_rects = RectIndex()
    keep_out: list[Rect] = []
    for rank, anchor_index in enumerate(chosen):
        x, y = anchors[int(anchor_index)]
        # Jitter within half a core so sites do not align with the grid.
        jx = x + int(rng.integers(0, spec.core_side // 2))
        jy = y + int(rng.integers(0, spec.core_side // 2))
        core = Rect(jx, jy, jx + spec.core_side, jy + spec.core_side)
        hotspot = rank < hotspot_count
        motif = names[int(rng.integers(0, len(names)))]
        ambit_extra: list[Rect] = []
        if motif == AMBIT_MOTIF:
            rects, ambit_extra = generate_ambit_motif(rng, hotspot, core)
        elif hotspot and rank % array_stride == 0 and "comb" in names:
            # A periodic comb array spanning two core widths.
            motif = "comb"
            wide = Rect(core.x0, core.y0, core.x1 + spec.core_side, core.y1)
            rects = generate_motif(motif, rng, True, wide)
        elif not hotspot and rank % 2 == 0:
            # Borderline decoy: prints, but barely.
            rects = generate_motif(motif, rng, "borderline", core)
        else:
            rects = generate_motif(motif, rng, hotspot, core)
        for site_core, site_rects in [(core, rects)]:
            site_rects = [r for r in site_rects if not motif_rects.any_overlap(r)]
            if not site_rects:
                continue
            # Clear fabric from the window a detector-extracted core
            # anchored at this motif will cover, so that core holds motif
            # geometry alone — the clean-core convention training uses.
            ax, ay = anchor_of(site_rects, spec.core_side)
            anchored_core = Rect(ax, ay, ax + spec.core_side, ay + spec.core_side)
            moat = AMBIT_MOAT if motif == AMBIT_MOTIF else FABRIC_SPACING
            zone = site_core.union_bbox(anchored_core)
            for extra in ambit_extra:
                zone = zone.union_bbox(extra)
            keep_out.append(zone.expanded(moat))
            for rect in site_rects + ambit_extra:
                motif_rects.insert(rect)
            ambit_extra = []
            sites.append(PlantedSite(site_core, motif, hotspot, (ax, ay)))

    fabric = fabric_rects(rng, window, keep_out, bands=bands)
    layout = Layout()
    for rect in motif_rects.all_rects() + fabric:
        layout.add_rect(layer, rect)
    return TestingLayout(layout, window, spec, sites)
