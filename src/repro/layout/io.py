"""Serialisation for layouts and clip sets.

Layouts round-trip through real GDSII (the industry interchange format the
paper's toolchain used); clip sets additionally round-trip through a JSON
encoding that carries the labels GDSII has no standard place for.  In the
GDSII encoding of a clip set, each clip becomes one structure and its label
is encoded in the structure name, matching how the ICCAD-2012 training
archives organise clips (one cell per clip).
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath
from typing import Optional, Union

from repro.errors import InputError, LayoutError, ReproError
from repro.gdsii.flatten import flatten_structure
from repro.gdsii.library import GdsBoundary, GdsLibrary, GdsStructure
from repro.gdsii.reader import read_library
from repro.gdsii.writer import write_library_file
from repro.geometry.rect import Rect
from repro.layout.clip import Clip, ClipLabel, ClipSpec, ClipSet
from repro.layout.layout import Layout
from repro.resilience import faults
from repro.resilience.retry import IO_RETRY, call_with_retry

_LABEL_PREFIX = {
    ClipLabel.HOTSPOT: "HS",
    ClipLabel.NON_HOTSPOT: "NHS",
    ClipLabel.UNKNOWN: "UNK",
}
_PREFIX_LABEL = {v: k for k, v in _LABEL_PREFIX.items()}


def _read_bytes(path: Union[str, FsPath]) -> bytes:
    """Read a file with transient-IO retry and the ``io.read`` fault point."""
    faults.inject("io.read", path=str(path))
    return call_with_retry(
        lambda: FsPath(path).read_bytes(), IO_RETRY, label=f"read:{path}"
    )


def _parse_library(data: bytes, path: Union[str, FsPath]) -> GdsLibrary:
    """Parse GDSII bytes, prefixing input errors with the source path."""
    try:
        return read_library(data)
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# layout <-> GDSII
# ----------------------------------------------------------------------


def layout_to_library(layout: Layout, name: str = "LAYOUT", top: str = "TOP") -> GdsLibrary:
    """Convert a layout into a single-top-cell GDSII library."""
    library = GdsLibrary(name=name)
    structure = library.new_structure(top)
    for layer_number in layout.layer_numbers():
        for polygon in layout.layer(layer_number).polygons:
            structure.add(GdsBoundary(layer_number, 0, list(polygon.vertices)))
    return library


def library_to_layout(library: GdsLibrary) -> Layout:
    """Flatten a GDSII library's single top structure into a layout."""
    layout = Layout()
    for layer, _datatype, polygon in flatten_structure(library, library.single_top()):
        layout.add_polygon(layer, polygon)
    return layout


def save_layout_gds(layout: Layout, path: Union[str, FsPath]) -> None:
    """Write a layout to a GDSII file."""
    write_library_file(layout_to_library(layout), path)


def load_layout_gds(path: Union[str, FsPath]) -> Layout:
    """Read a layout back from a GDSII file."""
    return library_to_layout(_parse_library(_read_bytes(path), path))


def save_layout_auto(layout: Layout, path: Union[str, FsPath]) -> None:
    """Write a layout, picking the format from the file extension.

    ``.oas``/``.oasis`` writes OASIS; anything else writes GDSII.
    """
    suffix = FsPath(path).suffix.lower()
    if suffix in (".oas", ".oasis"):
        from repro.oasis.writer import write_oasis_file

        write_oasis_file(layout, path)
    else:
        save_layout_gds(layout, path)


def load_layout_auto(path: Union[str, FsPath]) -> Layout:
    """Read a layout, sniffing the stream format from the file magic.

    OASIS files start with ``%SEMI-OASIS``; everything else is treated as
    GDSII.
    """
    data = _read_bytes(path)
    if data.startswith(b"%SEMI-OASIS"):
        from repro.oasis.reader import read_oasis

        try:
            return read_oasis(data).layout
        except InputError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    return library_to_layout(_parse_library(data, path))


# ----------------------------------------------------------------------
# clip set <-> GDSII
# ----------------------------------------------------------------------


def clipset_to_library(clip_set: ClipSet, name: str = "CLIPS") -> GdsLibrary:
    """One structure per clip, label encoded in the structure name."""
    library = GdsLibrary(name=name)
    for index, clip in enumerate(clip_set):
        prefix = _LABEL_PREFIX[clip.label]
        structure = library.new_structure(f"{prefix}_{index:06d}")
        for rect in clip.rects:
            structure.add(GdsBoundary.from_rect(clip.layer, 0, rect))
        # A zero-datatype-255 marker boundary records the window itself so
        # the loader can re-anchor the clip without external metadata.
        structure.add(GdsBoundary(clip.layer, 255, list(clip.window.corners())))
    return library


def library_to_clipset(
    library: GdsLibrary, spec: ClipSpec, quarantine=None
) -> ClipSet:
    """Inverse of :func:`clipset_to_library`.

    With a :class:`~repro.resilience.quarantine.QuarantineReport`, a
    malformed clip structure is recorded there and skipped; without one
    (the default) it raises, preserving strict round-trip semantics.
    """
    clip_set = ClipSet(spec)
    for structure_name in sorted(library.structures):
        structure = library.structures[structure_name]
        try:
            faults.inject("io.clip", structure=structure_name)
            clip_set.add(_structure_to_clip(structure, structure_name, spec))
        except ReproError as exc:
            if quarantine is None:
                raise
            quarantine.add(
                type(exc).__name__,
                str(exc),
                source="io.clip",
                structure=structure_name,
            )
    return clip_set


def _structure_to_clip(
    structure: GdsStructure, structure_name: str, spec: ClipSpec
) -> Clip:
    prefix = structure_name.split("_", 1)[0]
    if prefix not in _PREFIX_LABEL:
        raise LayoutError(f"clip structure {structure_name!r} has no label prefix")
    label = _PREFIX_LABEL[prefix]
    window: Optional[Rect] = None
    rects: list[Rect] = []
    layer = 1
    for boundary in structure.boundaries():
        polygon_box = boundary.to_polygon().bbox()
        if boundary.datatype == 255:
            window = polygon_box
        else:
            rects.append(polygon_box)
            layer = boundary.layer
    if window is None:
        raise LayoutError(f"clip structure {structure_name!r} lacks a window marker")
    return Clip.build(window, spec, rects, label, layer)


def save_clipset_gds(clip_set: ClipSet, path: Union[str, FsPath]) -> None:
    write_library_file(clipset_to_library(clip_set), path)


def load_clipset_gds(
    path: Union[str, FsPath], spec: ClipSpec, quarantine=None
) -> ClipSet:
    return library_to_clipset(_parse_library(_read_bytes(path), path), spec, quarantine)


# ----------------------------------------------------------------------
# clip set <-> JSON
# ----------------------------------------------------------------------


def clipset_to_json(clip_set: ClipSet) -> str:
    """Serialise a clip set (windows, rects, labels) to a JSON string."""
    payload = {
        "spec": {
            "core_side": clip_set.spec.core_side,
            "clip_side": clip_set.spec.clip_side,
        },
        "clips": [
            {
                "window": [clip.window.x0, clip.window.y0, clip.window.x1, clip.window.y1],
                "label": clip.label.value,
                "layer": clip.layer,
                "rects": [[r.x0, r.y0, r.x1, r.y1] for r in clip.rects],
            }
            for clip in clip_set
        ],
    }
    return json.dumps(payload, separators=(",", ":"))


def clipset_from_json(text: str) -> ClipSet:
    """Inverse of :func:`clipset_to_json`."""
    try:
        payload = json.loads(text)
        spec = ClipSpec(**payload["spec"])
        clip_set = ClipSet(spec)
        for entry in payload["clips"]:
            window = Rect(*entry["window"])
            rects = [Rect(*r) for r in entry["rects"]]
            label = ClipLabel(entry["label"])
            clip_set.add(Clip.build(window, spec, rects, label, entry["layer"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise LayoutError(f"malformed clip-set JSON: {exc}") from exc
    return clip_set


def save_clipset_json(clip_set: ClipSet, path: Union[str, FsPath]) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(clipset_to_json(clip_set))


def load_clipset_json(path: Union[str, FsPath]) -> ClipSet:
    try:
        text = _read_bytes(path).decode("ascii")
    except UnicodeDecodeError as exc:
        raise LayoutError(f"{path}: clip-set JSON is not ASCII: {exc}") from exc
    return clipset_from_json(text)
