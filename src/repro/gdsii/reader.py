"""GDSII stream reader: bytes -> :class:`repro.gdsii.library.GdsLibrary`.

The reader is a small state machine over the record stream.  It accepts the
element kinds the object model supports (BOUNDARY, PATH, BOX, SREF, AREF)
and raises :class:`~repro.errors.GdsiiError` with record context on any
structural violation, rather than silently skipping content — a corrupted
benchmark file should fail loudly.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path as FsPath
from typing import Union

from repro.errors import GdsiiError
from repro.gdsii.library import (
    GdsARef,
    GdsBoundary,
    GdsBox,
    GdsLibrary,
    GdsPath,
    GdsSRef,
    GdsStructure,
    GdsTransform,
)
from repro.gdsii.records import DataType, Record, RecordType, decode_record
from repro.geometry.point import Point


def read_library(data: bytes) -> GdsLibrary:
    """Parse a full GDSII byte stream into a library."""
    reader = _StreamReader(data)
    try:
        return reader.run()
    except (IndexError, struct.error, UnicodeDecodeError) as exc:
        # Raw decoder slips on corrupt payloads become typed input errors
        # carrying the offending record's file offset.
        raise GdsiiError(
            f"malformed GDSII record at offset {reader.last_offset}: {exc}"
        ) from exc


def read_library_file(path: Union[str, FsPath]) -> GdsLibrary:
    """Parse a GDSII file from disk."""
    with open(path, "rb") as handle:
        return read_library(handle.read())


class _StreamReader:
    """Record-stream state machine producing a :class:`GdsLibrary`."""

    def __init__(self, data: bytes):
        self._data = data
        self._offset = 0
        self._done = False
        #: Offset of the most recently decoded record (error context).
        self.last_offset = 0
        self._library = GdsLibrary()

    # -- record cursor -------------------------------------------------
    def _next(self) -> Record:
        if self._done or self._offset >= len(self._data):
            raise GdsiiError("unexpected end of record stream")
        self.last_offset = self._offset
        record, self._offset = decode_record(self._data, self._offset)
        if record.rtype is RecordType.ENDLIB:
            self._done = True
        return record

    def _expect(self, rtype: RecordType) -> Record:
        record = self._next()
        if record.rtype is not rtype:
            raise GdsiiError(f"expected {rtype.name}, got {record.rtype.name}")
        return record

    # -- grammar -------------------------------------------------------
    def run(self) -> GdsLibrary:
        self._expect(RecordType.HEADER)
        self._expect(RecordType.BGNLIB)
        self._library.name = self._expect(RecordType.LIBNAME).text()
        units = self._expect(RecordType.UNITS).reals()
        if len(units) != 2:
            raise GdsiiError(f"UNITS must carry 2 reals, got {len(units)}")
        self._library.user_unit, self._library.meters_per_dbu = units
        while True:
            record = self._next()
            if record.rtype is RecordType.ENDLIB:
                return self._library
            if record.rtype is RecordType.BGNSTR:
                self._read_structure()
            else:
                raise GdsiiError(
                    f"unexpected {record.rtype.name} at library level"
                )

    def _read_structure(self) -> None:
        name = self._expect(RecordType.STRNAME).text()
        structure = GdsStructure(name)
        while True:
            record = self._next()
            if record.rtype is RecordType.ENDSTR:
                self._library.add_structure(structure)
                return
            if record.rtype is RecordType.BOUNDARY:
                structure.add(self._read_boundary())
            elif record.rtype is RecordType.PATH:
                structure.add(self._read_path())
            elif record.rtype is RecordType.BOX:
                structure.add(self._read_box())
            elif record.rtype is RecordType.SREF:
                structure.add(self._read_sref())
            elif record.rtype is RecordType.AREF:
                structure.add(self._read_aref())
            elif record.rtype is RecordType.TEXT:
                self._skip_element()  # labels carry no detection geometry
            else:
                raise GdsiiError(
                    f"unexpected {record.rtype.name} in structure {name!r}"
                )

    def _skip_element(self) -> None:
        while self._next().rtype is not RecordType.ENDEL:
            pass

    def _read_xy_points(self, record: Record) -> list[Point]:
        values = record.ints()
        if len(values) % 2:
            raise GdsiiError("XY record holds an odd number of coordinates")
        return [Point(values[i], values[i + 1]) for i in range(0, len(values), 2)]

    def _read_boundary(self) -> GdsBoundary:
        layer = self._expect(RecordType.LAYER).ints()[0]
        datatype = self._expect(RecordType.DATATYPE).ints()[0]
        xy = self._read_xy_points(self._expect(RecordType.XY))
        if len(xy) < 4 or xy[0] != xy[-1]:
            raise GdsiiError("BOUNDARY loop must repeat its first vertex")
        self._expect(RecordType.ENDEL)
        return GdsBoundary(layer, datatype, xy[:-1])

    def _read_path(self) -> GdsPath:
        layer = self._expect(RecordType.LAYER).ints()[0]
        datatype = self._expect(RecordType.DATATYPE).ints()[0]
        pathtype = 0
        width = 0
        record = self._next()
        if record.rtype is RecordType.PATHTYPE:
            pathtype = record.ints()[0]
            record = self._next()
        if record.rtype is RecordType.WIDTH:
            width = record.ints()[0]
            record = self._next()
        if record.rtype is not RecordType.XY:
            raise GdsiiError(f"PATH: expected XY, got {record.rtype.name}")
        xy = self._read_xy_points(record)
        self._expect(RecordType.ENDEL)
        return GdsPath(layer, datatype, width, xy, pathtype)

    def _read_box(self) -> GdsBox:
        layer = self._expect(RecordType.LAYER).ints()[0]
        boxtype = self._expect(RecordType.BOXTYPE).ints()[0]
        xy = self._read_xy_points(self._expect(RecordType.XY))
        if len(xy) != 5 or xy[0] != xy[-1]:
            raise GdsiiError("BOX must carry a closed 5-point loop")
        self._expect(RecordType.ENDEL)
        return GdsBox(layer, boxtype, xy[:-1])

    def _read_transform_then(self, *terminal: RecordType) -> tuple[GdsTransform, Record]:
        """Parse optional STRANS/MAG/ANGLE; return transform + next record."""
        reflect_x = False
        rotation = 0.0
        magnification = 1.0
        record = self._next()
        if record.rtype is RecordType.STRANS:
            assert record.dtype is DataType.BIT_ARRAY
            assert isinstance(record.payload, bytes)
            reflect_x = bool(record.payload[0] & 0x80)
            record = self._next()
            if record.rtype is RecordType.MAG:
                magnification = record.reals()[0]
                record = self._next()
            if record.rtype is RecordType.ANGLE:
                rotation = record.reals()[0]
                record = self._next()
        if record.rtype not in terminal:
            names = "/".join(t.name for t in terminal)
            raise GdsiiError(f"reference: expected {names}, got {record.rtype.name}")
        rotation_int = int(round(rotation))
        if not math.isclose(rotation, rotation_int, abs_tol=1e-9):
            raise GdsiiError(f"non-integral reference angle {rotation}")
        return (
            GdsTransform(reflect_x, rotation_int % 360, magnification),
            record,
        )

    def _read_sref(self) -> GdsSRef:
        sname = self._expect(RecordType.SNAME).text()
        transform, record = self._read_transform_then(RecordType.XY)
        xy = self._read_xy_points(record)
        if len(xy) != 1:
            raise GdsiiError("SREF XY must carry exactly one point")
        self._expect(RecordType.ENDEL)
        return GdsSRef(sname, xy[0], transform)

    def _read_aref(self) -> GdsARef:
        sname = self._expect(RecordType.SNAME).text()
        transform, record = self._read_transform_then(
            RecordType.COLROW, RecordType.XY
        )
        if record.rtype is RecordType.COLROW:
            columns, rows = record.ints()
            record = self._expect(RecordType.XY)
        else:
            raise GdsiiError("AREF requires a COLROW record")
        xy = self._read_xy_points(record)
        if len(xy) != 3:
            raise GdsiiError("AREF XY must carry exactly three points")
        origin, col_corner, row_corner = xy
        if columns <= 0 or rows <= 0:
            raise GdsiiError(f"AREF COLROW must be positive, got {columns}x{rows}")
        col_step = Point(
            (col_corner.x - origin.x) // columns, (col_corner.y - origin.y) // columns
        )
        row_step = Point(
            (row_corner.x - origin.x) // rows, (row_corner.y - origin.y) // rows
        )
        self._expect(RecordType.ENDEL)
        return GdsARef(sname, origin, columns, rows, col_step, row_step, transform)
