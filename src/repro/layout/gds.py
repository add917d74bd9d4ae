"""GDSII stream format: binary writer and reader.

The paper defines backend completion as "culminating in the creation of a
GDSII file" (Section III-B), so the toolkit writes the real binary format,
not a stand-in.  Supported records cover what a standard-cell chip needs:
``BOUNDARY`` polygons, ``SREF`` cell placements and ``TEXT`` labels.  The
reader parses files the writer produces (round-trip tested) and any other
GDSII limited to those record types.

Format reference: the GDSII stream is a sequence of records, each with a
2-byte big-endian length, a record type byte and a data type byte.
Coordinates are 4-byte signed integers in database units (1 nm here);
reals use the GDSII 8-byte excess-64 floating point encoding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache

# Record types (subset).
HEADER = 0x00
BGNLIB = 0x01
LIBNAME = 0x02
UNITS = 0x03
ENDLIB = 0x04
BGNSTR = 0x05
STRNAME = 0x06
ENDSTR = 0x07
BOUNDARY = 0x08
SREF = 0x0A
TEXT = 0x0C
LAYER = 0x0D
DATATYPE = 0x0E
XY = 0x10
ENDEL = 0x11
SNAME = 0x12
STRING = 0x19
TEXTTYPE = 0x16

# Data types.
DT_NONE = 0x00
DT_INT16 = 0x02
DT_INT32 = 0x03
DT_REAL8 = 0x05
DT_ASCII = 0x06

#: Database unit: 1 nm expressed in metres / in user units (um).
DB_UNIT_IN_UM = 0.001
DB_UNIT_IN_M = 1e-9


@dataclass
class GdsBoundary:
    """A filled polygon on one layer (rectangles use 5 closed points)."""

    layer: int
    datatype: int
    points: list[tuple[int, int]]  # database units, closed ring


@dataclass
class GdsText:
    layer: int
    text: str
    position: tuple[int, int]


@dataclass
class GdsSRef:
    """A placement of another structure."""

    struct_name: str
    position: tuple[int, int]


@dataclass
class GdsStruct:
    name: str
    boundaries: list[GdsBoundary] = field(default_factory=list)
    srefs: list[GdsSRef] = field(default_factory=list)
    texts: list[GdsText] = field(default_factory=list)

    def add_rect_um(self, layer: int, datatype: int, x0: float, y0: float,
                    x1: float, y1: float) -> None:
        """Convenience: add a rectangle given in micrometres."""
        pts = [
            (to_db(x0), to_db(y0)),
            (to_db(x1), to_db(y0)),
            (to_db(x1), to_db(y1)),
            (to_db(x0), to_db(y1)),
            (to_db(x0), to_db(y0)),
        ]
        self.boundaries.append(GdsBoundary(layer, datatype, pts))


@dataclass
class GdsLibrary:
    name: str
    structs: list[GdsStruct] = field(default_factory=list)

    def struct(self, name: str) -> GdsStruct:
        for s in self.structs:
            if s.name == name:
                return s
        raise KeyError(f"no structure {name!r}")

    def add(self, struct: GdsStruct) -> GdsStruct:
        self.structs.append(struct)
        return struct


def to_db(um: float) -> int:
    """Micrometres to database units (nm)."""
    return int(round(um / DB_UNIT_IN_UM))


def from_db(db: int) -> float:
    """Database units to micrometres."""
    return db * DB_UNIT_IN_UM


# -- low-level encoding --------------------------------------------------------


def _record(rtype: int, dtype: int, payload: bytes = b"") -> bytes:
    length = 4 + len(payload)
    return struct.pack(">HBB", length, rtype, dtype) + payload


def _ascii(text: str) -> bytes:
    data = text.encode("ascii")
    if len(data) % 2:
        data += b"\x00"
    return data


def _real8(value: float) -> bytes:
    """GDSII 8-byte excess-64 real."""
    if value == 0:
        return b"\x00" * 8
    sign = 0
    if value < 0:
        sign = 0x80
        value = -value
    exponent = 64
    while value >= 1.0:
        value /= 16.0
        exponent += 1
    while value < 1.0 / 16.0:
        value *= 16.0
        exponent -= 1
    mantissa = int(value * (1 << 56))
    return struct.pack(">BB", sign | exponent, (mantissa >> 48) & 0xFF) + struct.pack(
        ">HI", (mantissa >> 32) & 0xFFFF, mantissa & 0xFFFFFFFF
    )


def _parse_real8(data: bytes) -> float:
    byte0 = data[0]
    sign = -1.0 if byte0 & 0x80 else 1.0
    exponent = (byte0 & 0x7F) - 64
    mantissa = int.from_bytes(data[1:8], "big") / float(1 << 56)
    return sign * mantissa * (16.0**exponent)


_TIMESTAMP = struct.pack(">12H", 2025, 1, 1, 0, 0, 0, 2025, 1, 1, 0, 0, 0)


def write_gds(library: GdsLibrary) -> bytes:
    """Serialize a library to GDSII stream bytes."""
    out = bytearray()
    out += _record(HEADER, DT_INT16, struct.pack(">h", 600))
    out += _record(BGNLIB, DT_INT16, _TIMESTAMP)
    out += _record(LIBNAME, DT_ASCII, _ascii(library.name))
    out += _record(
        UNITS, DT_REAL8, _real8(DB_UNIT_IN_UM) + _real8(DB_UNIT_IN_M)
    )
    for struct_def in library.structs:
        out += _record(BGNSTR, DT_INT16, _TIMESTAMP)
        out += _record(STRNAME, DT_ASCII, _ascii(struct_def.name))
        for boundary in struct_def.boundaries:
            out += _record(BOUNDARY, DT_NONE)
            out += _record(LAYER, DT_INT16, struct.pack(">h", boundary.layer))
            out += _record(
                DATATYPE, DT_INT16, struct.pack(">h", boundary.datatype)
            )
            xy = b"".join(
                struct.pack(">ii", x, y) for x, y in boundary.points
            )
            out += _record(XY, DT_INT32, xy)
            out += _record(ENDEL, DT_NONE)
        for sref in struct_def.srefs:
            out += _record(SREF, DT_NONE)
            out += _record(SNAME, DT_ASCII, _ascii(sref.struct_name))
            out += _record(
                XY, DT_INT32, struct.pack(">ii", *sref.position)
            )
            out += _record(ENDEL, DT_NONE)
        for text in struct_def.texts:
            out += _record(TEXT, DT_NONE)
            out += _record(LAYER, DT_INT16, struct.pack(">h", text.layer))
            out += _record(TEXTTYPE, DT_INT16, struct.pack(">h", 0))
            out += _record(XY, DT_INT32, struct.pack(">ii", *text.position))
            out += _record(STRING, DT_ASCII, _ascii(text.text))
            out += _record(ENDEL, DT_NONE)
        out += _record(ENDSTR, DT_NONE)
    out += _record(ENDLIB, DT_NONE)
    return bytes(out)


_ELEMENTS = {BOUNDARY: "BOUNDARY", SREF: "SREF", TEXT: "TEXT"}
_HEADER_RECORD = struct.Struct(">HBB")
_INT16 = struct.Struct(">h")


@lru_cache(maxsize=None)
def _xy_struct(count: int) -> struct.Struct:
    """Decoder for an XY record of ``count`` points (at most 8191: the
    record length is 16 bits)."""
    return struct.Struct(f">{2 * count}i")


def read_gds(data: bytes) -> GdsLibrary:
    """Parse GDSII stream bytes (records written by :func:`write_gds`).

    Malformed input raises :class:`ValueError` carrying the byte offset
    of the offending record — never :class:`IndexError`,
    :class:`struct.error` or a bare :class:`UnicodeDecodeError` — so
    callers can treat any other exception as a parser bug rather than a
    bad file.
    """
    offset = 0
    library = GdsLibrary(name="")
    current: GdsStruct | None = None
    # The open element: its record type (None outside BOUNDARY, SREF
    # and TEXT) and the fields its records have set so far.
    kind: int | None = None
    layer = datatype = 0
    points: list[tuple[int, int]] = []
    sname = string = ""

    def short(record: int, payload: bytes, expected: int, name: str) -> bytes:
        if len(payload) < expected:
            raise ValueError(
                f"{name} record at offset {record} truncated: "
                f"{len(payload)} payload bytes, need {expected}"
            )
        return payload

    def ascii(record: int, payload: bytes, name: str) -> str:
        try:
            return payload.rstrip(b"\x00").decode("ascii")
        except UnicodeDecodeError as error:
            raise ValueError(
                f"{name} record at offset {record} is not ASCII "
                f"(byte {payload[error.start]:#04x} at {error.start})"
            ) from None

    end = len(data)
    while offset < end:
        record_offset = offset
        if offset + 4 > end:
            raise ValueError(
                f"truncated GDSII record header at offset {offset}"
            )
        length, rtype, dtype = _HEADER_RECORD.unpack_from(data, offset)
        if length < 4:
            raise ValueError(
                f"invalid record length {length} at offset {offset}"
            )
        if offset + length > end:
            raise ValueError(
                f"record at offset {offset} overruns the stream "
                f"({length} bytes declared, {end - offset} left)"
            )
        payload = data[offset + 4 : offset + length]
        offset += length

        # Element records first: they are nearly all of a layout.
        if rtype == XY and kind is not None:
            if len(payload) % 8:
                raise ValueError(
                    f"XY record at offset {record_offset} has "
                    f"{len(payload)} payload bytes (not a multiple of 8)"
                )
            flat = _xy_struct(len(payload) // 8).unpack(payload)
            points = list(zip(flat[0::2], flat[1::2]))
        elif rtype == LAYER and kind is not None:
            short(record_offset, payload, 2, "LAYER")
            layer = _INT16.unpack_from(payload)[0]
        elif rtype == DATATYPE and kind is not None:
            short(record_offset, payload, 2, "DATATYPE")
            datatype = _INT16.unpack_from(payload)[0]
        elif rtype == ENDEL and kind is not None and current is not None:
            if not points:
                raise ValueError(
                    f"{_ELEMENTS[kind]} element ending at offset "
                    f"{record_offset} has no XY coordinates"
                )
            if kind == BOUNDARY:
                current.boundaries.append(
                    GdsBoundary(layer, datatype, points)
                )
            elif kind == SREF:
                current.srefs.append(GdsSRef(sname, points[0]))
            else:
                current.texts.append(GdsText(layer, string, points[0]))
            kind = None
        elif rtype in _ELEMENTS:
            kind = rtype
            layer = datatype = 0
            points = []
            sname = string = ""
        elif rtype == SNAME and kind is not None:
            sname = ascii(record_offset, payload, "SNAME")
        elif rtype == STRING and kind is not None:
            string = ascii(record_offset, payload, "STRING")
        elif rtype == LIBNAME:
            library.name = ascii(record_offset, payload, "LIBNAME")
        elif rtype == UNITS:
            short(record_offset, payload, 16, "UNITS")
            db_in_user = _parse_real8(payload[0:8])
            db_in_m = _parse_real8(payload[8:16])
            if (
                abs(db_in_user - DB_UNIT_IN_UM) > 1e-9 * DB_UNIT_IN_UM
                or abs(db_in_m - DB_UNIT_IN_M) > 1e-9 * DB_UNIT_IN_M
            ):
                raise ValueError(
                    f"unsupported UNITS at offset {record_offset}: "
                    f"db unit {db_in_user} user / {db_in_m} m "
                    f"(expected {DB_UNIT_IN_UM} / {DB_UNIT_IN_M})"
                )
        elif rtype == BGNSTR:
            current = GdsStruct(name="")
        elif rtype == STRNAME and current is not None:
            current.name = ascii(record_offset, payload, "STRNAME")
        elif rtype == ENDSTR:
            # A bare ENDSTR (no preceding BGNSTR) closes nothing; skip it
            # rather than recording a phantom structure.
            if current is not None:
                library.structs.append(current)
            current = None
        elif rtype == ENDLIB:
            break
    return library
