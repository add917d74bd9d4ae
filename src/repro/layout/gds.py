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

In memory, every BOUNDARY of a structure is one row of an ``(n, 6)``
int64 rectangle table (:attr:`GdsStruct.rects`), from chip assembly
through DRC, the writer, the reader and extraction.  A rectangle element
is 64 bytes on the stream, so the writer packs the whole table as one
structured numpy array and the reader decodes runs of such elements with
``np.frombuffer``.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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

#: Corner indexes ``(x0, y0, x1, y1)`` of the ten XY words of a canonical
#: rectangle ring: (x0, y0) (x1, y0) (x1, y1) (x0, y1) (x0, y0).
_RING = [0, 1, 2, 1, 2, 3, 0, 3, 0, 1]


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
    """One structure: its BOUNDARY elements as a rectangle table, plus
    SREF placements and TEXT labels.

    The table keeps stream order, so writing a parsed structure gives
    back the bytes it was read from.  A BOUNDARY whose ring is not the
    canonical rectangle — five points (x0, y0) (x1, y0) (x1, y1) (x0, y1)
    (x0, y0) with x0 <= x1 and y0 <= y1 — keeps its ring in
    :attr:`rings`, and its row holds the ring's bounding box.
    """

    name: str
    srefs: list[GdsSRef] = field(default_factory=list)
    texts: list[GdsText] = field(default_factory=list)
    #: Row index -> the ring of a BOUNDARY that is not a canonical
    #: rectangle (only foreign streams have such rings).
    rings: dict[int, tuple[tuple[int, int], ...]] = field(
        default_factory=dict, repr=False
    )
    #: The rectangle table, row-major (see :attr:`rects`).
    _table: array = field(default_factory=lambda: array("q"), repr=False)

    @property
    def rects(self) -> np.ndarray:
        """A copy of the ``(n, 6)`` int64 rectangle table in stream
        order: layer, datatype, x0, y0, x1, y1 in database units, with
        ``x0 <= x1`` and ``y0 <= y1``."""
        return np.array(self._table, dtype=np.int64).reshape(-1, 6)

    def add_rect(self, layer: int, datatype: int, x0: int, y0: int,
                 x1: int, y1: int) -> None:
        """Append the rectangle with corners (x0, y0) and (x1, y1), in
        database units; its ring starts at (x0, y0)."""
        if x0 <= x1 and y0 <= y1:
            self._table.extend((layer, datatype, x0, y0, x1, y1))
        else:
            self.add_boundary(layer, datatype, [
                (x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0),
            ])

    def add_rect_um(self, layer: int, datatype: int, x0: float, y0: float,
                    x1: float, y1: float) -> None:
        """Append a rectangle given in micrometres."""
        self.add_rect(layer, datatype, to_db(x0), to_db(y0), to_db(x1),
                      to_db(y1))

    def add_boundary(self, layer: int, datatype: int,
                     points: list[tuple[int, int]]) -> None:
        """Append a BOUNDARY given as its closed ring of points."""
        points = [(x, y) for x, y in points]
        if len(points) == 5:
            (x0, y0), p1, (x1, y1), p3, p4 = points
            if (p1 == (x1, y0) and p3 == (x0, y1) and p4 == (x0, y0)
                    and x0 <= x1 and y0 <= y1):
                self._table.extend((layer, datatype, x0, y0, x1, y1))
                return
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        self.rings[len(self._table) // 6] = tuple(points)
        self._table.extend(
            (layer, datatype, min(xs), min(ys), max(xs), max(ys))
        )

    def move_rect(self, index: int, dx: int, dy: int) -> None:
        """Translate the BOUNDARY in row ``index`` by (dx, dy)."""
        base = self._row(index)
        for column, delta in enumerate((dx, dy, dx, dy), start=2):
            self._table[base + column] += delta
        ring = self.rings.get(index)
        if ring is not None:
            self.rings[index] = tuple((x + dx, y + dy) for x, y in ring)

    def remove_rect(self, index: int) -> None:
        """Delete the BOUNDARY in row ``index``."""
        base = self._row(index)
        del self._table[base: base + 6]
        self.rings = {
            row - (row > index): ring
            for row, ring in self.rings.items() if row != index
        }

    def _row(self, index: int) -> int:
        """Offset of row ``index`` in the flat table."""
        if not 0 <= index < len(self._table) // 6:
            raise IndexError(f"structure {self.name!r} has no row {index}")
        return 6 * index

    def add_rects(self, rows) -> None:
        """Append an ``(n, 6)`` table of integer layer, datatype, x0, y0,
        x1, y1 rows in one call, as ``n`` :meth:`add_rect` calls would.

        Raises :class:`ValueError` naming the first row that is not six
        integers or has ``x0 > x1`` or ``y0 > y1``.
        """
        try:
            table = np.asarray(rows)
        except ValueError:  # ragged rows
            table = None
        if table is not None and table.size == 0:
            return
        if table is None or table.ndim != 2 or table.shape[1] != 6:
            index = next(
                (i for i, row in enumerate(rows) if np.shape(row) != (6,)), 0
            )
            raise ValueError(
                f"structure {self.name!r}: row {index} is not "
                f"(layer, datatype, x0, y0, x1, y1)"
            )
        if table.dtype.kind not in "iu":
            raise ValueError(
                f"structure {self.name!r}: row 0 is not integers "
                f"({table.dtype})"
            )
        bad = (table[:, 2] > table[:, 4]) | (table[:, 3] > table[:, 5])
        if bad.any():
            index = int(bad.argmax())
            raise ValueError(
                f"structure {self.name!r}: row {index} "
                f"{table[index].tolist()} has x0 > x1 or y0 > y1"
            )
        self._table.frombytes(
            memoryview(np.ascontiguousarray(table, dtype=np.int64)).cast("B")
        )


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


def to_db_array(um) -> np.ndarray:
    """:func:`to_db` of every element, as int64: the same division and
    the same round-half-to-even."""
    return np.rint(np.asarray(um, dtype=np.float64) / DB_UNIT_IN_UM).astype(
        np.int64
    )


def from_db(db: int) -> float:
    """Database units to micrometres."""
    return db * DB_UNIT_IN_UM


# -- low-level encoding --------------------------------------------------------


def _head(rtype: int, dtype: int, payload_bytes: int) -> int:
    """A record's 4-byte header as one big-endian word."""
    return (4 + payload_bytes) << 16 | rtype << 8 | dtype


def _record(rtype: int, dtype: int, payload: bytes = b"") -> bytes:
    length = 4 + len(payload)
    return struct.pack(">HBB", length, rtype, dtype) + payload


#: One rectangle element: BOUNDARY, LAYER, DATATYPE, a five-point XY
#: ring and ENDEL, 64 bytes.
_RECT_ELEMENT = np.dtype([
    ("boundary", ">u4"),
    ("layer_head", ">u4"),
    ("layer", ">i2"),
    ("datatype_head", ">u4"),
    ("datatype", ">i2"),
    ("xy_head", ">u4"),
    ("xy", ">i4", (10,)),
    ("endel", ">u4"),
])
_RECT_SIZE = _RECT_ELEMENT.itemsize
#: The fixed record headers of a rectangle element.
_RECT_HEADS = {
    "boundary": _head(BOUNDARY, DT_NONE, 0),
    "layer_head": _head(LAYER, DT_INT16, 2),
    "datatype_head": _head(DATATYPE, DT_INT16, 2),
    "xy_head": _head(XY, DT_INT32, 40),
    "endel": _head(ENDEL, DT_NONE, 0),
}
#: XY words holding a canonical ring's corners x0, y0, x1, y1.
_CORNER_WORDS = [0, 1, 4, 5]
#: Longest ASCII payload a record carries: the 16-bit record length
#: counts the 4-byte header, and names are padded to an even length.
_MAX_ASCII = 0xFFFF - 4 - 1
#: Most points one XY record carries.
_MAX_POINTS = (0xFFFF - 4) // 8


def _ascii(where: str, what: str, text: str) -> bytes:
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError:
        raise ValueError(f"{where}: {what} {text!r} is not ASCII") from None
    if len(data) > _MAX_ASCII:
        raise ValueError(
            f"{where}: {what} of {len(data)} bytes exceeds the "
            f"{_MAX_ASCII}-byte record limit"
        )
    if len(data) % 2:
        data += b"\x00"
    return data


def _fits(where: str, what: str, values: np.ndarray, bits: int) -> None:
    """Reject a table column a signed ``bits``-bit field cannot hold."""
    limit = 1 << (bits - 1)
    bad = np.argwhere((values < -limit) | (values >= limit))
    if len(bad):
        row, column = bad[0].tolist()
        raise ValueError(
            f"{where}: BOUNDARY {row} {what} {int(values[row, column])} "
            f"is outside int{bits}"
        )


def _int(where: str, what: str, value: int, bits: int) -> int:
    """``value``, if a signed ``bits``-bit field can hold it."""
    limit = 1 << (bits - 1)
    if not -limit <= value < limit:
        raise ValueError(f"{where}: {what} {value} is outside int{bits}")
    return value


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


def _boundaries(where: str, struct_def: GdsStruct) -> bytes:
    """Every BOUNDARY element of a structure, in table order."""
    rows = struct_def.rects
    _fits(where, "layer", rows[:, 0:1], 16)
    _fits(where, "datatype", rows[:, 1:2], 16)
    # A ring's row is its bounding box, so this bounds the ring too.
    _fits(where, "coordinate", rows[:, 2:], 32)
    elements = np.empty(len(rows), dtype=_RECT_ELEMENT)
    for name, word in _RECT_HEADS.items():
        elements[name] = word
    elements["layer"] = rows[:, 0]
    elements["datatype"] = rows[:, 1]
    elements["xy"] = rows[:, 2:][:, _RING]
    packed = elements.tobytes()
    if not struct_def.rings:
        return packed
    pieces = []
    start = 0
    for index in sorted(struct_def.rings):
        ring = struct_def.rings[index]
        if len(ring) > _MAX_POINTS:
            raise ValueError(
                f"{where}: BOUNDARY {index} has {len(ring)} points, more "
                f"than one XY record holds ({_MAX_POINTS})"
            )
        layer, datatype = rows[index, :2].tolist()
        pieces.append(packed[start * _RECT_SIZE: index * _RECT_SIZE])
        pieces.append(
            _record(BOUNDARY, DT_NONE)
            + _record(LAYER, DT_INT16, struct.pack(">h", layer))
            + _record(DATATYPE, DT_INT16, struct.pack(">h", datatype))
            + _record(XY, DT_INT32, struct.pack(
                f">{2 * len(ring)}i", *(v for point in ring for v in point)
            ))
            + _record(ENDEL, DT_NONE)
        )
        start = index + 1
    pieces.append(packed[start * _RECT_SIZE:])
    return b"".join(pieces)


def _point(where: str, what: str, position: tuple[int, int]) -> bytes:
    x, y = position
    return struct.pack(
        ">ii", _int(where, f"{what} x", x, 32), _int(where, f"{what} y", y, 32)
    )


def write_gds(library: GdsLibrary) -> bytes:
    """Serialize a library to GDSII stream bytes.

    Raises :class:`ValueError` naming the structure and the value for
    anything the format cannot encode: a layer or datatype outside
    int16, a coordinate outside int32, or a name or label that is not
    ASCII or too long for one record.
    """
    out = bytearray()
    out += _record(HEADER, DT_INT16, struct.pack(">h", 600))
    out += _record(BGNLIB, DT_INT16, _TIMESTAMP)
    out += _record(
        LIBNAME, DT_ASCII, _ascii(f"library {library.name!r}", "name",
                                  library.name)
    )
    out += _record(
        UNITS, DT_REAL8, _real8(DB_UNIT_IN_UM) + _real8(DB_UNIT_IN_M)
    )
    for struct_def in library.structs:
        where = f"structure {struct_def.name!r}"
        out += _record(BGNSTR, DT_INT16, _TIMESTAMP)
        out += _record(STRNAME, DT_ASCII,
                       _ascii(where, "name", struct_def.name))
        out += _boundaries(where, struct_def)
        for sref in struct_def.srefs:
            out += _record(SREF, DT_NONE)
            out += _record(SNAME, DT_ASCII,
                           _ascii(where, "SREF name", sref.struct_name))
            out += _record(XY, DT_INT32, _point(
                where, f"SREF {sref.struct_name!r}", sref.position
            ))
            out += _record(ENDEL, DT_NONE)
        for text in struct_def.texts:
            layer = _int(where, f"TEXT {text.text!r} layer", text.layer, 16)
            out += _record(TEXT, DT_NONE)
            out += _record(LAYER, DT_INT16, struct.pack(">h", layer))
            out += _record(TEXTTYPE, DT_INT16, struct.pack(">h", 0))
            out += _record(XY, DT_INT32, _point(
                where, f"TEXT {text.text!r}", text.position
            ))
            out += _record(STRING, DT_ASCII,
                           _ascii(where, "TEXT string", text.text))
            out += _record(ENDEL, DT_NONE)
        out += _record(ENDSTR, DT_NONE)
    out += _record(ENDLIB, DT_NONE)
    return bytes(out)


_ELEMENTS = {BOUNDARY: "BOUNDARY", SREF: "SREF", TEXT: "TEXT"}
_HEADER_RECORD = struct.Struct(">HBB")
_INT16 = struct.Struct(">h")
#: Rectangle elements the reader's first run probe decodes.
_FIRST_PROBE = 16


@lru_cache(maxsize=None)
def _xy_struct(count: int) -> struct.Struct:
    """Decoder for an XY record of ``count`` points (at most 8191: the
    record length is 16 bits)."""
    return struct.Struct(f">{2 * count}i")


def _read_rect_run(
    struct_def: GdsStruct, data: bytes, offset: int, end: int
) -> int:
    """Append the run of canonical rectangle elements that starts at
    ``offset`` to the table of ``struct_def``; return its length (0 when
    the element there is anything else).

    The probe decodes blocks that double in size and stops at the first
    block holding another element, so it decodes at most twice the run
    plus one block: a stream of short runs stays linear.
    """
    total = 0
    size = _FIRST_PROBE
    while True:
        count = min(size, (end - offset) // _RECT_SIZE - total)
        if count <= 0:
            return total
        elements = np.frombuffer(
            data, _RECT_ELEMENT, count, offset + total * _RECT_SIZE
        )
        xy = elements["xy"]
        corners = xy[:, _CORNER_WORDS]
        canonical = (
            (xy == corners[:, _RING]).all(axis=1)
            & (corners[:, 0] <= corners[:, 2])
            & (corners[:, 1] <= corners[:, 3])
        )
        for name, word in _RECT_HEADS.items():
            canonical &= elements[name] == word
        run = count if canonical.all() else int(canonical.argmin())
        struct_def.add_rects(np.column_stack(
            (elements["layer"], elements["datatype"], corners)
        )[:run])
        total += run
        if run < count:
            return total
        size *= 2


def read_gds(data: bytes) -> GdsLibrary:
    """Parse GDSII stream bytes (records written by :func:`write_gds`).

    Runs of canonical rectangle elements decode straight into the
    rectangle table; every other record takes the checked per-record
    path, which gives the same table for those runs.

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
        if rtype == BOUNDARY and current is not None:
            run = _read_rect_run(current, data, offset, end)
            if run:
                offset += run * _RECT_SIZE
                kind = None
                continue
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
                current.add_boundary(layer, datatype, points)
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
