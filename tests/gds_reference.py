"""Record-by-record GDSII references for the rectangle-table oracle tests.

The layout package keeps every BOUNDARY as a row of one int64 table per
structure and packs, parses and flattens whole tables with numpy.  This
module keeps the per-element code that table replaced, written against
plain point rings, so the tests can require the same bytes, the same
parse and the same flattened coordinates from both:

* :func:`reference_write` packs one record at a time;
* :func:`reference_read` parses one record at a time, with the same
  located errors;
* :func:`reference_flatten` converts each boundary's points on its own;
* :func:`reference_mutate` plants the seeded trojans on point rings.

:func:`to_reference` turns a table-based library into this form.
"""

from __future__ import annotations

import random
import struct
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.extract import TROJAN_KINDS, infer_top
from repro.layout.gds import (
    BGNLIB, BGNSTR, BOUNDARY, DATATYPE, DB_UNIT_IN_M, DB_UNIT_IN_UM,
    DT_ASCII, DT_INT16, DT_INT32, DT_NONE, DT_REAL8, ENDEL, ENDLIB, ENDSTR,
    HEADER, LAYER, LIBNAME, SNAME, SREF, STRING, STRNAME, TEXT, TEXTTYPE,
    UNITS, XY, GdsSRef, GdsText, _parse_real8, _real8, from_db,
)
from repro.pdk.layers import NET_DATATYPE

#: ``(layer, datatype, ring)``, the ring a tuple of ``(x, y)`` points.
Boundary = tuple


@dataclass
class RefStruct:
    name: str
    boundaries: list[Boundary] = field(default_factory=list)
    srefs: list[GdsSRef] = field(default_factory=list)
    texts: list[GdsText] = field(default_factory=list)


@dataclass
class RefLibrary:
    name: str
    structs: list[RefStruct] = field(default_factory=list)


def rect_ring(x0: int, y0: int, x1: int, y1: int) -> tuple:
    """The ring a rectangle with corners (x0, y0), (x1, y1) is drawn as."""
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))


def to_reference(library) -> RefLibrary:
    """A table-based library as point rings, in stream order."""
    out = RefLibrary(library.name)
    for s in library.structs:
        boundaries = [
            (layer, datatype,
             s.rings[index] if index in s.rings
             else rect_ring(x0, y0, x1, y1))
            for index, (layer, datatype, x0, y0, x1, y1)
            in enumerate(s.rects.tolist())
        ]
        out.structs.append(RefStruct(
            s.name, boundaries,
            [GdsSRef(r.struct_name, tuple(r.position)) for r in s.srefs],
            [GdsText(t.layer, t.text, tuple(t.position)) for t in s.texts],
        ))
    return out


# -- writer -------------------------------------------------------------------


def _record(rtype: int, dtype: int, payload: bytes = b"") -> bytes:
    return struct.pack(">HBB", 4 + len(payload), rtype, dtype) + payload


def _ascii(text: str) -> bytes:
    data = text.encode("ascii")
    if len(data) % 2:
        data += b"\x00"
    return data


_TIMESTAMP = struct.pack(">12H", 2025, 1, 1, 0, 0, 0, 2025, 1, 1, 0, 0, 0)


def reference_write(library: RefLibrary) -> bytes:
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
        for layer, datatype, points in struct_def.boundaries:
            out += _record(BOUNDARY, DT_NONE)
            out += _record(LAYER, DT_INT16, struct.pack(">h", layer))
            out += _record(DATATYPE, DT_INT16, struct.pack(">h", datatype))
            xy = b"".join(struct.pack(">ii", x, y) for x, y in points)
            out += _record(XY, DT_INT32, xy)
            out += _record(ENDEL, DT_NONE)
        for sref in struct_def.srefs:
            out += _record(SREF, DT_NONE)
            out += _record(SNAME, DT_ASCII, _ascii(sref.struct_name))
            out += _record(XY, DT_INT32, struct.pack(">ii", *sref.position))
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


# -- reader -------------------------------------------------------------------


_ELEMENTS = {BOUNDARY: "BOUNDARY", SREF: "SREF", TEXT: "TEXT"}


def reference_read(data: bytes) -> RefLibrary:
    offset = 0
    library = RefLibrary(name="")
    current: RefStruct | None = None
    kind: int | None = None
    layer = datatype = 0
    points: list[tuple[int, int]] = []
    sname = string = ""

    def short(record: int, payload: bytes, expected: int, name: str) -> None:
        if len(payload) < expected:
            raise ValueError(
                f"{name} record at offset {record} truncated: "
                f"{len(payload)} payload bytes, need {expected}"
            )

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
        length, rtype, _ = struct.unpack_from(">HBB", data, offset)
        if length < 4:
            raise ValueError(
                f"invalid record length {length} at offset {offset}"
            )
        if offset + length > end:
            raise ValueError(
                f"record at offset {offset} overruns the stream "
                f"({length} bytes declared, {end - offset} left)"
            )
        payload = data[offset + 4: offset + length]
        offset += length
        if rtype == XY and kind is not None:
            if len(payload) % 8:
                raise ValueError(
                    f"XY record at offset {record_offset} has "
                    f"{len(payload)} payload bytes (not a multiple of 8)"
                )
            flat = struct.unpack(f">{len(payload) // 4}i", payload)
            points = list(zip(flat[0::2], flat[1::2]))
        elif rtype == LAYER and kind is not None:
            short(record_offset, payload, 2, "LAYER")
            layer = struct.unpack_from(">h", payload)[0]
        elif rtype == DATATYPE and kind is not None:
            short(record_offset, payload, 2, "DATATYPE")
            datatype = struct.unpack_from(">h", payload)[0]
        elif rtype == ENDEL and kind is not None and current is not None:
            if not points:
                raise ValueError(
                    f"{_ELEMENTS[kind]} element ending at offset "
                    f"{record_offset} has no XY coordinates"
                )
            if kind == BOUNDARY:
                current.boundaries.append((layer, datatype, tuple(points)))
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
            current = RefStruct(name="")
        elif rtype == STRNAME and current is not None:
            current.name = ascii(record_offset, payload, "STRNAME")
        elif rtype == ENDSTR:
            if current is not None:
                library.structs.append(current)
            current = None
        elif rtype == ENDLIB:
            break
    return library


# -- flatten ------------------------------------------------------------------


def _placements(library: RefLibrary, top_name: str):
    by_name = {s.name: s for s in library.structs}
    stack = [(top_name, 0.0, 0.0)]
    while stack:
        name, dx, dy = stack.pop()
        struct_def = by_name[name]
        yield struct_def, dx, dy
        stack.extend(
            (sref.struct_name, dx + from_db(sref.position[0]),
             dy + from_db(sref.position[1]))
            for sref in reversed(struct_def.srefs)
        )


def reference_flatten(
    library: RefLibrary, top_name: str
) -> dict[tuple[int, int], np.ndarray]:
    """Per-(layer, datatype) ``(n, 4)`` um arrays, one boundary at a
    time."""
    local: dict[str, dict[tuple[int, int], np.ndarray]] = {}
    parts: dict[tuple[int, int], list[np.ndarray]] = defaultdict(list)
    for struct_def, dx, dy in _placements(library, top_name):
        arrays = local.get(struct_def.name)
        if arrays is None:
            per_layer: dict[tuple[int, int], list] = defaultdict(list)
            for layer, datatype, points in struct_def.boundaries:
                xs = [from_db(p[0]) for p in points]
                ys = [from_db(p[1]) for p in points]
                per_layer[(layer, datatype)].append(
                    (min(xs), min(ys), max(xs), max(ys))
                )
            arrays = local[struct_def.name] = {
                key: np.array(rows, dtype=np.float64)
                for key, rows in per_layer.items()
            }
        for key, rows in arrays.items():
            parts[key].append(rows + np.array((dx, dy, dx, dy)))
    return {key: np.concatenate(p) for key, p in parts.items()}


# -- trojans ------------------------------------------------------------------

_MET1 = 10
_VIA1 = 30


def _net_rects(top: RefStruct, layer: int) -> list[int]:
    return [
        index for index, (lay, datatype, _) in enumerate(top.boundaries)
        if lay == layer and datatype == NET_DATATYPE
    ]


def reference_mutate(data: bytes, seed: int, kind: str) -> tuple[bytes, str]:
    """The seeded trojan of :func:`repro.extract.mutate_gds`, planted on
    point rings."""
    assert kind in TROJAN_KINDS
    rng = random.Random((seed, kind).__repr__())
    library = reference_read(data)
    top = infer_top(library)
    if kind == "rogue_gate":
        victim = rng.choice(top.srefs)
        x, y = victim.position
        top.srefs.append(GdsSRef(victim.struct_name, (x + 2, y + 2)))
        description = (
            f"rogue {victim.struct_name} placed at ({x + 2}, {y + 2}) nm, "
            f"pads shorting the instance at ({x}, {y})"
        )
    elif kind == "reroute":
        index = rng.choice(_net_rects(top, _MET1))
        layer, datatype, points = top.boundaries[index]
        points = tuple((x, y + 8) for x, y in points)
        top.boundaries[index] = (layer, datatype, points)
        x0 = min(p[0] for p in points)
        y0 = min(p[1] for p in points)
        description = f"rerouted met1 wire near ({x0}, {y0}) nm by +8 nm"
    elif kind == "delete_via":
        index = rng.choice(_net_rects(top, _VIA1))
        _, _, points = top.boundaries.pop(index)
        x0 = min(p[0] for p in points)
        y0 = min(p[1] for p in points)
        description = f"deleted via1 cut at ({x0}, {y0}) nm"
    else:
        by_master: dict[str, list[int]] = {}
        for index, sref in enumerate(top.srefs):
            by_master.setdefault(sref.struct_name, []).append(index)
        name_a, name_b = rng.sample(sorted(by_master), 2)
        a = top.srefs[rng.choice(by_master[name_a])]
        b = top.srefs[rng.choice(by_master[name_b])]
        pos_a, pos_b = a.position, b.position
        a.position, b.position = pos_b, pos_a
        description = (
            f"swapped {name_a} at {pos_a} with {name_b} at {pos_b} "
            f"(cell census unchanged)"
        )
    return reference_write(library), f"{kind}: {description}"
