"""Cell-master identification: name matching with fingerprint fallback.

ChipSuite-style: a master structure is identified by *what it looks
like*, not what it is called.  Every library cell's reference master is
reconstructible from the PDK alone
(:func:`repro.layout.chip.cell_master_struct`), so its canonical
geometry — boundary rectangles per (layer, datatype) plus pin labels,
all relative to the structure's min corner — forms a fingerprint.  A
struct whose name matches a library cell must also match that cell's
fingerprint (a renamed or tampered master is an anomaly either way);
an unknown name is looked up by fingerprint, which is what keeps
extraction working on streams whose struct names were stripped or
scrambled.
"""

from __future__ import annotations

import weakref

from ..layout.gds import GdsLibrary, GdsStruct
from ..pdk.cells import StandardCell
from ..pdk.pdks import Pdk

Fingerprint = tuple


def master_fingerprint(
    struct: GdsStruct, exclude_text_layers: frozenset[int] = frozenset()
) -> Fingerprint:
    """Canonical geometry signature of a structure.

    Boundary bboxes and text labels relative to the min corner of all
    boundaries; texts on ``exclude_text_layers`` (the annotation
    label layer, which carries the — renamable — cell name) are ignored.
    """
    rows = struct.rects
    if len(rows):
        min_x = int(rows[:, 2].min())
        min_y = int(rows[:, 3].min())
    else:
        min_x = min_y = 0
    rows -= (0, 0, min_x, min_y, min_x, min_y)
    rects = sorted(map(tuple, rows.tolist()))
    texts = sorted(
        (t.layer, t.text, t.position[0] - min_x, t.position[1] - min_y)
        for t in struct.texts
        if t.layer not in exclude_text_layers
    )
    # Reference masters are leaf cells; any nested placement makes a
    # struct un-matchable rather than silently hiding geometry.
    srefs = sorted(
        (s.struct_name, s.position[0] - min_x, s.position[1] - min_y)
        for s in struct.srefs
    )
    return (tuple(rects), tuple(texts), tuple(srefs))


#: ``id(pdk)`` -> that Pdk's reference table; an entry leaves with its
#: Pdk, before the id can be reused.
_REFERENCES: dict[int, dict[Fingerprint, StandardCell]] = {}


def reference_fingerprints(pdk: Pdk) -> dict[Fingerprint, StandardCell]:
    """Fingerprint → library cell for every cell in the PDK.

    Built once per :class:`~repro.pdk.pdks.Pdk` instance and shared by
    every extraction on it, so callers must not mutate the table.
    Raises :class:`RuntimeError` on a collision: the identity stripes in
    :func:`~repro.layout.chip.cell_master_struct` are meant to make all
    masters geometrically distinct, and a silent collision would make
    identification ambiguous.
    """
    table = _REFERENCES.get(id(pdk))
    if table is None:
        table = _REFERENCES[id(pdk)] = _fingerprint_library(pdk)
        weakref.finalize(pdk, _REFERENCES.pop, id(pdk), None)
    return table


def _fingerprint_library(pdk: Pdk) -> dict[Fingerprint, StandardCell]:
    from ..layout.chip import cell_master_struct

    label = pdk.layers.by_name("label").gds_layer
    table: dict[Fingerprint, StandardCell] = {}
    for name in sorted(pdk.library.cells):
        cell = pdk.library.cells[name]
        fp = master_fingerprint(
            cell_master_struct(cell, pdk), frozenset((label,))
        )
        if fp in table:
            raise RuntimeError(
                f"fingerprint collision: {table[fp].name} vs {cell.name}"
            )
        table[fp] = cell
    return table


def infer_top(library: GdsLibrary) -> GdsStruct:
    """The chip-top structure: referenced by no SREF, placing others."""
    referenced = {
        sref.struct_name for s in library.structs for sref in s.srefs
    }
    candidates = [s for s in library.structs if s.name not in referenced]
    if len(candidates) > 1:
        candidates = [s for s in candidates if s.srefs]
    if len(candidates) == 1:
        return candidates[0]
    raise ValueError(
        f"cannot infer top structure: {len(candidates)} candidates "
        f"among {len(library.structs)} structs"
    )


def identify_masters(
    library: GdsLibrary, top: GdsStruct, pdk: Pdk
) -> tuple[dict[str, StandardCell], list[str]]:
    """Map every non-top structure to a library cell.

    Returns ``(mapping, mismatches)``: structures that match a library
    cell (by consistent name or by fingerprint) land in ``mapping``;
    tampered or unidentifiable masters produce mismatch messages.
    """
    label = pdk.layers.by_name("label").gds_layer
    exclude = frozenset((label,))
    references = reference_fingerprints(pdk)
    by_cell_name = {cell.name: fp for fp, cell in references.items()}

    mapping: dict[str, StandardCell] = {}
    mismatches: list[str] = []
    for struct in library.structs:
        if struct is top:
            continue
        fp = master_fingerprint(struct, exclude)
        if struct.name in pdk.library.cells:
            if fp == by_cell_name[struct.name]:
                mapping[struct.name] = pdk.library.cells[struct.name]
            else:
                mismatches.append(
                    f"master {struct.name!r} does not match the library "
                    f"cell's geometry (tampered master)"
                )
        else:
            cell = references.get(fp)
            if cell is not None:
                mapping[struct.name] = cell
            else:
                mismatches.append(
                    f"unidentifiable master structure {struct.name!r}"
                )
    return mapping, mismatches
