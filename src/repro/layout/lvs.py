"""LVS: layout-vs-schematic checking, census and connectivity grades.

Two grades share one report type:

* **Census** (:func:`census_check` / the :func:`check_lvs` wrapper) is
  the fast pre-check: *does the GDS contain the netlist's cells, pin
  labels and outline?*  It counts; it does not trace wires.  It would
  have caught the classic student accident — streaming out a stale
  layout after an ECO.
* **Connectivity** (LVS v2, :func:`repro.extract.run_lvs`) re-extracts
  the netlist from mask geometry alone and compares it net by net,
  then hands the extracted netlist to the formal LEC miter.  It embeds
  the census pass as its first step, with struct names routed through
  the geometric identification map so renamed masters do not
  false-fail.

:class:`LvsReport` round-trips through JSON so flow artifacts and CI
gates can persist it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..pnr.physical import PhysicalDesign
from ..synth.mapped import MappedNetlist
from .gds import GdsLibrary


@dataclass
class LvsReport:
    """Unified result for both LVS grades.

    ``mode`` is ``"census"`` or ``"connectivity"``; the connectivity
    fields (``nets_checked``, ``cells_matched``, ``lec_equivalent``)
    stay at their defaults for census-only runs.  ``lec_equivalent`` is
    ``None`` when the LEC step did not run.
    """

    mismatches: list[str] = field(default_factory=list)
    cells_checked: int = 0
    pins_checked: int = 0
    nets_checked: int = 0
    cells_matched: int = 0
    mode: str = "census"
    source: str = ""
    lec_equivalent: bool | None = None

    @property
    def clean(self) -> bool:
        return not self.mismatches and self.lec_equivalent is not False

    def summary(self) -> str:
        status = "CLEAN" if self.clean else f"{len(self.mismatches)} mismatches"
        extra = ""
        if self.mode == "connectivity":
            extra = f", {self.nets_checked} nets"
            if self.lec_equivalent is not None:
                extra += ", LEC " + (
                    "equivalent" if self.lec_equivalent else "NOT equivalent"
                )
        return (
            f"LVS {status} ({self.cells_checked} cells, "
            f"{self.pins_checked} pins{extra})"
        )

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "source": self.source,
            "clean": self.clean,
            "mismatches": list(self.mismatches),
            "cells_checked": self.cells_checked,
            "pins_checked": self.pins_checked,
            "nets_checked": self.nets_checked,
            "cells_matched": self.cells_matched,
            "lec_equivalent": self.lec_equivalent,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LvsReport":
        return cls(
            mismatches=list(payload.get("mismatches", [])),
            cells_checked=payload.get("cells_checked", 0),
            pins_checked=payload.get("pins_checked", 0),
            nets_checked=payload.get("nets_checked", 0),
            cells_matched=payload.get("cells_matched", 0),
            mode=payload.get("mode", "census"),
            source=payload.get("source", ""),
            lec_equivalent=payload.get("lec_equivalent"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LvsReport":
        return cls.from_dict(json.loads(text))


def census_check(
    library: GdsLibrary,
    mapped: MappedNetlist,
    top_name: str,
    expected_pins: Iterable[str],
    outline_layer: int,
    rename: dict[str, str] | None = None,
) -> LvsReport:
    """The census grade against any mapped netlist.

    ``rename`` maps layout struct names to library cell names (the
    geometric identification result), so a stream with scrambled struct
    names is censused by what its masters *are*, not what they are
    called.
    """
    rename = rename or {}
    report = LvsReport(source=mapped.name)
    try:
        top = library.struct(top_name)
    except KeyError:
        report.mismatches.append(f"top structure {top_name!r} missing")
        return report

    # Cell placements: netlist cell-kind census vs SREF census.
    netlist_census = Counter(inst.cell.name for inst in mapped.cells)
    layout_census = Counter(
        rename.get(ref.struct_name, ref.struct_name) for ref in top.srefs
    )
    report.cells_checked = sum(netlist_census.values())
    for master, expected in sorted(netlist_census.items()):
        placed = layout_census.get(master, 0)
        if placed != expected:
            report.mismatches.append(
                f"cell {master}: netlist has {expected}, layout has {placed}"
            )
    for master in sorted(set(layout_census) - set(netlist_census)):
        report.mismatches.append(
            f"layout places unknown cell {master} "
            f"({layout_census[master]}x)"
        )

    # Master structures must exist for every placement.
    known_structs = {struct.name for struct in library.structs}
    for master in sorted(
        {ref.struct_name for ref in top.srefs} - known_structs
    ):
        report.mismatches.append(
            f"SREF references missing structure {master!r}"
        )

    # Pin labels vs the expected port bits.
    expected_pins = set(expected_pins)
    label_texts = {text.text for text in top.texts}
    report.pins_checked = len(expected_pins)
    for pin in sorted(expected_pins - label_texts):
        report.mismatches.append(f"port {pin} has no pin label")
    cell_names = {inst.cell.name for inst in mapped.cells}
    for label in sorted(label_texts - expected_pins - cell_names):
        report.mismatches.append(f"orphan label {label!r} in layout")

    # Die outline present on the outline layer.
    if not (top.rects[:, 0] == outline_layer).any():
        report.mismatches.append("die outline missing")
    return report


def check_lvs(library: GdsLibrary, design: PhysicalDesign) -> LvsReport:
    """Census check against a physical design (the historical entry
    point, kept for existing callers and as the signoff fallback)."""
    return census_check(
        library,
        design.mapped,
        design.mapped.name,
        {pin.name for pin in design.floorplan.io_pins},
        design.pdk.layers.outline.gds_layer,
    )
