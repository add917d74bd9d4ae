"""Floorplanning: die sizing, row creation and IO pin assignment.

The die is sized from total standard-cell area at a target utilization,
rows are cut at the node's row height, and top-level ports get fixed pin
positions on the die boundary (inputs west, outputs east) — the anchors
the quadratic placer pulls against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..pdk.node import ProcessNode
from ..synth.mapped import MappedNetlist

#: Core-to-die margin on every side, in rows.
CORE_MARGIN_ROWS = 2.0


@dataclass
class Row:
    """One placement row; cells snap to ``y`` and to site-aligned x."""

    index: int
    y: float
    x0: float
    x1: float
    height: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0


@dataclass
class IoPin:
    """A fixed top-level pin on the die edge."""

    name: str  # "port[bit]"
    port: str
    bit: int
    net: int
    x: float
    y: float
    side: str  # "west" or "east"


@dataclass
class Floorplan:
    die_width: float
    die_height: float
    core_margin: float
    rows: list[Row]
    io_pins: list[IoPin]
    utilization_target: float
    cell_area_um2: float

    @property
    def core_area_um2(self) -> float:
        return (self.die_width - 2 * self.core_margin) * (
            self.die_height - 2 * self.core_margin
        )

    @property
    def die_area_mm2(self) -> float:
        return self.die_width * self.die_height * 1e-6

    def pin_positions(self) -> dict[int, tuple[float, float]]:
        """Net id -> fixed pin position for every IO net."""
        return {pin.net: (pin.x, pin.y) for pin in self.io_pins}

    def stats(self) -> dict[str, float]:
        return {
            "die_width_um": round(self.die_width, 3),
            "die_height_um": round(self.die_height, 3),
            "die_area_mm2": round(self.die_area_mm2, 6),
            "rows": len(self.rows),
            "utilization_target": self.utilization_target,
            "cell_area_um2": round(self.cell_area_um2, 3),
        }


def make_floorplan(
    mapped: MappedNetlist,
    node: ProcessNode,
    utilization: float = 0.7,
    quantize_um2: float | None = None,
) -> Floorplan:
    """Size the die and place IO pins for ``mapped`` on ``node``.

    The core is square up to whole rows: its height snaps up to a row
    multiple and its width keeps the core area.  A margin of
    :data:`CORE_MARGIN_ROWS` rows surrounds it.

    ``quantize_um2`` rounds the core area up to a multiple of that step
    before sizing.  The hierarchical placer uses it so that small netlist
    edits usually land in the same area bucket and the die (and with it
    every IO pin and row coordinate) stays put — die size becomes a step
    function of cell area instead of a continuous one.
    """
    if not 0.05 < utilization <= 1.0:
        raise ValueError(f"utilization {utilization} out of range")
    cell_area = mapped.area_um2()
    core_area = max(cell_area / utilization, node.row_height_um**2)
    if quantize_um2 and quantize_um2 > 0:
        core_area = math.ceil(core_area / quantize_um2) * quantize_um2
    core_height = math.sqrt(core_area)
    # Snap core height to a whole number of rows.
    n_rows = max(1, math.ceil(core_height / node.row_height_um))
    core_height = n_rows * node.row_height_um
    core_width = core_area / core_height

    margin = CORE_MARGIN_ROWS * node.row_height_um
    die_width = core_width + 2 * margin
    die_height = core_height + 2 * margin

    rows = [
        Row(
            index=i,
            y=margin + i * node.row_height_um,
            x0=margin,
            x1=margin + core_width,
            height=node.row_height_um,
        )
        for i in range(n_rows)
    ]

    io_pins: list[IoPin] = []

    def spread(ports: dict[str, list[int]], x: float, side: str) -> None:
        total_bits = sum(len(nets) for nets in ports.values())
        if total_bits == 0:
            return
        step = die_height / (total_bits + 1)
        position = step
        for port in sorted(ports):
            for bit, net in enumerate(ports[port]):
                io_pins.append(
                    IoPin(f"{port}[{bit}]", port, bit, net, x, position, side)
                )
                position += step

    spread(mapped.inputs, 0.0, "west")
    spread(mapped.outputs, die_width, "east")

    return Floorplan(
        die_width=die_width,
        die_height=die_height,
        core_margin=margin,
        rows=rows,
        io_pins=io_pins,
        utilization_target=utilization,
        cell_area_um2=cell_area,
    )
