"""Chip layout assembly: physical design → GDSII library.

Builds the final mask database: one abstract structure per standard-cell
variant (outline on ``active``, gate stripes on ``poly``, per-pin li
geometry, pin labels), SREF placements for every cell, merged routing
wires on ``met1``/``met2`` with vias, pin labels, and the die outline.
Nets sharing a routing grid cell are drawn on distinct tracks at
DRC-legal spacing (the router's capacity is pre-capped by
:func:`repro.pnr.route.drc_clean_capacity`).

Two mask purposes coexist per layer (see
:data:`repro.pdk.layers.NET_DATATYPE`):

* **drawing** (datatype 0) — the DRC-checked wire picture above;
* **net** (datatype 1) — an electrically exact per-net fabric drawn by
  :func:`repro.layout.fabric.draw_net_fabric`, which netlist extraction
  (:mod:`repro.extract`) reads back without any knowledge of how the
  layout was produced.

Cell masters are self-describing: every pin has a li pad on the net
purpose plus a ``met1``-layer text label, and each cell variant carries
an identifying poly stripe so geometric fingerprinting can tell apart
variants with identical footprints even when struct names are stripped.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ..pdk.cells import StandardCell
from ..pdk.layers import NET_DATATYPE
from ..pdk.node import ProcessNode
from ..pdk.pdks import Pdk
from ..pnr.physical import PhysicalDesign
from ..pnr.placement import cell_width
from .gds import GdsLibrary, GdsSRef, GdsStruct, GdsText, to_db, to_db_array


def master_footprint(cell: StandardCell, node: ProcessNode) -> tuple[float, float]:
    """(width, height) in um of a cell master: one row high, and as wide
    as :func:`repro.pnr.placement.cell_width`, the width the legalizer
    gives every placed instance, so masters line up exactly with placed
    cells."""
    return cell_width(cell, node.row_height_um), node.row_height_um


def master_pin_offsets(
    cell: StandardCell, node: ProcessNode
) -> dict[str, tuple[int, int]]:
    """Pin-pad centre offsets within the master, in database units (nm).

    Pins (inputs then output) are spread evenly across the cell width at
    mid row height.
    """
    width, height = master_footprint(cell, node)
    pins = list(cell.inputs) + ([cell.output] if cell.output else [])
    width_nm = to_db(width)
    y_nm = to_db(height) // 2
    count = len(pins)
    return {
        pin: (round(width_nm * (i + 1) / (count + 1)), y_nm)
        for i, pin in enumerate(pins)
    }


#: Half-size (nm) of the square li pin pads inside cell masters.
PIN_PAD_HALF_NM = 7


def cell_master_struct(cell: StandardCell, pdk: Pdk) -> GdsStruct:
    """Self-describing abstract layout for one standard-cell variant.

    Reconstructible from the PDK alone, which is what lets extraction
    fingerprint-match master structures that were renamed in the stream.
    """
    struct = GdsStruct(name=cell.name)
    width, height = master_footprint(cell, pdk.node)
    active = pdk.layers.by_name("active")
    poly = pdk.layers.by_name("poly")
    li = pdk.layers.by_name("li")
    met1 = pdk.layers.by_name("met1")
    f_um = pdk.node.feature_nm / 1000.0
    struct.add_rect_um(active.gds_layer, active.gds_datatype,
                       0.0, 0.0, width, height)
    # A representative poly gate stripe, inset one feature from each edge.
    if width > 4 * f_um:
        x = width / 2.0
        struct.add_rect_um(poly.gds_layer, poly.gds_datatype,
                           x - f_um / 2.0, f_um, x + f_um / 2.0,
                           height - f_um)
    # Identity stripe: a second poly stripe at a per-variant x position,
    # so cell variants sharing a footprint (NAND2/NOR2/AND2...) remain
    # geometrically distinguishable after struct names are stripped.
    names = sorted(pdk.library.cells)
    idx = names.index(cell.name)
    x_id = width * (0.1 + 0.8 * (idx + 1) / (len(names) + 1))
    struct.add_rect_um(poly.gds_layer, poly.gds_datatype,
                       x_id - f_um / 4.0, f_um, x_id + f_um / 4.0,
                       height - f_um)
    # Pin geometry: one li pad (net purpose) + met1-layer name label per
    # pin.  The net fabric lands li stubs on these pads at the top level.
    half = PIN_PAD_HALF_NM
    for pin, (px, py) in master_pin_offsets(cell, pdk.node).items():
        struct.add_rect(li.gds_layer, NET_DATATYPE,
                        px - half, py - half, px + half, py + half)
        struct.texts.append(GdsText(met1.gds_layer, pin, (px, py)))
    label = pdk.layers.by_name("label")
    struct.texts.append(
        GdsText(label.gds_layer, cell.name,
                (to_db(width / 2), to_db(height / 2)))
    )
    return struct


def wire_rows(design: PhysicalDesign) -> np.ndarray:
    """The drawing-purpose routing picture as rectangle rows: one wire
    per occupied grid-cell step and one via per layer change.

    Each net gets a track slot inside every grid cell it draws in: its
    rank, in ``design.routing.nets`` order, among the nets drawing
    there, modulo the track count.  Parallel nets so sit
    ``pitch / tracks`` apart, which the capacity cap
    (:func:`repro.pnr.route.drc_clean_capacity`) guarantees to satisfy
    width and spacing rules.  Rows come per net in that order, per
    route cell in ``cells`` order: a met1 wire to the right neighbour,
    then a via; or a met2 wire to the upper neighbour.
    """
    from ..pnr.route import drc_clean_capacity

    pdk = design.pdk
    met1 = pdk.layers.by_name("met1")
    met2 = pdk.layers.by_name("met2")
    via1 = pdk.layers.by_name("via1")
    pitch = design.routing.grid_pitch_um
    tracks = drc_clean_capacity(pdk.node, pdk.layers)
    trees = [routed.cells for routed in design.routing.nets.values()]
    sizes = [len(cells) for cells in trees]
    cells = np.fromiter(
        chain.from_iterable(chain.from_iterable(trees)),
        dtype=np.int64, count=3 * sum(sizes),
    ).reshape(-1, 3)
    net = np.repeat(np.arange(len(trees)), sizes)
    col, row, layer = cells.T
    cols = int(col.max(initial=0)) + 2
    rows = int(row.max(initial=0)) + 2
    layers = max(2, int(layer.max(initial=0)) + 1)

    def place(c, r, l):
        return (c * rows + r) * layers + l

    def key(n, c, r, l):
        return n * (cols * rows * layers) + place(c, r, l)

    routed = np.unique(key(net, col, row, layer))

    def has(c, r, l):
        query = key(net, c, r, l)
        at = np.minimum(np.searchsorted(routed, query), len(routed) - 1)
        return routed[at] == query

    flat = layer == 0
    right = flat & has(col + 1, row, 0)
    via = flat & has(col, row, 1)
    up = ~flat & has(col, row + 1, 1)

    # Track slots: each (grid cell, net) that draws there, ranked by net
    # order within its grid cell.
    here = place(col, row, layer)
    drawing = right | up | via
    n_nets = max(1, len(trees))
    calls, slot_of = np.unique(
        np.concatenate((
            here[drawing] * n_nets + net[drawing],
            place(col[via], row[via], 1) * n_nets + net[via],
        )),
        return_inverse=True,
    )
    grid_cell = calls // n_nets
    starts = np.flatnonzero(np.append(True, grid_cell[1:] != grid_cell[:-1]))
    rank = np.arange(len(calls)) - np.repeat(
        starts, np.diff(np.append(starts, len(calls)))
    )
    offset = ((rank % tracks) - (tracks - 1) / 2.0) * (pitch / tracks)
    off_here = np.zeros(len(cells))
    off_here[drawing] = offset[slot_of[: np.count_nonzero(drawing)]]
    off_above = offset[slot_of[np.count_nonzero(drawing):]]

    x = col * pitch
    y = row * pitch
    out = np.empty((2 * len(cells), 6), dtype=np.int64)
    wires, vias = out[0::2], out[1::2]
    half = met1.min_width_um / 2.0
    yc = y[right] + off_here[right]
    wires[right] = np.column_stack((
        np.full(len(yc), met1.gds_layer), np.full(len(yc), met1.gds_datatype),
        to_db_array(x[right]), to_db_array(yc - half),
        to_db_array(x[right] + pitch), to_db_array(yc + half),
    ))
    xv = x[via] + off_above
    yv = y[via] + off_here[via]
    vias[via] = np.column_stack((
        np.full(len(xv), via1.gds_layer), np.full(len(xv), via1.gds_datatype),
        to_db_array(xv - half), to_db_array(yv - half),
        to_db_array(xv + half), to_db_array(yv + half),
    ))
    half = met2.min_width_um / 2.0
    xc = x[up] + off_here[up]
    wires[up] = np.column_stack((
        np.full(len(xc), met2.gds_layer), np.full(len(xc), met2.gds_datatype),
        to_db_array(xc - half), to_db_array(y[up]),
        to_db_array(xc + half), to_db_array(y[up] + pitch),
    ))
    keep = np.empty(2 * len(cells), dtype=bool)
    keep[0::2] = right | up
    keep[1::2] = via
    return out[keep]


def build_chip_gds(design: PhysicalDesign, top_name: str | None = None) -> GdsLibrary:
    """Assemble the full-chip GDSII library for ``design``."""
    pdk = design.pdk
    library = GdsLibrary(name=f"{design.mapped.name}_{pdk.name}")
    top = GdsStruct(name=top_name or design.mapped.name)

    # Cell masters, one per cell variant actually used.
    masters: dict[str, GdsStruct] = {}
    cell_of = {inst.name: inst.cell for inst in design.mapped.cells}
    for name, placed in design.placement.cells.items():
        cell = cell_of[name]
        key = cell.name
        if key not in masters:
            masters[key] = library.add(cell_master_struct(cell, pdk))
        top.srefs.append(
            GdsSRef(key, (to_db(placed.x), to_db(placed.y)))
        )

    top.add_rects(wire_rows(design))

    # The electrically exact net-purpose fabric extraction reads back.
    from .fabric import draw_net_fabric

    draw_net_fabric(top, design)

    # Pin labels and the die outline.
    label = pdk.layers.by_name("label")
    for pin in design.floorplan.io_pins:
        top.texts.append(
            GdsText(label.gds_layer, pin.name, (to_db(pin.x), to_db(pin.y)))
        )
    outline = pdk.layers.outline
    top.add_rect_um(
        outline.gds_layer, outline.gds_datatype,
        0.0, 0.0,
        design.floorplan.die_width, design.floorplan.die_height,
    )

    library.add(top)
    return library
