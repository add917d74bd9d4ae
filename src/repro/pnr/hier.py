"""Region-stable hierarchical placement for incremental edit loops.

The quadratic placer treats the whole netlist as one elastic system: any
edit anywhere moves every cell a little, which forfeits all incremental
reuse downstream.  ``hier_place`` trades a few percent of wirelength for
*stability*: cells are grouped by the instance path encoded in their
stitched names (``u_cpu.u_alu.u3_AND2`` → region ``u_cpu.u_alu``), each
region gets a square-ish rectangular block of the core sized from a
power-of-two bucket of its cell area (blocks are shelf-packed tallest
first, and packed again smaller until the shelves fit in the core), and
each block is solved and legalized independently.
Cross-region nets pull against pure-geometry anchors (block centres, IO
pins) rather than against other regions' cells, so a region whose
subnetlist did not change re-derives exactly the same positions — the
property that lets the verified-replay router keep most of its recorded
paths.

The solver, the legalizer, the cell width and the finishing step are the
flat placer's (:mod:`repro.pnr.placement`).  This placer keeps its own
choices: per region, nets in net-id order with members as sorted cell
indexes then the anchor, a pull to the block centre, and one
legalization call per block, between the block's own ``x0``/``x1``
(blocks never share a row segment).

Stability is a performance property, not a correctness one: the placer
is a deterministic function of the current netlist and floorplan alone,
so incremental and from-scratch runs agree byte for byte regardless of
how many regions moved.
"""

from __future__ import annotations

import math

from ..obs.trace import get_tracer
from ..pdk.node import ProcessNode
from ..synth.mapped import MappedNetlist
from .floorplan import Floorplan
from .placement import (
    PlacedCell,
    Placement,
    finish_placement,
    legalize_rows,
    quadratic_positions,
)

#: Core-area quantization step, in units of row_height².  Coarse enough
#: that a one-module edit almost always lands in the same area bucket
#: (same die, same IO ring, same rows), fine enough not to waste silicon.
QUANTIZE_ROWS2 = 64.0

#: Fraction of the core handed to region blocks; the rest is headroom
#: for shelf-packing waste (blocks of unequal heights on one shelf).
PACK_FILL = 0.9

#: Factor on the fill for each repacking after the shelves overrun the
#: core: shelf-packing waste is not known before packing, and every
#: block must keep its whole size, since legalization never spills a
#: block's cells out of it.
PACK_SHRINK = 0.9

#: Extra whitespace for hierarchical floorplans.  Region blocks
#: concentrate their cells' routing demand and the channels between
#: blocks carry all inter-region nets, so a hier die placed at the flat
#: preset's utilization congests the router into long rip-up tails —
#: and wide, congestion-driven searches are exactly what makes edit
#: -session replay fragile (every explored set grows to cover the hot
#: spots).  Derating utilization buys convergent routing and compact
#: explored sets for a modest area premium.
ROUTABILITY = 0.75


def hier_quantize_um2(node: ProcessNode) -> float:
    """Floorplan area quantization step used with ``placer="hier"``."""
    return QUANTIZE_ROWS2 * node.row_height_um**2


def hier_utilization(
    mapped: MappedNetlist, node: ProcessNode, utilization: float
) -> float:
    """Effective core utilization for the hierarchical placer.

    Sizes the core from the sum of the regions' power-of-two area
    buckets instead of the raw cell area, so that every region block
    can be packed at (at most) the preset's utilization internally.
    Without this, a region whose area sits just under its bucket would
    be crammed at up to twice the target density — a local congestion
    hot spot the router pays for on every edit.
    """
    if not mapped.cells:
        return utilization
    base = node.row_height_um**2
    areas: dict[str, float] = {}
    for inst in mapped.cells:
        key = cell_region(inst.name)
        areas[key] = areas.get(key, 0.0) + inst.cell.area_um2
    total_bucket = sum(_bucket(a, base) for a in areas.values())
    total_area = sum(areas.values())
    return ROUTABILITY * PACK_FILL * utilization * total_area / total_bucket


def cell_region(name: str) -> str:
    """Region key of a stitched cell name: its instance-path prefix.

    Top-level cells (``u3_NAND2``) map to the root region ``""``.
    """
    return name.rpartition(".")[0]


def _bucket(value: float, base: float) -> float:
    """Smallest ``base * 2**k`` that covers ``value`` (k >= 0).

    Power-of-two budget buckets keep every region's strip share — and
    with it the whole strip layout — fixed under small area changes.
    """
    if value <= base:
        return base
    return base * 2.0 ** math.ceil(math.log2(value / base))


def _shelf_pack(
    budget: dict[str, float], floorplan: Floorplan, fill: float
) -> dict[str, tuple[float, float, int, int]] | None:
    """Region -> block ``(x0, x1, first row index, one-past-last row
    index)``, or ``None`` when the shelves overrun the core.

    Square-ish blocks share ``fill`` of the core in proportion to their
    budgets and are shelf-packed tallest first.  Every dimension derives
    from the pow-2 budgets and the (quantized) core alone, so the whole
    layout is fixed under edits that stay in-bucket.  With a
    :func:`hier_utilization` floorplan and ``fill`` at
    :data:`PACK_FILL`, each block's internal density is at most the
    preset utilization.
    """
    row0 = floorplan.rows[0]
    row_h = row0.height
    core_w = row0.width
    n_rows = len(floorplan.rows)
    core_area = core_w * n_rows * row_h
    total_budget = sum(budget.values())
    dims: dict[str, tuple[float, int]] = {}
    for key, share in budget.items():
        area = fill * core_area * share / total_budget
        h_rows = max(1, min(n_rows, round(math.sqrt(area) / row_h)))
        width = min(core_w, area / (h_rows * row_h))
        dims[key] = (width, h_rows)

    blocks: dict[str, tuple[float, float, int, int]] = {}
    shelf_r0, shelf_h, x_cur = 0, 0, row0.x0
    for key in sorted(budget, key=lambda k: (-dims[k][1], -dims[k][0], k)):
        width, h_rows = dims[key]
        if x_cur > row0.x0 and x_cur + width > row0.x0 + core_w + 1e-9:
            shelf_r0 += shelf_h
            shelf_h, x_cur = 0, row0.x0
        if shelf_r0 + h_rows > n_rows:
            return None
        shelf_h = max(shelf_h, h_rows)
        blocks[key] = (
            x_cur,
            min(x_cur + width, row0.x0 + core_w),
            shelf_r0,
            shelf_r0 + h_rows,
        )
        x_cur += width
    return blocks


def hier_place(
    mapped: MappedNetlist,
    floorplan: Floorplan,
    tracer=None,
) -> Placement:
    """Place ``mapped`` with one independent block per instance region.

    A deterministic function of ``mapped`` and ``floorplan`` alone.
    """
    if tracer is None:
        tracer = get_tracer()
    if not mapped.cells:
        return Placement({}, floorplan, 0.0)

    groups: dict[str, list] = {}
    for inst in mapped.cells:
        groups.setdefault(cell_region(inst.name), []).append(inst)
    keys = sorted(groups)

    row0 = floorplan.rows[0]
    row_h = row0.height
    base = row_h * row_h
    budget = {
        key: _bucket(sum(i.cell.area_um2 for i in groups[key]), base)
        for key in keys
    }
    fill = PACK_FILL
    while (blocks := _shelf_pack(budget, floorplan, fill)) is None:
        fill *= PACK_SHRINK
    block_center = {
        key: (
            (x0 + x1) / 2.0,
            floorplan.rows[r0].y + (r1 - r0) * row_h / 2.0,
        )
        for key, (x0, x1, r0, r1) in blocks.items()
    }

    # Per region, the nets with a member in it, each with its members by
    # cell name and the regions it spans, in net-id order: one pass over
    # the nets.
    driver = mapped.net_driver()
    loads = mapped.net_loads()
    io_position = floorplan.pin_positions()
    region_of = {
        inst.name: key for key in keys for inst in groups[key]
    }
    region_nets: dict[str, list[tuple[int, list[str], set[str]]]] = {
        key: [] for key in keys
    }
    for net in sorted(set(driver) | set(loads)):
        names: list[str] = []
        if net in driver:
            names.append(driver[net].name)
        for sink, _pin in loads.get(net, ()):
            names.append(sink.name)
        spans = {region_of[n] for n in names}
        for key in spans:
            region_nets[key].append((net, names, spans))

    with tracer.span("place.hier") as sp:
        desired: dict[str, tuple[float, float]] = {}
        for key in keys:
            cells = groups[key]
            index = {inst.name: i for i, inst in enumerate(cells)}
            nets: list[list] = []
            for net, names, spans in region_nets[key]:
                members: list = sorted(index[n] for n in names if n in index)
                # IO pins and the block centres of the other regions on
                # the net fold into one fixed anchor: pure geometry,
                # never another region's cell positions.
                pulls: list[tuple[float, float]] = []
                if net in io_position:
                    pulls.append(io_position[net])
                pulls.extend(block_center[r] for r in sorted(spans - {key}))
                if pulls:
                    members.append((
                        sum(p[0] for p in pulls) / len(pulls),
                        sum(p[1] for p in pulls) / len(pulls),
                    ))
                nets.append(members)
            desired.update(
                quadratic_positions(cells, nets, block_center[key])
            )

        placed: dict[str, PlacedCell] = {}
        for key, (bx0, bx1, r0, r1) in blocks.items():
            placed.update(legalize_rows(
                groups[key], desired, floorplan.rows[r0:r1], bx0, bx1
            ))
        if tracer.enabled:
            sp.set(regions=len(keys), cells=len(placed))

    return finish_placement(mapped, floorplan, placed)
