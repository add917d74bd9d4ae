"""Per-net and per-shape references for the layout table-code oracle tests.

The layout package plans, allocates and draws the net-purpose fabric
as tables, computes the drawing-purpose wires with numpy and expands
DRC's spacing bins with numpy.  This module keeps the loops those
replaced, so the tests can require the same rows in the same order,
the same :class:`~repro.layout.fabric.FabricError` text and the same
spacing candidates from both:

* :func:`reference_fabric` draws one net at a time, allocating and
  drawing each shape as it goes;
* :func:`reference_wires` draws the wire picture one routed grid cell
  at a time;
* :func:`reference_candidates` bins rectangles with nested loops and
  lists each bin's pairs.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from repro.layout.chip import master_pin_offsets
from repro.layout.fabric import HALF, PAD_HALF, Q, FabricError, _Band, _LiIndex
from repro.layout.gds import GdsStruct, to_db
from repro.pdk.layers import NET_DATATYPE
from repro.pnr.physical import PhysicalDesign
from repro.pnr.route import RoutingGrid, drc_clean_capacity


# -- net-purpose fabric ---------------------------------------------------------


class _Run:
    """One backbone: a lattice line plus the interval it spans."""

    __slots__ = ("line", "lo", "hi")

    def __init__(self, line: int, lo: int, hi: int):
        self.line = line
        self.lo = lo
        self.hi = hi

    def cover(self, v: int) -> None:
        if v < self.lo:
            self.lo = v
        if v > self.hi:
            self.hi = v


def _ranges(values: list[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers in a sorted list."""
    out: list[tuple[int, int]] = []
    for v in values:
        if out and v == out[-1][1] + 1:
            out[-1] = (out[-1][0], v)
        else:
            out.append((v, v))
    return out


def reference_fabric(
    top: GdsStruct, design: PhysicalDesign, branches: Counter | None = None
) -> None:
    """Draw the net-purpose fabric into ``top`` net by net, one
    ``add_rect`` call per shape.  ``branches`` counts each branch taken
    for a pin the route does not cover, so tests can show they reach
    every one."""
    if branches is None:
        branches = Counter()
    pdk = design.pdk
    mapped = design.mapped
    fp = design.floorplan
    li = pdk.layers.by_name("li").gds_layer
    lic = pdk.layers.by_name("lic").gds_layer
    met1 = pdk.layers.by_name("met1").gds_layer
    via1 = pdk.layers.by_name("via1").gds_layer
    met2 = pdk.layers.by_name("met2").gds_layer

    grid = RoutingGrid.over(fp, design.routing.grid_pitch_um)
    p = to_db(grid.pitch)
    snap = grid.snap

    add_rect = top.add_rect

    def rect(layer: int, x0: int, y0: int, x1: int, y1: int) -> None:
        add_rect(layer, NET_DATATYPE, x0, y0, x1, y1)

    def cut(x: int, y: int) -> None:
        rect(via1, x - HALF, y - HALF, x + HALF, y + HALF)

    row_bands: dict[int, _Band] = {}
    col_bands: dict[int, _Band] = {}

    def row_band(r: int) -> _Band:
        band = row_bands.get(r)
        if band is None:
            band = row_bands[r] = _Band(
                r * p - p // 2 + 2 * Q, r * p + p // 2 - 2 * Q
            )
        return band

    def col_band(c: int) -> _Band:
        band = col_bands.get(c)
        if band is None:
            band = col_bands[c] = _Band(
                c * p - p // 2 + 2 * Q, c * p + p // 2 - 2 * Q
            )
        return band

    # Pass 1 — collect pins per net and register every li pad, so stub
    # placement can see all pads before the first stub is chosen.
    pins_by_net: dict[int, list[tuple[int, int, int, int]]] = defaultdict(list)
    li_index = _LiIndex()
    offsets_cache: dict[str, dict[str, tuple[int, int]]] = {}
    for inst in mapped.cells:
        placed = design.placement.cells[inst.name]
        offs = offsets_cache.get(inst.cell.name)
        if offs is None:
            offs = offsets_cache[inst.cell.name] = master_pin_offsets(
                inst.cell, pdk.node
            )
        ox, oy = to_db(placed.x), to_db(placed.y)
        node = snap(placed.cx, placed.cy)
        pin_names = list(inst.cell.inputs)
        if inst.cell.output:
            pin_names.append(inst.cell.output)
        for pin in pin_names:
            net = inst.pins[pin]
            px, py = ox + offs[pin][0], oy + offs[pin][1]
            pins_by_net[net].append((px, py, node[0], node[1]))
            li_index.add(px - PAD_HALF, py - PAD_HALF,
                         px + PAD_HALF, py + PAD_HALF, net)
    for io in fp.io_pins:
        px, py = to_db(io.x), to_db(io.y)
        node = snap(io.x, io.y)
        pins_by_net[io.net].append((px, py, node[0], node[1]))
        li_index.add(px - PAD_HALF, py - PAD_HALF,
                     px + PAD_HALF, py + PAD_HALF, io.net)
        # IO pads are top-level geometry (cell pads live in the masters).
        rect(li, px - PAD_HALF, py - PAD_HALF, px + PAD_HALF, py + PAD_HALF)

    # Pass 2 — per net: backbones from the route tree, then pin taps.
    for net in sorted(pins_by_net):
        routed = design.routing.nets.get(net)
        hruns: list[_Run] = []
        vruns: list[_Run] = []
        hcover: dict[tuple[int, int], _Run] = {}
        vcover: dict[tuple[int, int], _Run] = {}

        if routed is not None:
            by_row: dict[int, list[int]] = defaultdict(list)
            by_col: dict[int, list[int]] = defaultdict(list)
            for col, row, layer in routed.cells:
                if layer == 0:
                    by_row[row].append(col)
                else:
                    by_col[col].append(row)
            for row in sorted(by_row):
                for c0, c1 in _ranges(sorted(by_row[row])):
                    run = _Run(row_band(row).alloc(row * p), c0 * p, c1 * p)
                    hruns.append(run)
                    for col in range(c0, c1 + 1):
                        hcover[(col, row)] = run
            for col in sorted(by_col):
                for r0, r1 in _ranges(sorted(by_col[col])):
                    run = _Run(col_band(col).alloc(col * p), r0 * p, r1 * p)
                    vruns.append(run)
                    for row in range(r0, r1 + 1):
                        vcover[(col, row)] = run

        # Layer-transition cuts at nodes the route uses on both layers.
        for node in sorted(set(hcover) & set(vcover)):
            h, v = hcover[node], vcover[node]
            cut(v.line, h.line)
            h.cover(v.line)
            v.cover(h.line)

        def bridge_h(h_a: _Run, h_b: _Run, col: int) -> None:
            """Join two met1 backbones with a met2 jumper in ``col``."""
            xb = col_band(col).alloc(col * p)
            lo, hi = sorted((h_a.line, h_b.line))
            rect(met2, xb - HALF, lo - HALF, xb + HALF, hi + HALF)
            cut(xb, h_a.line)
            cut(xb, h_b.line)
            h_a.cover(xb)
            h_b.cover(xb)

        def join(c: int, r: int, c2: int, r2: int) -> None:
            """Connect uncovered node (c, r) to covered node (c2, r2)."""
            leg = _Run(row_band(r).alloc(r * p),
                       min(c, c2) * p, max(c, c2) * p)
            hruns.append(leg)
            for col in range(min(c, c2), max(c, c2) + 1):
                hcover.setdefault((col, r), leg)
            if r != r2:
                vleg = _Run(col_band(c2).alloc(c2 * p),
                            min(r, r2) * p, max(r, r2) * p)
                vruns.append(vleg)
                for row in range(min(r, r2), max(r, r2) + 1):
                    vcover.setdefault((c2, row), vleg)
                cut(vleg.line, leg.line)
                leg.cover(vleg.line)
                vleg.cover(leg.line)
                target_h = hcover.get((c2, r2))
                if target_h is not None:
                    branches["met2 leg onto met1"] += 1
                    cut(vleg.line, target_h.line)
                    vleg.cover(target_h.line)
                    target_h.cover(vleg.line)
                else:
                    target_v = vcover[(c2, r2)]
                    if target_v is not vleg:
                        branches["met2 leg via met1 jumper"] += 1
                        yb = row_band(r2).alloc(r2 * p)
                        lo, hi = sorted((vleg.line, target_v.line))
                        hruns.append(_Run(yb, lo, hi))
                        cut(vleg.line, yb)
                        cut(target_v.line, yb)
                        vleg.cover(yb)
                        target_v.cover(yb)
            else:
                target_v = vcover.get((c2, r2))
                if target_v is not None:
                    branches["met1 leg onto met2"] += 1
                    cut(target_v.line, leg.line)
                    leg.cover(target_v.line)
                    target_v.cover(leg.line)
                else:
                    target_h = hcover[(c2, r2)]
                    if target_h is not leg:
                        branches["met1 leg via met2 bridge"] += 1
                        bridge_h(leg, target_h, c2)

        for px, py, c, r in pins_by_net[net]:
            if (c, r) not in hcover and (c, r) not in vcover:
                if not hcover and not vcover:
                    branches["single node"] += 1
                    # Single-node net: all pins share one grid node.
                    run = _Run(row_band(r).alloc(r * p), c * p, c * p)
                    hruns.append(run)
                    hcover[(c, r)] = run
                else:
                    # A pin node the router never targeted (e.g. the
                    # second IO pin of a feedthrough net): L-connect it
                    # to the nearest covered node.
                    branches["join"] += 1
                    _, c2, r2 = min(
                        (abs(cc - c) + abs(rr - r), cc, rr)
                        for cc, rr in set(hcover) | set(vcover)
                    )
                    join(c, r, c2, r2)

            # Spur line in this grid row's band, as close to the pin as
            # the band allows (stubs stay short).
            ys = row_band(r).alloc(py)
            stub_lo, stub_hi = min(py, ys), max(py, ys)
            want = (px + Q // 2) // Q * Q
            for cand in (want, want + Q, want - Q):
                if not li_index.conflict(cand - HALF, stub_lo - HALF,
                                         cand + HALF, stub_hi + HALF, net):
                    x_stub = cand
                    break
            else:
                raise FabricError(
                    f"no shorts-free li stub position for net {net} "
                    f"pin at ({px}, {py}) nm"
                )
            li_index.add(x_stub - HALF, stub_lo - HALF,
                         x_stub + HALF, stub_hi + HALF, net)
            rect(li, x_stub - HALF, stub_lo - HALF,
                 x_stub + HALF, stub_hi + HALF)
            rect(lic, x_stub - HALF, ys - HALF, x_stub + HALF, ys + HALF)

            v = vcover.get((c, r))
            if v is not None:
                cut(v.line, ys)
                v.cover(ys)
                x_end = v.line
            else:
                h = hcover[(c, r)]
                xd = col_band(c).alloc(px)
                cut(xd, ys)
                drop_lo, drop_hi = sorted((ys, h.line))
                rect(met2, xd - HALF, drop_lo - HALF,
                     xd + HALF, drop_hi + HALF)
                cut(xd, h.line)
                h.cover(xd)
                x_end = xd
            spur_lo, spur_hi = sorted((x_stub, x_end))
            rect(met1, spur_lo - HALF, ys - HALF, spur_hi + HALF, ys + HALF)

        # Backbones last: taps may have extended their spans.
        for run in hruns:
            rect(met1, run.lo - HALF, run.line - HALF,
                 run.hi + HALF, run.line + HALF)
        for run in vruns:
            rect(met2, run.line - HALF, run.lo - HALF,
                 run.line + HALF, run.hi + HALF)


# -- drawing-purpose wires -------------------------------------------------------


def reference_wires(top: GdsStruct, design: PhysicalDesign) -> None:
    """Draw the drawing-purpose routing wires and vias into ``top``."""
    pdk = design.pdk
    met1 = pdk.layers.by_name("met1")
    met2 = pdk.layers.by_name("met2")
    via1 = pdk.layers.by_name("via1")
    pitch = design.routing.grid_pitch_um
    tracks = drc_clean_capacity(pdk.node, pdk.layers)
    cell_tracks: dict[tuple[int, int, int], dict[int, int]] = {}

    def offset_for(cell: tuple[int, int, int], net: int) -> float:
        nets_here = cell_tracks.setdefault(cell, {})
        if net not in nets_here:
            nets_here[net] = len(nets_here)
        slot = nets_here[net] % tracks
        return (slot - (tracks - 1) / 2.0) * (pitch / tracks)

    for net, routed in design.routing.nets.items():
        cells = set(routed.cells)
        for cell in routed.cells:
            col, row, layer = cell
            x = col * pitch
            y = row * pitch
            if layer == 0:
                if (col + 1, row, 0) in cells:
                    yc = y + offset_for(cell, net)
                    half = met1.min_width_um / 2.0
                    top.add_rect_um(
                        met1.gds_layer, met1.gds_datatype,
                        x, yc - half, x + pitch, yc + half,
                    )
                if (col, row, 1) in cells:
                    off_h = offset_for(cell, net)
                    off_v = offset_for((col, row, 1), net)
                    half = met1.min_width_um / 2.0
                    top.add_rect_um(
                        via1.gds_layer, via1.gds_datatype,
                        x + off_v - half, y + off_h - half,
                        x + off_v + half, y + off_h + half,
                    )
            else:
                if (col, row + 1, 1) in cells:
                    xc = x + offset_for(cell, net)
                    half = met2.min_width_um / 2.0
                    top.add_rect_um(
                        met2.gds_layer, met2.gds_datatype,
                        xc - half, y, xc + half, y + pitch,
                    )


# -- DRC spacing candidates ------------------------------------------------------


def reference_candidates(
    coords: np.ndarray, spacing: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(first, second)`` rectangle indexes of every spacing candidate
    pair: bins in creation order, then each bin's row-major ``i < j``
    upper triangle, with a pair repeated for every bin it shares."""
    bin_size = max(spacing * 8.0, 1e-3)
    bins: dict[tuple[int, int], list[int]] = defaultdict(list)
    for index, (x0, y0, x1, y1) in enumerate(coords.tolist()):
        for bx in range(
            int((x0 - spacing) // bin_size),
            int((x1 + spacing) // bin_size) + 1,
        ):
            for by in range(
                int((y0 - spacing) // bin_size),
                int((y1 + spacing) // bin_size) + 1,
            ):
                bins[(bx, by)].append(index)
    triu_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    pair_a: list[np.ndarray] = [np.empty(0, np.int64)]
    pair_b: list[np.ndarray] = [np.empty(0, np.int64)]
    for members in bins.values():
        count = len(members)
        if count < 2:
            continue
        upper = triu_cache.get(count)
        if upper is None:
            upper = triu_cache[count] = np.triu_indices(count, 1)
        idx = np.fromiter(members, dtype=np.int64, count=count)
        pair_a.append(idx[upper[0]])
        pair_b.append(idx[upper[1]])
    return np.concatenate(pair_a), np.concatenate(pair_b)
