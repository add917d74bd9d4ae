"""Net-purpose fabric: electrically exact per-net geometry.

The drawing-purpose wires (:mod:`repro.layout.chip`, datatype 0) show a
DRC-legal picture of the routing, but nets sharing a grid cell are drawn
on a handful of shared track slots — fine for mask rules, useless for
reading connectivity back.  This module draws a second, thin copy of
every net on the **net purpose** (:data:`repro.pdk.layers.NET_DATATYPE`)
whose touch graph *is* the netlist:

* every horizontal route segment becomes one ``met1`` backbone on its
  own lattice line inside the grid row's band;
* every vertical segment becomes one ``met2`` backbone in the grid
  column's band;
* layer transitions get ``via1`` cuts; pins get a short ``li`` stub off
  their master pad, a ``lic`` cut, a ``met1`` spur and (when the tap
  target is a horizontal backbone) a ``met2`` drop.

Geometry is integer nanometres on a ``Q`` = 4 nm lattice with 1 nm
half-width shapes, so shapes on *different* lattice lines are always
>= 2 nm apart and never touch under the extractor's closed-interval
touch test, while shapes of one net share lines and always do.  Each
band hands out every lattice line at most once across **all** nets,
which rules out shorts by construction; the per-net capacity question of
the drawing purpose never arises because fabric wires are two orders of
magnitude thinner than the pitch.
"""

from __future__ import annotations

from collections import defaultdict

from ..pdk.layers import NET_DATATYPE
from ..pnr.physical import PhysicalDesign
from ..pnr.route import RoutingGrid
from .gds import GdsStruct, to_db

#: Lattice quantum in nm.  Lines are multiples of Q; with HALF-width
#: shapes, distinct lines keep a >= Q - 2*HALF = 2 nm clearance.
Q = 4
#: Half-width of fabric wires/cuts in nm (2 nm wide shapes).
HALF = 1
#: Half-size of li pin pads (matches chip.PIN_PAD_HALF_NM).
PAD_HALF = 7


class FabricError(RuntimeError):
    """A net-purpose shape could not be placed without a short."""


class _Band:
    """Exclusive lattice-line allocator for one grid row or column.

    Bit ``i`` of ``free`` is set while line ``lo + i * Q`` is free, so
    the nearest free line on either side of a wanted one is one shift
    and one ``bit_length`` away, however full the band is.
    """

    __slots__ = ("lo", "hi", "free")

    def __init__(self, lo: int, hi: int):
        self.lo = -(-lo // Q) * Q
        self.hi = (hi // Q) * Q
        self.free = (
            (1 << ((self.hi - self.lo) // Q + 1)) - 1
            if self.lo <= self.hi else 0
        )

    def alloc(self, preferred: int) -> int:
        """The free line nearest ``preferred`` (ties go up), now taken."""
        if self.lo > self.hi:
            raise FabricError("lattice band is empty")
        free = self.free
        if not free:
            raise FabricError(
                f"lattice band [{self.lo}, {self.hi}] exhausted "
                f"({(self.hi - self.lo) // Q + 1} lines in use)"
            )
        want = min(max(preferred, self.lo), self.hi)
        want = (want + Q // 2) // Q * Q
        k = (min(max(want, self.lo), self.hi) - self.lo) // Q
        above = free >> k  # bit j: line k + j is free
        below = free & ((2 << k) - 1)  # free lines at or below line k
        index = below.bit_length() - 1
        if above:
            up = k + (above & -above).bit_length() - 1
            if not below or up - k <= k - index:
                index = up
        self.free = free ^ (1 << index)
        return self.lo + index * Q


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


class _LiIndex:
    """Collision index for li shapes (pads and stubs) on an x/y bucket
    grid, so a query scans only the shapes near it."""

    BUCKET = 1024  # nm

    def __init__(self):
        self.buckets: dict[
            tuple[int, int], list[tuple[int, int, int, int, int]]
        ] = defaultdict(list)

    def add(self, x0: int, y0: int, x1: int, y1: int, net: int) -> None:
        b = self.BUCKET
        shape = (x0, y0, x1, y1, net)
        for bx in range(x0 // b, x1 // b + 1):
            for by in range(y0 // b, y1 // b + 1):
                self.buckets[bx, by].append(shape)

    def conflict(self, x0: int, y0: int, x1: int, y1: int, net: int) -> bool:
        b = self.BUCKET
        for bx in range(x0 // b, x1 // b + 1):
            for by in range(y0 // b, y1 // b + 1):
                for ax0, ay0, ax1, ay1, other in self.buckets.get(
                    (bx, by), ()
                ):
                    if other != net and (
                        ax0 <= x1 and x0 <= ax1 and ay0 <= y1 and y0 <= ay1
                    ):
                        return True
        return False


def _ranges(values: list[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers in a sorted list."""
    out: list[tuple[int, int]] = []
    for v in values:
        if out and v == out[-1][1] + 1:
            out[-1] = (out[-1][0], v)
        else:
            out.append((v, v))
    return out


def draw_net_fabric(top: GdsStruct, design: PhysicalDesign) -> None:
    """Draw the net-purpose fabric for every net into ``top``.

    Consumes the placement, floorplan and routing of ``design``; master
    pin pads are part of the cell structures (drawn by
    :func:`repro.layout.chip.cell_master_struct`), IO pads are drawn
    here.  Raises :class:`FabricError` if any shape cannot be placed
    shorts-free — loud failure beats silently wrong mask data.
    """
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
    from .chip import master_pin_offsets

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
                    cut(vleg.line, target_h.line)
                    vleg.cover(target_h.line)
                    target_h.cover(vleg.line)
                else:
                    target_v = vcover[(c2, r2)]
                    if target_v is not vleg:
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
                    cut(target_v.line, leg.line)
                    leg.cover(target_v.line)
                    target_v.cover(leg.line)
                else:
                    target_h = hcover[(c2, r2)]
                    if target_h is not leg:
                        bridge_h(leg, target_h, c2)

        for px, py, c, r in pins_by_net[net]:
            if (c, r) not in hcover and (c, r) not in vcover:
                if not hcover and not vcover:
                    # Single-node net: all pins share one grid node.
                    run = _Run(row_band(r).alloc(r * p), c * p, c * p)
                    hruns.append(run)
                    hcover[(c, r)] = run
                else:
                    # A pin node the router never targeted (e.g. the
                    # second IO pin of a feedthrough net): L-connect it
                    # to the nearest covered node.
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
