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
from itertools import chain

import numpy as np

from ..pdk.layers import NET_DATATYPE
from ..pnr.physical import PhysicalDesign
from ..pnr.route import RoutingGrid
from .gds import GdsStruct, to_db, to_db_array
from .geometry import shared_bin_pairs

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




#: Sections of one net's rows, in emission order: layer-transition cuts,
#: pin shapes, met1 backbones, met2 backbones.
_CUTS, _PINS, _MET1, _MET2 = range(4)
#: Slot of a pin's li stub; the pin's join shapes take slots 0, 1, ...
#: before it, and its other shapes the slots after it.
_STUB_SLOT = 1 << 30


def _split_runs(net: np.ndarray, major: np.ndarray, minor: np.ndarray):
    """Route cells of one layer as backbone runs.

    Sorts the cells by (net, major, minor) and splits them into maximal
    runs of consecutive ``minor`` values, so runs come in (net, major,
    first minor) order, and a repeated cell starts a new run as it does
    in a scan of the sorted list.  Returns ``(net, major, first, last)``
    per run and ``(net, major, minor, run)`` per sorted cell.
    """
    order = np.lexsort((minor, major, net))
    net, major, minor = net[order], major[order], minor[order]
    if not len(net):
        return (net, major, minor, minor), (net, major, minor, net)
    start = np.ones(len(net), dtype=bool)
    start[1:] = (
        (net[1:] != net[:-1])
        | (major[1:] != major[:-1])
        | (minor[1:] != minor[:-1] + 1)
    )
    first = np.flatnonzero(start)
    last = np.append(first[1:], len(net)) - 1
    runs = (net[first], major[first], minor[first], minor[last])
    return runs, (net, major, minor, np.cumsum(start) - 1)


def _cover_map(keys: np.ndarray, runs: np.ndarray):
    """Sorted unique node keys, each with the run that covers it (the
    later of two runs through one node, as when they are assigned in
    order)."""
    order = np.argsort(keys, kind="stable")
    keys, runs = keys[order], runs[order]
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    return keys[last], runs[last]


def _lookup(keys: np.ndarray, values: np.ndarray, query: np.ndarray):
    """``values`` at each ``query`` found in the sorted ``keys``, else -1."""
    if not len(keys):
        return np.full(len(query), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[at] == query, values[at], -1)


def _rows(layer: int, x0, y0, x1, y1) -> np.ndarray:
    """Net-purpose rectangle rows on ``layer``."""
    x0 = np.asarray(x0, dtype=np.int64)
    rows = np.empty((len(x0), 6), dtype=np.int64)
    rows[:, 0] = layer
    rows[:, 1] = NET_DATATYPE
    rows[:, 2] = x0
    rows[:, 3] = y0
    rows[:, 4] = x1
    rows[:, 5] = y1
    return rows


def draw_net_fabric(top: GdsStruct, design: PhysicalDesign) -> None:
    """Draw the net-purpose fabric for every net into ``top``.

    Consumes the placement, floorplan and routing of ``design``; master
    pin pads are part of the cell structures (drawn by
    :func:`repro.layout.chip.cell_master_struct`), IO pads are drawn
    here.  Raises :class:`FabricError` if any shape cannot be placed
    shorts-free — loud failure beats silently wrong mask data.

    Three steps, each over whole tables: :class:`_Fabric` plans the pin
    table, the backbone runs and every lattice-line request; one loop
    hands the requests to the bands in order; the shapes are then built
    as rows with a sort key and appended in one call.
    """
    fabric = _Fabric(design)
    fabric.allocate()
    top.add_rects(fabric.rows())


class _Fabric:
    """The fabric of one design as tables.

    Pins are numbered in net order (ascending net id; within a net,
    cell pins in ``mapped.cells`` order, inputs before the output, then
    IO pins in floorplan order).  Runs are numbered met1 backbones
    first, ordered by (net, grid row, first column), then met2
    backbones by (net, grid column, first row), then single-node runs,
    then the runs join nets create, in creation order.

    Lattice lines are requested in this order: per net, its met1 then
    met2 backbones; then per pin its single-node run (the first pin of
    an unrouted net whose pins share one node), its spur in the band
    of its grid row, and its met2 drop in the band of its grid column
    when no met2 backbone covers its node.  Which requests exist depends
    on the route alone, so the plan precedes allocation.  A *join net*,
    one with a pin the route does not cover that is not such a
    single-node net, requests its backbones the same way and then its
    pins' lines through :meth:`_join_net`, which L-connects each
    uncovered pin node to the nearest covered one.
    """

    def __init__(self, design: PhysicalDesign):
        pdk = design.pdk
        self.layers = {
            name: pdk.layers.by_name(name).gds_layer
            for name in ("li", "lic", "met1", "via1", "met2")
        }
        grid = RoutingGrid.over(design.floorplan, design.routing.grid_pitch_um)
        self.p = to_db(grid.pitch)
        self._plan_pins(design, grid)
        self._plan_runs(design, grid)
        self._plan_requests()

    def _plan_pins(self, design: PhysicalDesign, grid: RoutingGrid) -> None:
        """The pin table: net id, pad centre (nm) and grid node per pin,
        in net order."""
        from .chip import master_pin_offsets

        pins_of: dict[str, list[tuple[str, int, int]]] = {}
        boxes: list[tuple[float, float, float, float]] = []
        owners: list[int] = []
        nets: list[int] = []
        dxs: list[int] = []
        dys: list[int] = []
        placed_cells = design.placement.cells
        for owner, inst in enumerate(design.mapped.cells):
            placed = placed_cells[inst.name]
            boxes.append((placed.x, placed.y, placed.width, placed.height))
            pins = pins_of.get(inst.cell.name)
            if pins is None:
                offsets = master_pin_offsets(inst.cell, design.pdk.node)
                names = list(inst.cell.inputs)
                if inst.cell.output:
                    names.append(inst.cell.output)
                pins = pins_of[inst.cell.name] = [
                    (pin, *offsets[pin]) for pin in names
                ]
            for pin, dx, dy in pins:
                nets.append(inst.pins[pin])
                dxs.append(dx)
                dys.append(dy)
                owners.append(owner)
        box = np.array(boxes, dtype=np.float64).reshape(-1, 4)
        owner = np.array(owners, dtype=np.int64)
        cell_col, cell_row = grid.snap_array(
            box[:, 0] + box[:, 2] / 2.0, box[:, 1] + box[:, 3] / 2.0
        )
        ios = design.floorplan.io_pins
        io_x = np.array([io.x for io in ios], dtype=np.float64)
        io_y = np.array([io.y for io in ios], dtype=np.float64)
        io_col, io_row = grid.snap_array(io_x, io_y)
        self.io_px, self.io_py = to_db_array(io_x), to_db_array(io_y)
        net = np.array(nets + [io.net for io in ios], dtype=np.int64)
        px = np.concatenate((
            to_db_array(box[:, 0])[owner] + np.array(dxs, dtype=np.int64),
            self.io_px,
        ))
        py = np.concatenate((
            to_db_array(box[:, 1])[owner] + np.array(dys, dtype=np.int64),
            self.io_py,
        ))
        col = np.concatenate((cell_col[owner], io_col))
        row = np.concatenate((cell_row[owner], io_row))
        order = np.argsort(net, kind="stable")
        self.pin_net, self.px, self.py = net[order], px[order], py[order]
        self.pin_col, self.pin_row = col[order], row[order]
        self.nets, self.net_first, self.net_pins = np.unique(
            self.pin_net, return_index=True, return_counts=True
        )
        #: Net index (into :attr:`nets`) of every pin.
        self.pin_of_net = np.repeat(np.arange(len(self.nets)), self.net_pins)

    def _plan_runs(self, design: PhysicalDesign, grid: RoutingGrid) -> None:
        """Backbone runs from the route trees, the transition cuts, which
        run covers each pin node, and which nets need joins."""
        n_nets = len(self.nets)
        routing = design.routing.nets
        trees = [
            routing[net].cells if net in routing else ()
            for net in self.nets.tolist()
        ]
        sizes = [len(cells) for cells in trees]
        cells = np.fromiter(
            chain.from_iterable(chain.from_iterable(trees)),
            dtype=np.int64, count=3 * sum(sizes),
        ).reshape(-1, 3)
        cell_net = np.repeat(np.arange(n_nets), sizes)
        flat = cells[:, 2] == 0
        h_runs, self.h_cells = _split_runs(
            cell_net[flat], cells[flat, 1], cells[flat, 0]
        )
        v_runs, self.v_cells = _split_runs(
            cell_net[~flat], cells[~flat, 0], cells[~flat, 1]
        )
        self.h_runs, self.v_runs = h_runs, v_runs
        n_h = self.met1_runs = len(h_runs[0])
        cols = max(grid.cols, int(cells[:, 0].max(initial=-1)) + 1)
        rows = max(grid.rows, int(cells[:, 1].max(initial=-1)) + 1)

        def node(net, col, row):
            return (net * cols + col) * rows + row

        net, row, col, run = self.h_cells
        h_nodes, h_cover = _cover_map(node(net, col, row), run)
        net, col, row, run = self.v_cells
        v_nodes, v_cover = _cover_map(node(net, col, row), run + n_h)
        # Layer-transition cuts, in (net, col, row) order.
        _, at_h, at_v = np.intersect1d(
            h_nodes, v_nodes, assume_unique=True, return_indices=True
        )
        self.cut_h, self.cut_v = h_cover[at_h], v_cover[at_v]

        pin_of_net = self.pin_of_net
        pin_node = node(pin_of_net, self.pin_col, self.pin_row)
        self.pin_h = _lookup(h_nodes, h_cover, pin_node)
        self.pin_v = _lookup(v_nodes, v_cover, pin_node)
        has_runs = (
            np.bincount(h_runs[0], minlength=n_nets)
            + np.bincount(v_runs[0], minlength=n_nets)
        ) > 0
        uncovered = np.bincount(
            pin_of_net[(self.pin_h < 0) & (self.pin_v < 0)], minlength=n_nets
        ) > 0
        one_node = np.zeros(n_nets, dtype=bool)
        if n_nets:
            one_node = (
                np.minimum.reduceat(pin_node, self.net_first)
                == np.maximum.reduceat(pin_node, self.net_first)
            )
        # An unrouted net whose pins share one node gets one single-node
        # met1 run, requested by its first pin and covering all of them.
        single = ~has_runs & one_node
        self.single_nets = np.flatnonzero(single)
        self.join_nets = np.flatnonzero(uncovered & ~single)
        routed = n_h + len(v_runs[0])
        self.pin_h[single[pin_of_net]] = np.repeat(
            routed + np.arange(len(self.single_nets)), self.net_pins[single]
        )

    def _plan_requests(self) -> None:
        """The run table and every lattice-line request, sorted into
        allocation order."""
        p = self.p
        h_net, h_row, h_lo, h_hi = self.h_runs
        v_net, v_col, v_lo, v_hi = self.v_runs
        singles = self.single_nets
        single_pin = self.single_pin = self.net_first[singles]
        self.run_vertical = np.concatenate((
            np.zeros(len(h_net), dtype=bool), np.ones(len(v_net), dtype=bool),
            np.zeros(len(singles), dtype=bool),
        ))
        self.run_net = np.concatenate((h_net, v_net, singles))
        self.run_lo = np.concatenate(
            (h_lo, v_lo, self.pin_col[single_pin])
        ) * p
        self.run_hi = np.concatenate(
            (h_hi, v_hi, self.pin_col[single_pin])
        ) * p
        self.planned_runs = len(self.run_net)
        routed = len(h_net) + len(v_net)

        pin_of_net = self.pin_of_net
        plain = ~np.isin(pin_of_net, self.join_nets)
        spur_pins = self.spur_pins = np.flatnonzero(plain)
        drop_pins = self.drop_pins = np.flatnonzero(plain & (self.pin_v < 0))
        joins = self.join_nets
        # Band keys: 2 * index for a grid row's band, 2 * index + 1 for a
        # grid column's; a join net's one request is -1 - its net index.
        parts = (
            # (net, pin or run, slot, band key, preferred line)
            (np.concatenate((h_net, v_net)), np.arange(routed) - routed, 0,
             np.concatenate((2 * h_row, 2 * v_col + 1)),
             np.concatenate((h_row, v_col)) * p),
            (singles, single_pin, 0, 2 * self.pin_row[single_pin],
             self.pin_row[single_pin] * p),
            (pin_of_net[spur_pins], spur_pins, 1,
             2 * self.pin_row[spur_pins], self.py[spur_pins]),
            (pin_of_net[drop_pins], drop_pins, 2,
             2 * self.pin_col[drop_pins] + 1, self.px[drop_pins]),
            (joins, self.net_first[joins], -1, -1 - joins,
             np.zeros(len(joins), dtype=np.int64)),
        )
        self.part_sizes = [len(part[0]) for part in parts]
        net, at, slot, band, preferred = (
            np.concatenate([np.broadcast_to(part[i], len(part[0]))
                            for part in parts])
            for i in range(5)
        )
        self.order = np.lexsort((slot, at, net))
        self.req_band = band[self.order]
        self.req_pref = preferred[self.order]
        self.bands: dict[int, _Band] = {}

    # -- allocation --------------------------------------------------------

    def band(self, key: int) -> _Band:
        band = self.bands.get(key)
        if band is None:
            index, p = key >> 1, self.p
            band = self.bands[key] = _Band(
                index * p - p // 2 + 2 * Q, index * p + p // 2 - 2 * Q
            )
        return band

    def allocate(self) -> None:
        """Hand out every lattice line in request order, then choose the
        li stubs.  On a failure, raises the error that drawing net by
        net, pin by pin, meets first: a stub failure of a pin whose
        stub comes before the failing request wins."""
        n_pins = len(self.pin_net)
        self.pin_ys = np.zeros(n_pins, dtype=np.int64)
        self.pin_xd = np.zeros(n_pins, dtype=np.int64)
        self.new_runs: list[tuple[bool, int, int, int, int]] = []
        self.covers: list[tuple[int, int]] = []
        self.join_rows: list[tuple[int, int, int, int, int, int, int, int]] = []
        self.joined_pins = 0
        lines = [0] * len(self.req_band)
        self.lines = lines
        if len(self.join_nets):
            self.request_at = np.empty(len(self.order), dtype=np.int64)
            self.request_at[self.order] = np.arange(len(self.order))
        bands = self.bands
        prefs = self.req_pref.tolist()
        i = 0
        try:
            for i, key in enumerate(self.req_band.tolist()):
                if key < 0:
                    self._join_net(-1 - key)
                    continue
                band = bands.get(key)
                if band is None:
                    band = self.band(key)
                lines[i] = band.alloc(prefs[i])
        except FabricError as error:
            self._spread_lines()
            self.stubs(self._stubs_before(i))
            raise error
        self._spread_lines()
        self.stubs(len(self.pin_net))

    def _spread_lines(self) -> None:
        """Copy the allocated lines onto the runs and pins that asked."""
        got = np.empty(len(self.order), dtype=np.int64)
        got[self.order] = self.lines
        routed, singles, spurs, drops, _ = np.split(
            got, np.cumsum(self.part_sizes)[:-1]
        )
        self.run_line = np.concatenate((
            routed, singles,
            np.array([run[2] for run in self.new_runs], dtype=np.int64),
        ))
        self.pin_ys[self.spur_pins] = spurs
        self.pin_xd[self.drop_pins] = drops

    def _stubs_before(self, i: int) -> int:
        """How many pins' stubs precede sorted request ``i``: a pin's
        stub is chosen right after its spur is allocated."""
        part = int(np.searchsorted(
            np.cumsum(self.part_sizes), self.order[i], side="right"
        ))
        at = self.order[i] - sum(self.part_sizes[:part])
        if part == 0:  # a backbone: the net's pins all follow it
            return int(self.net_first[self.run_net[at]])
        if part == 1:  # a single-node run, before its pin's spur
            return int(self.single_pin[at])
        if part == 2:
            return int(self.spur_pins[at])
        if part == 3:
            return int(self.drop_pins[at]) + 1
        return self.joined_pins

    def _join_net(self, n: int) -> None:
        """Allocate the pin lines of join net ``n`` pin by pin, first
        L-connecting each pin node the route does not cover to the
        nearest covered node."""
        p, half, via1 = self.p, HALF, self.layers["via1"]
        lines, request_at, new_runs = self.lines, self.request_at, self.new_runs
        covers, join_rows = self.covers, self.join_rows
        planned = self.planned_runs
        hcover: dict[tuple[int, int], int] = {}
        vcover: dict[tuple[int, int], int] = {}
        for cover, (cell_net, major, minor, run), vertical in (
            (hcover, self.h_cells, False), (vcover, self.v_cells, True),
        ):
            lo, hi = np.searchsorted(cell_net, (n, n + 1))
            offset = self.met1_runs if vertical else 0
            if vertical:
                nodes = zip(major[lo:hi].tolist(), minor[lo:hi].tolist())
            else:
                nodes = zip(minor[lo:hi].tolist(), major[lo:hi].tolist())
            for node, r in zip(nodes, (run[lo:hi] + offset).tolist()):
                cover[node] = r

        def line(run: int) -> int:
            if run < planned:
                return lines[request_at[run]]
            return new_runs[run - planned][2]

        def new_run(vertical: bool, at: int, lo: int, hi: int) -> int:
            new_runs.append((vertical, n, at, lo, hi))
            return planned + len(new_runs) - 1

        def alloc(key: int, preferred: int) -> int:
            return self.band(key).alloc(preferred)

        def rect(layer: int, x0: int, y0: int, x1: int, y1: int) -> None:
            """A join shape of the pin being connected (``pin`` below)."""
            join_rows.append((layer, x0, y0, x1, y1, n, pin, len(join_rows)))

        def cut(x: int, y: int) -> None:
            rect(via1, x - half, y - half, x + half, y + half)

        def link(a: int, b: int) -> None:
            """A cut where runs ``a`` (met2) and ``b`` (met1) cross."""
            cut(line(a), line(b))
            covers.append((a, line(b)))
            covers.append((b, line(a)))

        def bridge_h(h_a: int, h_b: int, col: int) -> None:
            """Join two met1 backbones with a met2 jumper in ``col``."""
            xb = alloc(2 * col + 1, col * p)
            lo, hi = sorted((line(h_a), line(h_b)))
            rect(self.layers["met2"], xb - half, lo - half, xb + half,
                 hi + half)
            cut(xb, line(h_a))
            cut(xb, line(h_b))
            covers.append((h_a, xb))
            covers.append((h_b, xb))

        def join(c: int, r: int, c2: int, r2: int) -> None:
            """Connect uncovered node (c, r) to covered node (c2, r2)."""
            leg = new_run(False, alloc(2 * r, r * p),
                          min(c, c2) * p, max(c, c2) * p)
            for col in range(min(c, c2), max(c, c2) + 1):
                hcover.setdefault((col, r), leg)
            if r != r2:
                vleg = new_run(True, alloc(2 * c2 + 1, c2 * p),
                               min(r, r2) * p, max(r, r2) * p)
                for row in range(min(r, r2), max(r, r2) + 1):
                    vcover.setdefault((c2, row), vleg)
                link(vleg, leg)
                target_h = hcover.get((c2, r2))
                if target_h is not None:
                    link(vleg, target_h)
                else:
                    target_v = vcover[(c2, r2)]
                    if target_v != vleg:
                        yb = alloc(2 * r2, r2 * p)
                        lo, hi = sorted((line(vleg), line(target_v)))
                        new_run(False, yb, lo, hi)
                        cut(line(vleg), yb)
                        cut(line(target_v), yb)
                        covers.append((vleg, yb))
                        covers.append((target_v, yb))
            else:
                target_v = vcover.get((c2, r2))
                if target_v is not None:
                    link(target_v, leg)
                else:
                    target_h = hcover[(c2, r2)]
                    if target_h != leg:
                        bridge_h(leg, target_h, c2)

        first = int(self.net_first[n])
        end = first + int(self.net_pins[n])
        self.joined_pins = first
        for pin, c, r, x, y in zip(
            range(first, end), self.pin_col[first:end].tolist(),
            self.pin_row[first:end].tolist(), self.px[first:end].tolist(),
            self.py[first:end].tolist(),
        ):
            node = (c, r)
            if node not in hcover and node not in vcover:
                if not hcover and not vcover:
                    hcover[node] = new_run(False, alloc(2 * r, r * p),
                                           c * p, c * p)
                else:
                    _, c2, r2 = min(
                        (abs(cc - c) + abs(rr - r), cc, rr)
                        for cc, rr in set(hcover) | set(vcover)
                    )
                    join(c, r, c2, r2)
            ys = self.pin_ys[pin] = alloc(2 * r, y)
            self.joined_pins = pin + 1
            v = vcover.get(node)
            if v is not None:
                self.pin_v[pin] = v
                covers.append((v, ys))
            else:
                h = self.pin_h[pin] = hcover[node]
                self.pin_v[pin] = -1
                xd = self.pin_xd[pin] = alloc(2 * c + 1, x)
                covers.append((h, xd))

    # -- li stubs ------------------------------------------------------------

    def stubs(self, limit: int) -> None:
        """Choose the li stubs of the first ``limit`` pins in order.

        Each stub goes to the first of the pin's lattice x, one line
        right and one line left that touches no li shape of another
        net: every pad, and every stub chosen before it.  All three
        candidates lie in the pin's *envelope*.  A pin whose envelope
        touches no pad and no envelope of another net takes its lattice
        x; only the others are placed one by one, in order, against the
        pads and stubs their envelopes touch.  That is exact: a stub
        can only touch a candidate of another net if their envelopes
        touch, which would put both pins among the others.
        """
        x, y = self.px, self.py
        net = self.pin_net
        ys = self.pin_ys[:limit]
        want = (x[:limit] + Q // 2) // Q * Q
        lo = np.minimum(y[:limit], ys) - HALF
        hi = np.maximum(y[:limit], ys) + HALF
        self.x_stub = np.zeros(len(x), dtype=np.int64)
        self.x_stub[:limit] = want
        # Envelopes 0..limit-1, then every pad.
        x0 = np.concatenate((want - Q - HALF, x - PAD_HALF))
        x1 = np.concatenate((want + Q + HALF, x + PAD_HALF))
        y0 = np.concatenate((lo, y - PAD_HALF))
        y1 = np.concatenate((hi, y + PAD_HALF))
        owner = np.concatenate((net[:limit], net))
        size = _LiIndex.BUCKET
        a, b = shared_bin_pairs(x0 // size, y0 // size, x1 // size,
                                y1 // size)
        touch = (
            ((a < limit) | (b < limit))
            & (owner[a] != owner[b])
            & (x0[a] <= x1[b]) & (x0[b] <= x1[a])
            & (y0[a] <= y1[b]) & (y0[b] <= y1[a])
        )
        shapes = np.unique(np.concatenate((a[touch], b[touch])))
        pads = shapes[shapes >= limit]
        index = _LiIndex()
        for pad in zip(x0[pads].tolist(), y0[pads].tolist(),
                       x1[pads].tolist(), y1[pads].tolist(),
                       owner[pads].tolist()):
            index.add(*pad)
        crowded = shapes[shapes < limit]
        for pin, px, py, low, high, n in zip(
            crowded.tolist(), x[crowded].tolist(), y[crowded].tolist(),
            lo[crowded].tolist(), hi[crowded].tolist(),
            net[crowded].tolist(),
        ):
            cand = (px + Q // 2) // Q * Q
            for cand in (cand, cand + Q, cand - Q):
                if not index.conflict(cand - HALF, low, cand + HALF, high, n):
                    break
            else:
                raise FabricError(
                    f"no shorts-free li stub position for net {n} "
                    f"pin at ({px}, {py}) nm"
                )
            index.add(cand - HALF, low, cand + HALF, high, n)
            self.x_stub[pin] = cand

    # -- drawing -------------------------------------------------------------

    def rows(self) -> np.ndarray:
        """Every fabric rectangle, in the per-net emission order.

        IO pads come first.  Then, per net: the layer-transition cuts in
        (col, row) order; per pin its join shapes, li stub, lic cut, and
        either the via onto its met2 backbone or via, met2 drop and via
        onto its met1 backbone, then its met1 spur; the met1 runs; the
        met2 runs.  A run spans everything that lands on it.
        """
        half, layers = HALF, self.layers
        # The runs join nets created: vertical, net, line, lo, hi.
        new = np.array(self.new_runs, dtype=np.int64).reshape(-1, 5)
        vertical = np.concatenate((self.run_vertical, new[:, 0] != 0))
        run_net = np.concatenate((self.run_net, new[:, 1]))
        line = self.run_line
        lo = np.concatenate((self.run_lo, new[:, 3]))
        hi = np.concatenate((self.run_hi, new[:, 4]))

        ys, pin_v, pin_h = self.pin_ys, self.pin_v, self.pin_h
        on_v = pin_v >= 0
        drop = ~on_v
        xe = np.where(on_v, line[pin_v], self.pin_xd)
        h_line = line[pin_h[drop]]

        # Run extents: everything that lands on a run widens it.
        plain = np.zeros(len(ys), dtype=bool)
        plain[self.spur_pins] = True
        joined = np.array(self.covers, dtype=np.int64).reshape(-1, 2)
        landing = np.concatenate((
            self.cut_h, self.cut_v, pin_v[plain & on_v],
            pin_h[plain & drop], joined[:, 0],
        ))
        value = np.concatenate((
            line[self.cut_v], line[self.cut_h], ys[plain & on_v],
            self.pin_xd[plain & drop], joined[:, 1],
        ))
        np.minimum.at(lo, landing, value)
        np.maximum.at(hi, landing, value)

        x_stub, py = self.x_stub, self.py
        xd, ys_d = xe[drop], ys[drop]
        pins = np.arange(len(ys))
        drop_pins = pins[drop]
        of_pin, of_drop = self.pin_of_net, self.pin_of_net[drop]
        runs = np.arange(len(line))
        h, v = runs[~vertical], runs[vertical]
        joins = np.array(self.join_rows, dtype=np.int64).reshape(-1, 8)
        n_io = len(self.io_px)
        # Per table: its (net, section, pin or run, slot) sort key, its
        # length and how to build it.
        tables = [
            ((-1, 0, np.arange(n_io), 0), n_io,
             lambda: _rows(layers["li"], self.io_px - PAD_HALF,
                           self.io_py - PAD_HALF, self.io_px + PAD_HALF,
                           self.io_py + PAD_HALF)),
            ((run_net[self.cut_h], _CUTS, np.arange(len(self.cut_h)), 0),
             len(self.cut_h),
             lambda: _rows(layers["via1"], line[self.cut_v] - half,
                           line[self.cut_h] - half, line[self.cut_v] + half,
                           line[self.cut_h] + half)),
            ((joins[:, 5], _PINS, joins[:, 6], joins[:, 7]), len(joins),
             lambda: _rows(*joins[:, :5].T)),
            ((of_pin, _PINS, pins, _STUB_SLOT), len(pins),
             lambda: _rows(layers["li"], x_stub - half,
                           np.minimum(py, ys) - half, x_stub + half,
                           np.maximum(py, ys) + half)),
            ((of_pin, _PINS, pins, _STUB_SLOT + 1), len(pins),
             lambda: _rows(layers["lic"], x_stub - half, ys - half,
                           x_stub + half, ys + half)),
            ((of_pin, _PINS, pins, _STUB_SLOT + 2), len(pins),
             lambda: _rows(layers["via1"], xe - half, ys - half, xe + half,
                           ys + half)),
            ((of_drop, _PINS, drop_pins, _STUB_SLOT + 3), len(drop_pins),
             lambda: _rows(layers["met2"], xd - half,
                           np.minimum(ys_d, h_line) - half, xd + half,
                           np.maximum(ys_d, h_line) + half)),
            ((of_drop, _PINS, drop_pins, _STUB_SLOT + 4), len(drop_pins),
             lambda: _rows(layers["via1"], xd - half, h_line - half,
                           xd + half, h_line + half)),
            ((of_pin, _PINS, pins, _STUB_SLOT + 5), len(pins),
             lambda: _rows(layers["met1"], np.minimum(x_stub, xe) - half,
                           ys - half, np.maximum(x_stub, xe) + half,
                           ys + half)),
            ((run_net[h], _MET1, h, 0), len(h),
             lambda: _rows(layers["met1"], lo[h] - half, line[h] - half,
                           hi[h] + half, line[h] + half)),
            ((run_net[v], _MET2, v, 0), len(v),
             lambda: _rows(layers["met2"], line[v] - half, lo[v] - half,
                           line[v] + half, hi[v] + half)),
        ]
        net, section, at, slot = (
            np.concatenate([np.broadcast_to(key[i], size)
                            for key, size, _ in tables])
            for i in range(4)
        )
        order = np.lexsort((slot, at, section, net))
        del net, section, at, slot
        # Each table goes straight to its sorted rows.
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        out = np.empty((len(order), 6), dtype=np.int64)
        start = 0
        for _, size, build in tables:
            if size:
                out[position[start:start + size]] = build()
            start += size
        return out
