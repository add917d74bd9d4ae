"""Global routing: two-layer grid maze router with rip-up and re-route.

The die is overlaid with a coarse routing grid (layer 0 horizontal,
layer 1 vertical, vias between).  Each net is routed with A* from its
driver to each sink in turn, reusing the net's own wires as free sources
(a cheap Steiner approximation).  Grid cells have a track capacity;
overflowed cells charge a growing history cost and overflowing nets are
ripped up and re-routed for a few rounds — the PathFinder recipe in
miniature.

The A* kernel works on flat lists.  :class:`RoutingGrid` numbers every
cell with an integer index that sorts like its ``(col, row, layer)``
tuple, adjacency is built once per router, and each cell's search cost
sits in a table refreshed whenever the cell's usage or history changes.
The kernel reports the cells it expands, so the replay router
(:mod:`repro.inter.replay`) can recover the cells whose cost a search
read without hooking the cost lookup.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..obs.trace import get_tracer
from ..pdk.node import ProcessNode
from ..synth.mapped import MappedNetlist
from .floorplan import Floorplan
from .placement import Placement, net_pin_positions

INF = float("inf")


@dataclass
class RoutedNet:
    net: int
    #: Grid-space path cells: (col, row, layer).
    cells: list[tuple[int, int, int]] = field(default_factory=list)
    #: Grid columns/rows that contain this net's pins.  Pin access uses
    #: local-interconnect stubs, so these cells do not consume routing
    #: track capacity for this net.
    pin_cells: frozenset[tuple[int, int]] = frozenset()
    wirelength_um: float = 0.0
    vias: int = 0


@dataclass
class RoutingResult:
    nets: dict[int, RoutedNet]
    grid_pitch_um: float
    overflow: int
    iterations: int
    failed_nets: list[int] = field(default_factory=list)

    @property
    def total_wirelength_um(self) -> float:
        return sum(n.wirelength_um for n in self.nets.values())

    @property
    def total_vias(self) -> int:
        return sum(n.vias for n in self.nets.values())

    def wire_lengths(self) -> dict[int, float]:
        """Per-net routed length in um — the parasitics input for STA."""
        return {net: rn.wirelength_um for net, rn in self.nets.items()}

    def stats(self) -> dict[str, float]:
        return {
            "nets": len(self.nets),
            "wirelength_um": round(self.total_wirelength_um, 3),
            "vias": self.total_vias,
            "overflow": self.overflow,
            "iterations": self.iterations,
            "failed": len(self.failed_nets),
        }


Cell = tuple[int, int, int]


@dataclass(frozen=True)
class RoutingGrid:
    """The routing grid over one die: pitch, extent, snapping, cell indices.

    Cell ``(col, row, layer)`` has the flat index
    ``(col * rows + row) * 2 + layer``, which sorts exactly like the
    tuple, so a search keyed on indices breaks ties as one keyed on
    tuples would.
    """

    pitch: float
    cols: int
    rows: int

    @classmethod
    def over(cls, floorplan: Floorplan, pitch: float) -> "RoutingGrid":
        return cls(
            pitch,
            max(2, int(floorplan.die_width / pitch) + 1),
            max(2, int(floorplan.die_height / pitch) + 1),
        )

    @property
    def size(self) -> int:
        """Number of cells over both layers."""
        return self.cols * self.rows * 2

    def snap(self, x: float, y: float) -> tuple[int, int]:
        col = min(self.cols - 1, max(0, int(round(x / self.pitch))))
        row = min(self.rows - 1, max(0, int(round(y / self.pitch))))
        return col, row

    def index(self, cell: Cell) -> int:
        col, row, layer = cell
        return (col * self.rows + row) * 2 + layer

    def cell(self, index: int) -> Cell:
        node, layer = divmod(index, 2)
        col, row = divmod(node, self.rows)
        return col, row, layer


def _adjacency(grid: RoutingGrid) -> list[tuple[tuple[int, float, int, int], ...]]:
    """Per cell index: ``(neighbour, edge weight, its col, its row)``.

    Layer 0 steps horizontally, layer 1 vertically; a via to the other
    layer costs half a step.
    """
    index = grid.index
    adjacency = []
    for i in range(grid.size):
        col, row, layer = grid.cell(i)
        steps = []
        if layer == 0:  # horizontal layer
            if col > 0:
                steps.append(((col - 1, row, 0), 1.0))
            if col < grid.cols - 1:
                steps.append(((col + 1, row, 0), 1.0))
        else:  # vertical layer
            if row > 0:
                steps.append(((col, row - 1, 1), 1.0))
            if row < grid.rows - 1:
                steps.append(((col, row + 1, 1), 1.0))
        steps.append(((col, row, 1 - layer), 0.5))  # via
        adjacency.append(tuple(
            (index(cell), edge, cell[0], cell[1]) for cell, edge in steps
        ))
    return adjacency


class GridRouter:
    """Two-layer A* maze router over one placement.

    Per-cell state lives in flat lists indexed by :meth:`RoutingGrid.index`:
    ``usage``, ``history`` and ``cost``, the cell's search cost, which
    :meth:`_refresh_cost` recomputes whenever usage or history changes.
    """

    def __init__(
        self,
        mapped: MappedNetlist,
        placement: Placement,
        node: ProcessNode,
        pitch_um: float | None = None,
        capacity: int = 4,
        tracer=None,
    ):
        self.mapped = mapped
        self.placement = placement
        self.node = node
        self.tracer = tracer if tracer is not None else get_tracer()
        self.grid = grid = RoutingGrid.over(
            placement.floorplan, pitch_um or default_pitch(node)
        )
        self.capacity = capacity
        self.usage = [0] * grid.size
        self.history = [0.0] * grid.size
        self.cost = [1.0] * grid.size
        self._cells = [grid.cell(i) for i in range(grid.size)]
        self._adjacent = _adjacency(grid)
        # Pin positions per net, resolved once against the placement; the
        # netlist connectivity behind them is memoized on MappedNetlist,
        # so this costs one template resolution, not an index rebuild.
        xy = {name: (c.cx, c.cy) for name, c in placement.cells.items()}
        self.pins_by_net = net_pin_positions(mapped, xy, placement.floorplan)

    # -- helpers ---------------------------------------------------------------

    def _refresh_cost(self, index: int) -> None:
        """Recompute one cell's search cost from its usage and history."""
        used = self.usage[index]
        congestion = 0.0
        if used >= self.capacity:
            congestion = 4.0 * (used - self.capacity + 1)
        self.cost[index] = 1.0 + congestion + self.history[index]

    def _astar(
        self,
        sources: set[int],
        target: tuple[int, int],
        expanded: list[int],
    ) -> list[int] | None:
        """Cheapest path from any source cell to the target column/row.

        Appends every cell it expands to ``expanded``: the neighbours of
        those cells are exactly the cells whose cost the search read.
        """
        tcol, trow = target
        goal = tcol * self.grid.rows + trow
        cells = self._cells
        adjacent = self._adjacent
        cost = self.cost
        best = [INF] * len(cost)
        parent = [-1] * len(cost)
        open_heap: list[tuple[float, float, int]] = []
        for source in sources:
            best[source] = 0.0
            col, row, _ = cells[source]
            open_heap.append((abs(col - tcol) + abs(row - trow), 0.0, source))
        heapq.heapify(open_heap)
        heappop, heappush = heapq.heappop, heapq.heappush

        while open_heap:
            _, g, index = heappop(open_heap)
            if g > best[index]:
                continue
            if index >> 1 == goal:
                path = [index]
                while parent[index] >= 0:
                    index = parent[index]
                    path.append(index)
                path.reverse()
                return path
            expanded.append(index)
            for neighbor, edge, col, row in adjacent[index]:
                new_cost = g + edge * cost[neighbor]
                if new_cost < best[neighbor]:
                    best[neighbor] = new_cost
                    parent[neighbor] = index
                    heappush(
                        open_heap,
                        (new_cost + (abs(col - tcol) + abs(row - trow)),
                         new_cost, neighbor),
                    )
        return None

    # -- routing -------------------------------------------------------------

    def _route_net(
        self, pins: list[tuple[float, float]], expanded: list[int]
    ) -> RoutedNet | None:
        grid = self.grid
        start = grid.snap(*pins[0])
        pin_cells = frozenset(grid.snap(*pin) for pin in pins)
        first = grid.index((start[0], start[1], 0))
        tree: set[int] = {first, first + 1}
        path_cells: set[int] = set()
        for pin in pins[1:]:
            target = grid.snap(*pin)
            layer0 = grid.index((target[0], target[1], 0))
            if layer0 in tree or layer0 + 1 in tree:
                continue
            path = self._astar(tree, target, expanded)
            if path is None:
                return None
            path_cells.update(path)
            tree.update(path)
        # Fresh tuples per net, not the shared ``_cells`` table: a pickled
        # result then carries no cross-net object references.
        cells = {grid.cell(index) for index in path_cells}
        routed = RoutedNet(net=-1, cells=sorted(cells), pin_cells=pin_cells)
        steps = 0
        vias = 0
        for cell in cells:
            # Count wire steps by adjacency within the path set.
            col, row, layer = cell
            if layer == 0 and (col + 1, row, 0) in cells:
                steps += 1
            if layer == 1 and (col, row + 1, 1) in cells:
                steps += 1
            if layer == 0 and (col, row, 1) in cells:
                vias += 1
        routed.wirelength_um = steps * grid.pitch
        routed.vias = vias
        return routed

    def _apply_usage(self, routed: RoutedNet, delta: int) -> None:
        index = self.grid.index
        for cell in routed.cells:
            if (cell[0], cell[1]) in routed.pin_cells:
                continue
            i = index(cell)
            self.usage[i] += delta
            self._refresh_cost(i)

    def _congested(self) -> set[Cell]:
        return {
            self._cells[i]
            for i, used in enumerate(self.usage)
            if used > self.capacity
        }

    def _bump_history(self, congested: set[Cell]) -> None:
        """Charge one rip-up round's congestion history to its cells."""
        index = self.grid.index
        for cell in congested:
            i = index(cell)
            self.history[i] += 2.0
            self._refresh_cost(i)

    def _overflow(self) -> int:
        return sum(
            used - self.capacity
            for used in self.usage
            if used > self.capacity
        )

    def route(self, max_iterations: int = 3, rip_up: bool = True) -> RoutingResult:
        multi = {
            net: pins
            for net, pins in self.pins_by_net.items()
            if len(pins) >= 2
        }

        routed: dict[int, RoutedNet] = {}
        failed: list[int] = []
        with self.tracer.span("route.initial") as sp:
            for net, pins in sorted(multi.items()):
                result = self._route_net(pins, [])
                if result is None:
                    failed.append(net)
                    continue
                result.net = net
                routed[net] = result
                self._apply_usage(result, +1)
            if self.tracer.enabled:
                sp.set(nets=len(routed), failed=len(failed),
                       overflow=self._overflow())

        iterations = 1
        if rip_up:
            for _ in range(max_iterations - 1):
                if self._overflow() == 0:
                    break
                with self.tracer.span("route.rip_up") as sp:
                    congested = self._congested()
                    self._bump_history(congested)
                    victims = [
                        net
                        for net, rn in routed.items()
                        if any(cell in congested for cell in rn.cells)
                    ]
                    for net in victims:
                        self._apply_usage(routed[net], -1)
                        result = self._route_net(multi[net], [])
                        if result is None:
                            failed.append(net)
                            del routed[net]
                            continue
                        result.net = net
                        routed[net] = result
                        self._apply_usage(result, +1)
                    iterations += 1
                    if self.tracer.enabled:
                        sp.set(iteration=iterations, victims=len(victims),
                               overflow=self._overflow())

        return RoutingResult(
            nets=routed,
            grid_pitch_um=self.grid.pitch,
            overflow=self._overflow(),
            iterations=iterations,
            failed_nets=failed,
        )


def route(
    mapped: MappedNetlist,
    placement: Placement,
    node: ProcessNode,
    rip_up: bool = True,
    max_iterations: int = 3,
    capacity: int = 4,
    tracer=None,
) -> RoutingResult:
    """Route all nets of ``mapped`` over ``placement``."""
    router = GridRouter(mapped, placement, node, capacity=capacity,
                        tracer=tracer)
    return router.route(max_iterations=max_iterations, rip_up=rip_up)


def default_pitch(node: ProcessNode) -> float:
    """Default routing grid pitch: three placement rows per grid cell."""
    return max(3.0 * node.row_height_um, 1e-3)


def drc_clean_capacity(node: ProcessNode, layers,
                       pitch_um: float | None = None) -> int:
    """Track capacity per grid cell that fits width+spacing rules.

    The GDS exporter draws each net in a grid cell on its own track at
    ``pitch / capacity`` spacing; capping capacity at what the metal rules
    allow makes the exported layout DRC-clean by construction.
    """
    pitch = pitch_um or default_pitch(node)
    tracks = []
    for name in ("met1", "met2"):
        layer = layers.by_name(name)
        tracks.append(
            int(pitch // (layer.min_width_um + layer.min_spacing_um))
        )
    return max(1, min(tracks))


def grid_capacity(node: ProcessNode, layers, pitch_um: float | None = None) -> int:
    """Routing capacity per grid cell, aggregated over the metal stack.

    The router models two logical layers (horizontal/vertical); a real
    stack alternates directions over ``metal_layers`` metals, so the
    capacity of a logical layer is the summed track count of all metals
    routing in that direction at this node.
    """
    pitch = pitch_um or default_pitch(node)
    per_layer = []
    for i in range(node.metal_layers):
        layer = layers.by_name(f"met{i + 1}")
        per_layer.append(
            int(pitch // (layer.min_width_um + layer.min_spacing_um))
        )
    horizontal = sum(per_layer[0::2])
    vertical = sum(per_layer[1::2])
    return max(1, min(horizontal, vertical))
