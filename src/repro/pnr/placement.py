"""Placement: the placement core, the flat placers and the swap pass.

The classic academic recipe:

1. **Global**: minimize quadratic wirelength (:func:`quadratic_positions`).
   Every net becomes a clique (small nets) or a star with an auxiliary
   node (large nets); fixed points (IO pins, region anchors) anchor the
   system.  The resulting sparse linear system is solved with
   :mod:`scipy.sparse`.
2. **Legalization** (:func:`legalize_rows`): the cells are dealt over
   the rows by cumulative width in y order, then packed Abacus-style
   within each row, so every cell stays inside its row segment however
   tightly the global solve clumps them.
3. **Detailed placement** (optional, the "commercial" preset): greedy
   equal-width cell swaps that reduce half-perimeter wirelength (HPWL).

The solver, the legalizer, the cell width (:func:`cell_width`, which the
layout's cell masters use too) and the finishing step
(:func:`finish_placement`) are the one placement core.  The flat placers
here and the region placer :func:`repro.pnr.hier.hier_place` differ only
in what they feed it: net and member order, the anchor centre and the
legalization blocks.  Those inputs also fix the float summation order,
so reordering one moves placements, not just the work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from ..obs.trace import get_tracer
from ..pdk.cells import StandardCell
from ..synth.mapped import CellInst, MappedNetlist
from .floorplan import Floorplan, Row

#: Nets with more pins than this use a star model instead of a clique.
CLIQUE_LIMIT = 8

#: Float rounding allowed at a row segment's ends, in um: a millionth of
#: the 1 nm layout grid.
CONTAIN_TOL_UM = 1e-9


class PlacementError(ValueError):
    """Cells that do not fit their rows, or a placed cell off its row."""


@dataclass
class PlacedCell:
    name: str
    x: float  # lower-left corner
    y: float
    width: float
    height: float

    @property
    def cx(self) -> float:
        return self.x + self.width / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.height / 2.0


@dataclass
class Placement:
    """Cell positions plus the wirelength metric."""

    cells: dict[str, PlacedCell]
    floorplan: Floorplan
    hpwl_um: float

    def position(self, name: str) -> tuple[float, float]:
        cell = self.cells[name]
        return (cell.cx, cell.cy)

    def stats(self) -> dict[str, float]:
        return {"hpwl_um": self.hpwl_um}


def net_pin_templates(
    mapped: MappedNetlist, floorplan: Floorplan
) -> dict[int, list]:
    """Per-net pin template, driver first.

    Each entry is either a cell name (``str`` — the pin tracks that cell's
    centre) or a fixed ``(x, y)`` tuple (IO pins on the die boundary).
    :func:`net_pin_positions` resolves templates against one position map;
    :class:`IncrementalHpwl` re-resolves only the nets a move touches.
    """
    io_position = floorplan.pin_positions()
    templates: dict[int, list] = {}

    driver = mapped.net_driver()
    loads = mapped.net_loads()
    nets = set(driver) | set(loads) | set(io_position)
    for net in nets:
        entries: list = []
        if net in driver:
            entries.append(driver[net].name)
        elif net in io_position:
            entries.append(io_position[net])
        for sink, _pin in loads.get(net, ()):
            entries.append(sink.name)
        if net in io_position and net in driver:
            entries.append(io_position[net])
        templates[net] = entries
    return templates


def net_pin_positions(
    mapped: MappedNetlist,
    cell_xy: dict[str, tuple[float, float]],
    floorplan: Floorplan,
) -> dict[int, list[tuple[float, float]]]:
    """Pin positions per net, driver first.

    Cell pins are approximated at the cell centre (abstract cells have no
    internal pin geometry); IO pins sit at their boundary positions.
    """
    return {
        net: [
            cell_xy[entry] if isinstance(entry, str) else entry
            for entry in entries
        ]
        for net, entries in net_pin_templates(mapped, floorplan).items()
    }


def hpwl(pins_by_net: dict[int, list[tuple[float, float]]]) -> float:
    """Total half-perimeter wirelength over all multi-pin nets."""
    total = 0.0
    for pins in pins_by_net.values():
        if len(pins) < 2:
            continue
        xs = [p[0] for p in pins]
        ys = [p[1] for p in pins]
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def cell_width(cell: StandardCell, row_height: float) -> float:
    """Placed width of ``cell`` in um: its area over the row height,
    rounded to whole placement sites of a tenth of a row height."""
    site = max(row_height / 10.0, 1e-3)
    width = cell.area_um2 / row_height
    return max(site, round(width / site) * site)


def quadratic_positions(
    cells: list[CellInst],
    nets: list[list],
    center: tuple[float, float],
) -> dict[str, tuple[float, float]]:
    """Solve the quadratic placement for the centres of ``cells``.

    Each net is a list of members: an ``int`` indexes ``cells``, an
    ``(x, y)`` tuple is a fixed point.  Nets with fewer than two members
    are dropped; of the rest, those with more than :data:`CLIQUE_LIMIT`
    members get one star node each, numbered in net order after the
    cells.  A weak pull to ``center`` keeps isolated cells well-defined.
    Net and member order set the float summation order, so a caller that
    keeps its order keeps its positions bit for bit.
    """
    live = [members for members in nets if len(members) >= 2]
    n_cells = len(cells)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    n_star = sum(1 for m in live if len(m) > CLIQUE_LIMIT)
    size = n_cells + n_star
    bx = np.zeros(size)
    by = np.zeros(size)

    def add_diag(i: int, w: float) -> None:
        rows.append(i)
        cols.append(i)
        vals.append(w)

    def add_edge(u, v, w: float) -> None:
        if not isinstance(u, int):
            u, v = v, u  # a cell end first
            if not isinstance(u, int):
                return  # two fixed points
        add_diag(u, w)
        if isinstance(v, int):
            add_diag(v, w)
            rows.extend((u, v))
            cols.extend((v, u))
            vals.extend((-w, -w))
        else:
            bx[u] += w * v[0]
            by[u] += w * v[1]

    star_cursor = n_cells
    for members in live:
        p = len(members)
        if p <= CLIQUE_LIMIT:
            w = 2.0 / (p * (p - 1))
            for i in range(p):
                for j in range(i + 1, p):
                    add_edge(members[i], members[j], w)
        else:
            star = star_cursor
            star_cursor += 1
            w = 1.0 / p
            for member in members:
                add_edge(star, member, w)

    for i in range(size):
        add_diag(i, 1e-6)
        bx[i] += 1e-6 * center[0]
        by[i] += 1e-6 * center[1]

    laplacian = coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    xs = spsolve(laplacian, bx)
    ys = spsolve(laplacian, by)
    return {
        inst.name: (float(xs[i]), float(ys[i]))
        for i, inst in enumerate(cells)
    }


def legalize_rows(
    cells: list[CellInst],
    desired: dict[str, tuple[float, float]],
    rows: list[Row],
    x0: float,
    x1: float,
) -> dict[str, PlacedCell]:
    """Contained legalization of ``cells`` into the block of ``rows`` (in
    index order) between ``x0`` and ``x1``; ``desired`` holds centres.

    Each row's free segment is ``[x0, x1]``.  Two steps:

    1. **Deal.**  Cells in desired-y order (then desired x, then name,
       so the caller's list order never matters) go to the rows by
       cumulative width: each row takes its share of the cells' total
       width, in proportion to its free width and never more than its
       free width, so whitespace spreads over the whole block instead
       of queueing behind a clump.
    2. **Pack.**  Each row's cells, in desired-x order, are packed
       Abacus-style: a cell wants its desired x, overlapping cells merge
       into a cluster that sits at its members' mean wanted offset, and
       every cluster is clamped into the row's free segment.

    No cell leaves its row's free segment (to within float rounding,
    :data:`CONTAIN_TOL_UM`).  Raises :class:`PlacementError`, naming the
    block and the widths, if the cells do not fit.
    """
    row_height = rows[0].height
    widths = {inst.name: cell_width(inst.cell, row_height) for inst in cells}
    free = [max(0.0, x1 - x0)] * len(rows)
    total_free = sum(free)
    # Exactly rounded, so the caller's list order cannot move the
    # deal's quota bounds by an ulp.
    total = math.fsum(widths.values())

    def overfull(what: str) -> PlacementError:
        return PlacementError(
            f"rows {rows[0].index}..{rows[-1].index} between x {x0:.3f} "
            f"and {x1:.3f} um: {len(cells)} cells {total:.3f} um wide "
            f"{what} {total_free:.3f} um of free row width"
        )

    if total > total_free + CONTAIN_TOL_UM:
        raise overfull("exceed the")

    # Deal: row r takes the cells whose cumulative-width midpoint falls
    # under its cumulative quota, unless the cell would overfill it.
    last = len(rows) - 1
    dealt: list[list[str]] = [[] for _ in rows]
    load = [0.0] * len(rows)
    scale = total / total_free if total_free > 0.0 else 0.0
    bound = free[0] * scale
    r = 0
    before = 0.0
    order = sorted(
        cells,
        key=lambda i: (desired[i.name][1], desired[i.name][0], i.name),
    )
    for inst in order:
        width = widths[inst.name]
        middle = before + width / 2.0
        before += width
        while r < last and (
            middle > bound
            or load[r] + width > free[r] + CONTAIN_TOL_UM
        ):
            r += 1
            bound += free[r] * scale
        target = r
        if load[r] + width > free[r] + CONTAIN_TOL_UM:
            # The last rows are full: the emptiest row that still fits.
            target = max(range(len(rows)), key=lambda k: free[k] - load[k])
            if load[target] + width > free[target] + CONTAIN_TOL_UM:
                raise overfull("do not pack into the")
        dealt[target].append(inst.name)
        load[target] += width

    placed: dict[str, PlacedCell] = {}
    for row, names in zip(rows, dealt):
        if not names:
            continue
        names.sort(key=lambda n: desired[n][0])  # stable: ties in deal order
        # Abacus clusters: (x, members, sum over members of wanted x
        # less offset in the cluster, width, index of the first name).
        # The sum over members is what puts a cluster at its mean.
        clusters: list[tuple[float, int, float, float, int]] = []
        for i, name in enumerate(names):
            width = widths[name]
            members, span, first = 1, width, i
            wanted = desired[name][0] - width / 2.0
            while True:
                x = min(wanted / members, x1 - span)
                if x < x0:
                    x = x0
                if not clusters or clusters[-1][0] + clusters[-1][3] <= x:
                    break
                # Merge into the cluster on the left, which now sits
                # ``left_span`` before each of this cluster's members.
                _, left_members, left_wanted, left_span, first = (
                    clusters.pop()
                )
                wanted = left_wanted + wanted - members * left_span
                members += left_members
                span += left_span
            clusters.append((x, members, wanted, span, first))
        for x, members, _, _, first in clusters:
            for name in names[first:first + members]:
                width = widths[name]
                placed[name] = PlacedCell(name, x, row.y, width, row.height)
                x += width
    return placed


def finish_placement(
    mapped: MappedNetlist,
    floorplan: Floorplan,
    placed: dict[str, PlacedCell],
) -> Placement:
    """Every placer's last step: the containment check, the HPWL of the
    legal cells, then the :class:`Placement`.

    Raises :class:`PlacementError` naming the first cell that is not on
    a core row or reaches past its row's ``[x0, x1]`` by more than
    :data:`CONTAIN_TOL_UM`.
    """
    row_at = {row.y: row for row in floorplan.rows}
    outside = [
        cell for cell in placed.values()
        if (row := row_at.get(cell.y)) is None
        or cell.x < row.x0 - CONTAIN_TOL_UM
        or cell.x + cell.width > row.x1 + CONTAIN_TOL_UM
    ]
    if outside:
        cell, rows = outside[0], floorplan.rows
        raise PlacementError(
            f"cell {cell.name!r} at x {cell.x:.3f}.."
            f"{cell.x + cell.width:.3f} um, y {cell.y:.3f} um is outside "
            f"the core rows (x {rows[0].x0:.3f}..{rows[0].x1:.3f} um, "
            f"y {rows[0].y:.3f}..{rows[-1].y + rows[-1].height:.3f} um); "
            f"cells outside: {len(outside)}"
        )
    xy = {n: (c.cx, c.cy) for n, c in placed.items()}
    total = hpwl(net_pin_positions(mapped, xy, floorplan))
    return Placement(placed, floorplan, round(total, 3))


def _legalize_flat(
    mapped: MappedNetlist,
    floorplan: Floorplan,
    desired: dict[str, tuple[float, float]],
) -> dict[str, PlacedCell]:
    """The flat placers' legalization: every row of the core is one
    block (:func:`~repro.pnr.floorplan.make_floorplan` gives all rows
    the same ``x0``/``x1``)."""
    rows = floorplan.rows
    return legalize_rows(mapped.cells, desired, rows, rows[0].x0, rows[0].x1)


class IncrementalHpwl:
    """Per-net bounding-box HPWL cache with O(nets touched) updates.

    The classic detailed-placement bookkeeping: net pin templates are
    resolved once, each net's half-perimeter cost is cached, and a
    cell→nets incidence index maps a candidate move to the only nets
    whose cost can change.  A candidate swap recomputes just those nets'
    costs — O(pins on the affected nets) instead of O(all pins) — and is
    either committed (cache refreshed) or reverted.

    Bit-exactness contract: per-net costs use exactly the same float
    operations (and pin order) as :func:`hpwl`, and totals are summed in
    the same net order as :func:`net_pin_positions` builds its dict.  A
    cached cost is always bitwise equal to a fresh recompute at the same
    positions, so :meth:`total`/:meth:`trial_total` reproduce a
    from-scratch ``hpwl(net_pin_positions(...))`` bit for bit — greedy
    accept/reject decisions (including exact ties) match the naive
    implementation float-for-float.
    """

    def __init__(
        self,
        mapped: MappedNetlist,
        cell_xy: dict[str, tuple[float, float]],
        floorplan: Floorplan,
    ):
        self.templates = net_pin_templates(mapped, floorplan)
        self.xy = dict(cell_xy)
        self.cost: dict[int, float] = {}
        self._pending: dict[int, float] = {}
        # Per multi-pin net: unique member cell names plus the bounding
        # box of its fixed IO pins.  max/min are exact and insensitive to
        # order and multiplicity, so deduplication and pre-folding the
        # fixed pins leave every cost bit-identical to hpwl()'s.
        self._members: dict[
            int, tuple[tuple[str, ...], tuple[float, float, float, float] | None]
        ] = {}
        incidence: dict[str, set[int]] = {}
        for net, entries in self.templates.items():
            if len(entries) < 2:
                self.cost[net] = 0.0  # single-pin nets cost 0 under any move
                continue
            names: list[str] = []
            seen: set[str] = set()
            fixed: list[float] | None = None
            for entry in entries:
                if isinstance(entry, str):
                    if entry not in seen:
                        seen.add(entry)
                        names.append(entry)
                else:
                    x, y = entry
                    if fixed is None:
                        fixed = [x, x, y, y]
                    else:
                        if x < fixed[0]:
                            fixed[0] = x
                        elif x > fixed[1]:
                            fixed[1] = x
                        if y < fixed[2]:
                            fixed[2] = y
                        elif y > fixed[3]:
                            fixed[3] = y
            self._members[net] = (
                tuple(names), tuple(fixed) if fixed is not None else None
            )
            self.cost[net] = self._net_cost(net)
            for name in names:
                incidence.setdefault(name, set()).add(net)
        self.cell_nets: dict[str, tuple[int, ...]] = {
            name: tuple(sorted(nets)) for name, nets in incidence.items()
        }

    def _net_cost(self, net: int) -> float:
        members = self._members.get(net)
        if members is None:
            return 0.0
        names, fixed = members
        xy = self.xy
        if fixed is None:
            min_x, min_y = max_x, max_y = xy[names[0]]
        else:
            min_x, max_x, min_y, max_y = fixed
        for name in names:
            x, y = xy[name]
            if x < min_x:
                min_x = x
            elif x > max_x:
                max_x = x
            if y < min_y:
                min_y = y
            elif y > max_y:
                max_y = y
        return (max_x - min_x) + (max_y - min_y)

    def affected(self, a: str, b: str) -> tuple[int, ...]:
        """Nets whose cost can change when cells ``a`` and ``b`` move."""
        nets_a = self.cell_nets.get(a, ())
        nets_b = self.cell_nets.get(b, ())
        if not nets_b:
            return nets_a
        if not nets_a:
            return nets_b
        seen = set(nets_a)
        extra = [n for n in nets_b if n not in seen]
        if not extra:
            return nets_a
        return nets_a + tuple(extra)

    def move(self, name: str, position: tuple[float, float]) -> None:
        """Update one cell's position (cost caches are refreshed on commit)."""
        self.xy[name] = position

    def cached(self, nets: tuple[int, ...]) -> float:
        """Cached cost sum over ``nets``."""
        cost = self.cost
        return sum(cost[n] for n in nets)

    def recompute(self, nets: tuple[int, ...]) -> float:
        """Fresh cost sum over ``nets`` at current positions (kept
        pending until :meth:`commit`)."""
        pending = self._pending
        pending.clear()
        total = 0.0
        for net in nets:
            pending[net] = value = self._net_cost(net)
            total += value
        return total

    def trial_total(self, nets: tuple[int, ...]) -> float:
        """Total HPWL with ``nets`` recomputed at the current positions.

        Only ``nets`` do per-pin work; the rest reuse cached costs.  The
        sum runs over every net in template order so the result is
        bit-identical to the naive full recompute.
        """
        self.recompute(nets)
        return self.pending_total()

    def pending_total(self) -> float:
        """Template-order total mixing pending values over cached ones."""
        pending = self._pending
        total = 0.0
        cost = self.cost
        for net in self.templates:
            value = pending.get(net)
            total += cost[net] if value is None else value
        return total

    def commit(self, nets: tuple[int, ...]) -> None:
        """Adopt the last :meth:`trial_total` values for ``nets``."""
        pending = self._pending
        for net in nets:
            self.cost[net] = pending[net]

    def total(self) -> float:
        """Total HPWL; bit-identical to ``hpwl(net_pin_positions(...))``."""
        return sum(self.cost[net] for net in self.templates)


def _swap_pass(
    mapped: MappedNetlist,
    placed: dict[str, PlacedCell],
    floorplan: Floorplan,
    passes: int,
    seed: int,
    tracer=None,
) -> None:
    """Greedy equal-width swap refinement (in place, incremental cost).

    Each pass is one ``place.swap_pass`` span; spans never touch the RNG
    or the cost arithmetic, so placements stay byte-identical under
    tracing.
    """
    if tracer is None:
        tracer = get_tracer()
    rng = random.Random(seed)
    names = list(placed)
    by_width: dict[float, list[str]] = {}
    for name in names:
        by_width.setdefault(round(placed[name].width, 4), []).append(name)

    state = IncrementalHpwl(
        mapped, {n: (c.cx, c.cy) for n, c in placed.items()}, floorplan
    )
    # Deltas larger than this are decided by sign alone; anything closer
    # to a tie falls back to full template-order sums so accept/reject
    # matches the naive full-recompute comparison float-for-float.
    # Summation noise is bounded by ~n_nets * eps * total, orders of
    # magnitude below this threshold.
    tie_band = 1e-9 * (1.0 + state.total())
    for pass_index in range(passes):
        with tracer.span("place.swap_pass") as pass_span:
            accepted = 0
            for group in by_width.values():
                if len(group) < 2:
                    continue
                for _ in range(len(group)):
                    a, b = rng.sample(group, 2)
                    ca, cb = placed[a], placed[b]
                    nets = state.affected(a, b)
                    old_part = state.cached(nets)
                    ca.x, cb.x = cb.x, ca.x
                    ca.y, cb.y = cb.y, ca.y
                    state.move(a, (ca.cx, ca.cy))
                    state.move(b, (cb.cx, cb.cy))
                    delta = state.recompute(nets) - old_part
                    if delta <= -tie_band:
                        accept = True
                    elif delta >= tie_band:
                        accept = False
                    else:
                        accept = state.pending_total() < state.total()
                    if accept:
                        state.commit(nets)
                        accepted += 1
                    else:  # revert
                        ca.x, cb.x = cb.x, ca.x
                        ca.y, cb.y = cb.y, ca.y
                        state.move(a, (ca.cx, ca.cy))
                        state.move(b, (cb.cx, cb.cy))
            if tracer.enabled:
                pass_span.set(pass_index=pass_index, accepted=accepted,
                              hpwl_um=state.total())


def place(
    mapped: MappedNetlist,
    floorplan: Floorplan,
    detailed_passes: int = 0,
    seed: int = 1,
    tracer=None,
) -> Placement:
    """Run global placement, legalization and optional refinement."""
    if tracer is None:
        tracer = get_tracer()
    if not mapped.cells:
        return Placement({}, floorplan, 0.0)
    with tracer.span("place.global") as sp:
        # Per net [driver, sinks..., IO pin], nets in the same set order
        # as net_pin_templates.
        index = {inst.name: i for i, inst in enumerate(mapped.cells)}
        io_position = floorplan.pin_positions()
        driver = mapped.net_driver()
        loads = mapped.net_loads()
        nets: list[list] = []
        for net in set(driver) | set(loads) | set(io_position):
            members: list = []
            if net in driver:
                members.append(index[driver[net].name])
            for sink, _pin in loads.get(net, ()):
                members.append(index[sink.name])
            if net in io_position:
                members.append(io_position[net])
            nets.append(members)
        desired = quadratic_positions(
            mapped.cells, nets,
            (floorplan.die_width / 2.0, floorplan.die_height / 2.0),
        )
        sp.set(cells=len(desired))
    with tracer.span("place.legalize"):
        placed = _legalize_flat(mapped, floorplan, desired)
    if detailed_passes > 0:
        _swap_pass(mapped, placed, floorplan, detailed_passes, seed,
                   tracer=tracer)
    return finish_placement(mapped, floorplan, placed)


def random_place(
    mapped: MappedNetlist, floorplan: Floorplan, seed: int = 1
) -> Placement:
    """Random legal placement — the placer ablation baseline."""
    rng = random.Random(seed)
    desired = {
        inst.name: (
            rng.uniform(0, floorplan.die_width),
            rng.uniform(0, floorplan.die_height),
        )
        for inst in mapped.cells
    }
    return finish_placement(
        mapped, floorplan, _legalize_flat(mapped, floorplan, desired)
    )
