"""Verified-replay routing: reuse recorded maze paths, provably safely.

Routing dominates flow runtime, but the maze router's A* search for one
net only ever *reads* the usage/history of the grid cells it explores.
:class:`ReplayRouter` exploits that: every live route records the set of
cells whose cost was read (the *explored set*).  The search kernel
reports the cells it expanded, and the explored set is their
neighbours: a search reads the cost of exactly the neighbours of each
cell it expands, and of no other cell.  On the next run it
walks the merged, sorted sequence of old and new nets while maintaining
the exact signed *divergence delta* — per grid cell, warm-run usage
minus recorded-run usage at this point of the sequence, plus the same
delta for congestion-history bumps:

* a net present in both runs with identical pins whose explored set
  contains no cell with a non-zero delta would see the exact cost
  landscape the recorded search saw, so its recorded path (or recorded
  failure) is substituted verbatim;
* otherwise the net routes live; every apply/unapply of a route charges
  the delta (+1 for warm events, -1 for the recorded run's events at
  the same sequence point), so cells where the two runs agree cancel
  to zero and leave the divergence.

The cancellation is what makes replay survive a congested design: a
live reroute that lands on the recorded path zeroes its own delta, so
one edited module perturbs the landscape only transiently instead of
poisoning every later explored-set test.

This is a proof, not a heuristic: the delta is exactly the usage
difference the two searches would observe, so a substituted net is one
the cold router would have routed identically, and warm and cold runs
produce the same :class:`~repro.pnr.route.RoutingResult` byte for byte
— including the insertion order of the routed-net dict, which
downstream GDS track assignment depends on.  A baseline recorded under
different grid parameters is discarded wholesale.

Rip-up rounds replay under the same argument: both runs bump history on
their congested cells at the top of each round (charged +1/-1 into the
history delta, cancelling where the congested sets agree), and a
victim's unapply charges the warm route out and the recorded run's
current route in.  Control flow — overflow checks, congested sets,
victim lists — is always computed live from true warm state, so round
counts and victim order match a cold run by construction; the recorded
rounds are consulted only to substitute individual reroutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pdk.node import ProcessNode
from ..pnr.placement import Placement
from ..pnr.route import Cell, GridRouter, RoutedNet, RoutingResult
from ..synth.mapped import MappedNetlist


@dataclass
class NetRecord:
    """One net's initial-pass routing outcome plus its explored set."""

    pins: tuple[tuple[float, float], ...]
    explored: frozenset[Cell]
    #: Path cells (sorted) when routing succeeded, else None.
    cells: tuple[Cell, ...] | None
    pin_cells: frozenset[tuple[int, int]] = frozenset()
    wirelength_um: float = 0.0
    vias: int = 0

    def applied(self) -> set[Cell]:
        """Cells whose usage this net's route incremented."""
        if self.cells is None:
            return set()
        return {
            cell
            for cell in self.cells
            if (cell[0], cell[1]) not in self.pin_cells
        }


@dataclass
class RoundRecord:
    """One rip-up round: its congested set and per-victim reroutes."""

    congested: frozenset[Cell]
    records: dict[int, NetRecord] = field(default_factory=dict)


@dataclass
class RouteBaseline:
    """Full recording of one routing run, keyed for validity."""

    params: tuple
    records: dict[int, NetRecord] = field(default_factory=dict)
    rounds: list[RoundRecord] = field(default_factory=list)


@dataclass
class ReplayStats:
    replayed: int = 0
    routed: int = 0


class _Divergence:
    """Signed per-cell deltas between the warm and the recorded run.

    ``usage[cell]`` is warm usage minus recorded usage at the current
    point of the merged net sequence; ``hist`` the same for congestion
    -history bumps.  ``cells`` caches the union of non-zero keys so the
    per-net disjointness test is one set intersection.
    """

    def __init__(self) -> None:
        self.usage: dict[Cell, int] = {}
        self.hist: dict[Cell, int] = {}
        self.cells: set[Cell] = set()

    def _charge(self, table: dict[Cell, int], cells, sign: int) -> None:
        other = self.hist if table is self.usage else self.usage
        for cell in cells:
            value = table.get(cell, 0) + sign
            if value:
                table[cell] = value
                self.cells.add(cell)
            else:
                table.pop(cell, None)
                if cell not in other:
                    self.cells.discard(cell)

    def charge_usage(self, cells, sign: int) -> None:
        self._charge(self.usage, cells, sign)

    def charge_hist(self, cells, sign: int) -> None:
        self._charge(self.hist, cells, sign)

    def clean(self, explored: frozenset[Cell]) -> bool:
        return explored.isdisjoint(self.cells)


def _applied_cells(routed: RoutedNet) -> set[Cell]:
    """Cells whose usage ``routed`` increments (non-pin path cells)."""
    return {
        cell
        for cell in routed.cells
        if (cell[0], cell[1]) not in routed.pin_cells
    }


class ReplayRouter(GridRouter):
    """A :class:`GridRouter` that records and verifiably replays runs."""

    def _params(self, max_iterations: int, rip_up: bool) -> tuple:
        grid = self.grid
        return (
            grid.pitch, grid.cols, grid.rows, self.capacity,
            max_iterations, rip_up,
        )

    def _route_live(
        self, pins: list[tuple[float, float]]
    ) -> tuple[RoutedNet | None, frozenset[Cell]]:
        """Route one net and return it with its search's explored set:
        the neighbours of every cell the kernel expanded, which are
        exactly the cells whose cost the search read."""
        expanded: list[int] = []
        result = self._route_net(pins, expanded)
        adjacent = self._adjacent
        read = {edge[0] for index in expanded for edge in adjacent[index]}
        return result, frozenset(map(self._cells.__getitem__, read))

    def route_with_baseline(
        self,
        baseline: RouteBaseline | None,
        max_iterations: int = 3,
        rip_up: bool = True,
    ) -> tuple[RoutingResult, RouteBaseline, ReplayStats]:
        """Route, substituting verified baseline paths where possible."""
        params = self._params(max_iterations, rip_up)
        old: dict[int, NetRecord] = {}
        if baseline is not None and baseline.params == params:
            old = baseline.records
        new_baseline = RouteBaseline(params=params)
        stats = ReplayStats()

        multi = {
            net: pins
            for net, pins in self.pins_by_net.items()
            if len(pins) >= 2
        }

        routed: dict[int, RoutedNet] = {}
        failed: list[int] = []
        div = _Divergence()
        with self.tracer.span("route.initial") as sp:
            for net in sorted(set(multi) | set(old)):
                record = old.get(net)
                if net not in multi:
                    # Net gone: the recorded run applied it here, the
                    # warm run never will.
                    if record is not None:
                        div.charge_usage(record.applied(), -1)
                    continue
                pins = tuple(multi[net])
                if (
                    record is not None
                    and record.pins == pins
                    and div.clean(record.explored)
                ):
                    # Cost landscape identical on every cell the recorded
                    # search touched: the cold router would do the same.
                    # Both runs apply the same route — delta unchanged.
                    stats.replayed += 1
                    new_baseline.records[net] = record
                    if record.cells is None:
                        failed.append(net)
                        continue
                    replayed = RoutedNet(
                        net=net,
                        cells=list(record.cells),
                        pin_cells=record.pin_cells,
                        wirelength_um=record.wirelength_um,
                        vias=record.vias,
                    )
                    routed[net] = replayed
                    self._apply_usage(replayed, +1)
                    continue
                result, explored = self._route_live(multi[net])
                stats.routed += 1
                if record is not None:
                    div.charge_usage(record.applied(), -1)
                if result is None:
                    failed.append(net)
                    new_baseline.records[net] = NetRecord(
                        pins=pins, explored=explored, cells=None,
                    )
                    continue
                result.net = net
                routed[net] = result
                self._apply_usage(result, +1)
                new_baseline.records[net] = NetRecord(
                    pins=pins,
                    explored=explored,
                    cells=tuple(result.cells),
                    pin_cells=result.pin_cells,
                    wirelength_um=result.wirelength_um,
                    vias=result.vias,
                )
                div.charge_usage(new_baseline.records[net].applied(), +1)
            if self.tracer.enabled:
                sp.set(nets=len(routed), failed=len(failed),
                       overflow=self._overflow(),
                       replayed=stats.replayed, fresh=stats.routed)

        iterations = 1
        #: The baseline run's current route per net, evolved round by
        #: round alongside the warm run (used to charge the divergence
        #: set for rounds the warm run skips a victim in).
        base_current: dict[int, NetRecord] = dict(old)
        base_rounds = (
            baseline.rounds
            if baseline is not None and baseline.params == params
            else []
        )
        if rip_up:
            for round_idx in range(max_iterations - 1):
                if self._overflow() == 0:
                    break
                base_round = (
                    base_rounds[round_idx]
                    if round_idx < len(base_rounds)
                    else None
                )
                with self.tracer.span("route.rip_up") as sp:
                    congested = self._congested()
                    # Both runs bump history on their own congested set;
                    # the deltas cancel wherever the sets agree.
                    div.charge_hist(congested, +1)
                    if base_round is not None:
                        div.charge_hist(base_round.congested, -1)
                    self._bump_history(congested)
                    victims = [
                        net
                        for net, rn in routed.items()
                        if any(cell in congested for cell in rn.cells)
                    ]
                    victim_set = set(victims)
                    victims_b = (
                        set(base_round.records)
                        if base_round is not None
                        else set()
                    )
                    new_round = RoundRecord(congested=frozenset(congested))
                    round_replayed = round_live = 0
                    for net in sorted(victim_set | victims_b):
                        brec = (
                            base_round.records.get(net)
                            if base_round is not None
                            else None
                        )
                        if net not in victim_set:
                            # Baseline ripped this net, the warm run did
                            # not: charge its unapply and reroute.
                            prev = base_current.get(net)
                            if prev is not None:
                                div.charge_usage(prev.applied(), +1)
                            div.charge_usage(brec.applied(), -1)
                            base_current[net] = brec
                            continue
                        pins = tuple(multi[net])
                        old_routed = routed[net]
                        self._apply_usage(old_routed, -1)
                        div.charge_usage(_applied_cells(old_routed), -1)
                        if brec is not None:
                            # The recorded run unapplied its own current
                            # route before searching this victim.
                            prev = base_current.get(net)
                            if prev is not None:
                                div.charge_usage(prev.applied(), +1)
                        if (
                            brec is not None
                            and brec.pins == pins
                            and div.clean(brec.explored)
                        ):
                            round_replayed += 1
                            stats.replayed += 1
                            new_round.records[net] = brec
                            base_current[net] = brec
                            # Both runs now apply brec — delta unchanged.
                            if brec.cells is None:
                                failed.append(net)
                                del routed[net]
                                continue
                            replayed = RoutedNet(
                                net=net,
                                cells=list(brec.cells),
                                pin_cells=brec.pin_cells,
                                wirelength_um=brec.wirelength_um,
                                vias=brec.vias,
                            )
                            routed[net] = replayed
                            self._apply_usage(replayed, +1)
                            continue
                        round_live += 1
                        stats.routed += 1
                        result, explored = self._route_live(multi[net])
                        if result is None:
                            rec = NetRecord(
                                pins=pins,
                                explored=explored,
                                cells=None,
                            )
                            failed.append(net)
                            del routed[net]
                        else:
                            result.net = net
                            rec = NetRecord(
                                pins=pins,
                                explored=explored,
                                cells=tuple(result.cells),
                                pin_cells=result.pin_cells,
                                wirelength_um=result.wirelength_um,
                                vias=result.vias,
                            )
                            routed[net] = result
                            self._apply_usage(result, +1)
                        new_round.records[net] = rec
                        div.charge_usage(rec.applied(), +1)
                        if brec is not None:
                            div.charge_usage(brec.applied(), -1)
                            base_current[net] = brec
                    new_baseline.rounds.append(new_round)
                    iterations += 1
                    if self.tracer.enabled:
                        sp.set(iteration=iterations, victims=len(victims),
                               overflow=self._overflow(),
                               replayed=round_replayed, fresh=round_live)

        result = RoutingResult(
            nets=routed,
            grid_pitch_um=self.grid.pitch,
            overflow=self._overflow(),
            iterations=iterations,
            failed_nets=failed,
        )
        return result, new_baseline, stats


def replay_route(
    mapped: MappedNetlist,
    placement: Placement,
    node: ProcessNode,
    baseline: RouteBaseline | None,
    rip_up: bool = True,
    max_iterations: int = 3,
    capacity: int = 4,
    tracer=None,
) -> tuple[RoutingResult, RouteBaseline, ReplayStats]:
    """Route ``mapped`` with baseline replay; returns the new baseline."""
    router = ReplayRouter(
        mapped, placement, node, capacity=capacity, tracer=tracer
    )
    return router.route_with_baseline(
        baseline, max_iterations=max_iterations, rip_up=rip_up
    )
