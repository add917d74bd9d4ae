"""Technology-mapped netlist: standard-cell instances over nets.

This is the handoff object between synthesis and the physical flow:
placement arranges its cells, routing connects its nets, STA and power
read its timing/electrical data, and
:class:`repro.sim.bitsim.PackedMappedSimulator` gives it the gate-level
semantics that post-mapping equivalence checks and fault simulation use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..pdk.cells import Library, StandardCell


@dataclass
class CellInst:
    """One placed-able standard-cell instance.

    ``pins`` maps pin name to net id and includes the output pin.
    Sequential cells store their reset value for simulation and a ``tag``
    naming the RTL register bit they implement (``reg[index]``), which is
    the register correspondence used by formal equivalence checking.
    """

    name: str
    cell: StandardCell
    pins: dict[str, int]
    reset_value: int = 0
    tag: str = ""

    @property
    def output_net(self) -> int | None:
        if self.cell.output:
            return self.pins.get(self.cell.output)
        return None

    def input_nets(self) -> list[int]:
        return [self.pins[p] for p in self.cell.inputs]

    def __repr__(self) -> str:
        return f"CellInst({self.name}:{self.cell.name})"


class MappedNetlist:
    """A netlist of standard cells from one library.

    The connectivity indexes (:meth:`net_driver`, :meth:`net_loads`,
    :meth:`topo_comb`, :meth:`nets`) are memoized: placement, routing,
    STA and power all walk them repeatedly, so they are computed once
    and invalidated on structural mutation.  Mutations made through the
    netlist API (:meth:`add_cell`, :meth:`rewire`, :meth:`set_port`)
    invalidate automatically; code that pokes ``cells``/``pins`` or the
    port dicts directly must call :meth:`invalidate` afterwards.
    Callers must treat the returned indexes as read-only.
    """

    def __init__(self, name: str, library: Library):
        self.name = name
        self.library = library
        self.cells: list[CellInst] = []
        self.n_nets = 0
        self.inputs: dict[str, list[int]] = {}
        self.outputs: dict[str, list[int]] = {}
        self._index_cache: dict[str, object] = {}
        #: Bumped on every invalidation; consumers holding derived data
        #: (e.g. placement pin templates) can compare versions for staleness.
        self.index_version = 0

    def add_cell(self, cell: StandardCell, pins: dict[str, int],
                 reset_value: int = 0, tag: str = "",
                 name: str | None = None) -> CellInst:
        """Append a cell.  ``name`` defaults to ``u{index}_{kind}``;
        callers that stitch netlists from pre-mapped shards pass explicit
        names so cell identity survives edits elsewhere in the design."""
        inst = CellInst(name or f"u{len(self.cells)}_{cell.kind}", cell,
                        dict(pins), reset_value, tag)
        self.cells.append(inst)
        self.invalidate()
        return inst

    # -- mutation ----------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the memoized connectivity indexes after a mutation."""
        self._index_cache.clear()
        self.index_version += 1

    def new_net(self) -> int:
        """Allocate a fresh net id."""
        net = self.n_nets
        self.n_nets += 1
        return net

    def rewire(self, inst: CellInst, pin: str, net: int) -> None:
        """Reconnect one pin of ``inst`` to ``net``."""
        if pin not in inst.pins:
            raise KeyError(f"{inst.name} has no pin {pin!r}")
        inst.pins[pin] = net
        self.invalidate()

    def set_port(self, direction: str, name: str, nets: list[int]) -> None:
        """Declare or reconnect a top-level port (``input``/``output``)."""
        ports = {"input": self.inputs, "output": self.outputs}[direction]
        ports[name] = list(nets)
        self.invalidate()

    # -- connectivity ------------------------------------------------------

    def net_driver(self) -> dict[int, CellInst]:
        cached = self._index_cache.get("driver")
        if cached is None:
            drivers: dict[int, CellInst] = {}
            for inst in self.cells:
                net = inst.output_net
                if net is None:
                    continue
                if net in drivers:
                    raise ValueError(f"net {net} has multiple drivers")
                drivers[net] = inst
            cached = self._index_cache["driver"] = drivers
        return cached

    def net_loads(self) -> dict[int, list[tuple[CellInst, str]]]:
        cached = self._index_cache.get("loads")
        if cached is None:
            loads: dict[int, list[tuple[CellInst, str]]] = {}
            for inst in self.cells:
                for pin in inst.cell.inputs:
                    loads.setdefault(inst.pins[pin], []).append((inst, pin))
            cached = self._index_cache["loads"] = loads
        return cached

    def nets(self) -> set[int]:
        """All nets referenced by any pin or port."""
        cached = self._index_cache.get("nets")
        if cached is None:
            found: set[int] = set()
            for inst in self.cells:
                found.update(inst.pins.values())
            for nets in self.inputs.values():
                found.update(nets)
            for nets in self.outputs.values():
                found.update(nets)
            cached = self._index_cache["nets"] = found
        return cached

    @property
    def seq_cells(self) -> list[CellInst]:
        cached = self._index_cache.get("seq")
        if cached is None:
            cached = self._index_cache["seq"] = [
                c for c in self.cells if c.cell.is_sequential
            ]
        return cached

    @property
    def comb_cells(self) -> list[CellInst]:
        cached = self._index_cache.get("comb")
        if cached is None:
            cached = self._index_cache["comb"] = [
                c for c in self.cells if not c.cell.is_sequential
            ]
        return cached

    # -- metrics -------------------------------------------------------------

    def area_um2(self) -> float:
        return sum(inst.cell.area_um2 for inst in self.cells)

    def leakage_nw(self) -> float:
        return sum(inst.cell.leakage_nw for inst in self.cells)

    def stats(self) -> dict[str, float]:
        by_kind: dict[str, int] = {}
        for inst in self.cells:
            by_kind[inst.cell.kind] = by_kind.get(inst.cell.kind, 0) + 1
        return {
            "cells": len(self.cells),
            "sequential": len(self.seq_cells),
            "area_um2": round(self.area_um2(), 3),
            "leakage_nw": round(self.leakage_nw(), 4),
            **{f"kind_{k}": n for k, n in sorted(by_kind.items())},
        }

    def topo_comb(self) -> list[CellInst]:
        """Combinational cells in topological order (Kahn)."""
        cached = self._index_cache.get("topo")
        if cached is None:
            cached = self._index_cache["topo"] = self._topo_comb()
        return cached

    def _topo_comb(self) -> list[CellInst]:
        comb = self.comb_cells
        driven_by = {c.output_net: i for i, c in enumerate(comb)
                     if c.output_net is not None}
        pending = [0] * len(comb)
        consumers: dict[int, list[int]] = {}
        ready: list[int] = []
        for i, inst in enumerate(comb):
            for net in inst.input_nets():
                if net in driven_by:
                    pending[i] += 1
                    consumers.setdefault(net, []).append(i)
            if pending[i] == 0:
                ready.append(i)
        order: list[CellInst] = []
        head = 0
        while head < len(ready):
            inst = comb[ready[head]]
            head += 1
            order.append(inst)
            net = inst.output_net
            if net is None:
                continue
            for consumer in consumers.get(net, ()):
                pending[consumer] -= 1
                if pending[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(comb):
            raise ValueError("combinational loop in mapped netlist")
        return order

    def __repr__(self) -> str:
        return f"MappedNetlist({self.name!r}, cells={len(self.cells)})"
