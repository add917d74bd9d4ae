"""Equivalence and invalidation tests for the performance caches.

The backend's incremental kernels (per-net HPWL cache, memoized netlist
indexes, the STA stage-delay table, the simulator's batched input path,
the router's flat-array A* search) are all pure speedups: every one must
produce *bit-identical* results to the straightforward from-scratch
computation.  These tests pin that contract down so future cache changes
cannot silently drift.
"""

import heapq
import pickle
import random

import pytest

from repro.core import COMMERCIAL, OPEN
from repro.hdl import HdlError, ModuleBuilder, mux
from repro.inter import ReplayRouter
from repro.ip.catalog import generate
from repro.pdk import get_pdk
from repro.pnr import (
    GridRouter,
    IncrementalHpwl,
    grid_capacity,
    hpwl,
    make_floorplan,
    net_pin_positions,
    place,
)
from repro.sim import Simulator
from repro.sta import TimingAnalyzer
from repro.synth import (
    MappedSimulator,
    buffer_heavy_nets,
    size_for_load,
    synthesize,
)


def build_alu():
    b = ModuleBuilder("alu_ish")
    a = b.input("a", 8)
    c = b.input("c", 8)
    op = b.input("op", 2)
    add = (a + c).trunc(8)
    sub = (a - c).trunc(8)
    logic = mux(op[0], a & c, a | c)
    arith = mux(op[0], sub, add)
    b.output("y", mux(op[1], logic, arith))
    return b.build()


def build_mac():
    b = ModuleBuilder("mac_pipe")
    a = b.input("a", 8)
    w = b.input("w", 8)
    product = b.register("product", 16)
    product.next = a * w
    acc = b.register("acc", 16)
    acc.next = (acc + product).trunc(16)
    b.output("y", acc)
    return b.build()


@pytest.fixture(scope="module")
def pdk():
    return get_pdk("edu130")


@pytest.fixture(scope="module")
def alu_mapped(pdk):
    return synthesize(build_alu(), pdk.library).mapped


class TestIncrementalHpwl:
    def test_matches_scratch_after_random_swaps(self, alu_mapped, pdk):
        """N random swap/revert cycles: cached total == full recompute."""
        fp = make_floorplan(alu_mapped, pdk.node)
        placement = place(alu_mapped, fp, detailed_passes=0)
        cells = placement.cells
        state = IncrementalHpwl(
            alu_mapped, {n: (c.cx, c.cy) for n, c in cells.items()}, fp
        )
        rng = random.Random(7)
        names = sorted(cells)
        for i in range(200):
            a, b = rng.sample(names, 2)
            ca, cb = cells[a], cells[b]
            nets = state.affected(a, b)
            ca.x, cb.x = cb.x, ca.x
            ca.y, cb.y = cb.y, ca.y
            state.move(a, (ca.cx, ca.cy))
            state.move(b, (cb.cx, cb.cy))
            state.trial_total(nets)
            if i % 3 == 2:  # revert every third swap
                ca.x, cb.x = cb.x, ca.x
                ca.y, cb.y = cb.y, ca.y
                state.move(a, (ca.cx, ca.cy))
                state.move(b, (cb.cx, cb.cy))
            else:
                state.commit(nets)
            scratch = hpwl(
                net_pin_positions(alu_mapped, state.xy, fp)
            )
            assert state.total() == scratch  # bit-identical, not approx

    def test_place_matches_naive_swap_pass(self, alu_mapped, pdk):
        """place() with the incremental kernel reproduces the naive
        full-recompute greedy loop decision-for-decision."""
        fp = make_floorplan(alu_mapped, pdk.node)
        for seed in (1, 5):
            fast = place(alu_mapped, fp, detailed_passes=2, seed=seed)
            naive = self._naive_place(alu_mapped, fp, passes=2, seed=seed)
            assert fast.hpwl_um == naive[0]
            assert {n: (c.x, c.y) for n, c in fast.cells.items()} == naive[1]

    @staticmethod
    def _naive_place(mapped, fp, passes, seed):
        """The pre-optimization algorithm: full HPWL recompute per trial."""
        placement = place(mapped, fp, detailed_passes=0)
        placed = placement.cells
        rng = random.Random(seed)
        by_width = {}
        for name in placed:
            by_width.setdefault(round(placed[name].width, 4), []).append(name)

        def total():
            xy = {n: (c.cx, c.cy) for n, c in placed.items()}
            return hpwl(net_pin_positions(mapped, xy, fp))

        best = total()
        for _ in range(passes):
            for group in by_width.values():
                if len(group) < 2:
                    continue
                for _ in range(len(group)):
                    a, b = rng.sample(group, 2)
                    ca, cb = placed[a], placed[b]
                    ca.x, cb.x = cb.x, ca.x
                    ca.y, cb.y = cb.y, ca.y
                    candidate = total()
                    if candidate < best:
                        best = candidate
                    else:
                        ca.x, cb.x = cb.x, ca.x
                        ca.y, cb.y = cb.y, ca.y
        return round(best, 3), {n: (c.x, c.y) for n, c in placed.items()}


class TestStaDelayTable:
    def test_report_matches_uncached_propagation(self, pdk):
        """The table-driven analyzer reports exactly what per-call
        recomputation (the pre-optimization behaviour) reports."""
        mapped = synthesize(build_mac(), pdk.library).mapped

        class UncachedAnalyzer(TimingAnalyzer):
            def _propagate(self, worst):
                pick = max if worst else min
                arrival, via = {}, {}
                for nets in self.mapped.inputs.values():
                    for net in nets:
                        arrival[net] = 0.0
                for inst in self.mapped.seq_cells:
                    q = inst.pins[inst.cell.output]
                    launch = self.skew.get(inst.name, 0.0)
                    arrival[q] = launch + self._compute_stage_delay_ps(inst)
                    via[q] = inst
                for inst in self._order:
                    ins = inst.input_nets()
                    base = pick(
                        (arrival.get(n, 0.0) for n in ins), default=0.0
                    )
                    out = inst.pins[inst.cell.output]
                    arrival[out] = base + self._compute_stage_delay_ps(inst)
                    via[out] = inst
                return arrival, via

        node = pdk.node
        fast = TimingAnalyzer(mapped, node).analyze(2_000.0)
        slow = UncachedAnalyzer(mapped, node).analyze(2_000.0)
        assert fast.wns_ps == slow.wns_ps
        assert fast.tns_ps == slow.tns_ps
        assert fast.worst_hold_slack_ps == slow.worst_hold_slack_ps
        assert fast.endpoint_slacks == slow.endpoint_slacks
        assert [
            (p.instance, p.net, p.arrival_ps) for p in fast.critical_path
        ] == [(p.instance, p.net, p.arrival_ps) for p in slow.critical_path]
        assert (
            TimingAnalyzer(mapped, node).minimum_period_ps()
            == UncachedAnalyzer(mapped, node).minimum_period_ps()
        )

    def test_stage_delay_computed_exactly_once(self, pdk):
        """analyze() + minimum_period_ps() never recompute a delay."""
        mapped = synthesize(build_mac(), pdk.library).mapped
        counts = {}

        class CountingAnalyzer(TimingAnalyzer):
            def _compute_stage_delay_ps(self, inst):
                counts[inst.name] = counts.get(inst.name, 0) + 1
                return super()._compute_stage_delay_ps(inst)

        analyzer = CountingAnalyzer(mapped, pdk.node)
        analyzer.analyze(1_500.0)
        analyzer.analyze(3_000.0)
        analyzer.minimum_period_ps()
        driving = [c for c in mapped.cells if c.output_net is not None]
        assert counts == {inst.name: 1 for inst in driving}


class TestIndexInvalidation:
    def test_sizing_bumps_version_when_cells_change(self, pdk):
        mapped = synthesize(build_mac(), pdk.library).mapped
        mapped.net_loads()  # prime the caches
        before = mapped.index_version
        stats = size_for_load(mapped, max_load_per_drive_ff=0.5)
        assert stats.upsized > 0
        assert mapped.index_version > before

    def test_buffering_is_reflected_by_indexes(self, pdk):
        mapped = synthesize(build_alu(), pdk.library).mapped
        reference = synthesize(build_alu(), pdk.library).mapped
        # Prime every memoized index, then mutate through the API.
        loads_before = {
            net: len(sinks) for net, sinks in mapped.net_loads().items()
        }
        order_before = len(mapped.topo_comb())
        heavy = [n for n, count in loads_before.items() if count > 2]
        assert heavy, "need at least one heavy net for this test"

        stats = buffer_heavy_nets(mapped, max_fanout=2)
        assert stats.buffers_inserted > 0

        loads_after = mapped.net_loads()
        drivers_after = mapped.net_driver()
        # Fresh indexes: the inserted BUFs drive their branch nets.
        bufs = [c for c in mapped.cells if c.cell.name.startswith("BUF")]
        assert len(bufs) >= stats.buffers_inserted
        for buf in bufs:
            branch = buf.pins["y"]
            assert drivers_after[branch] is buf
            assert branch in loads_after or branch in {
                n for nets in mapped.outputs.values() for n in nets
            }
        # Moved sinks left the heavy nets' direct load lists.
        for net in heavy:
            direct = [
                (sink, pin)
                for sink, pin in loads_after[net]
                if not sink.cell.name.startswith("BUF")
            ]
            assert len(direct) <= 2
        assert len(mapped.topo_comb()) == order_before + len(bufs)

        # Buffering is the identity on logic: outputs must not change.
        sim_a = MappedSimulator(mapped)
        sim_b = MappedSimulator(reference)
        rng = random.Random(11)
        for _ in range(32):
            vector = {
                "a": rng.randrange(256),
                "c": rng.randrange(256),
                "op": rng.randrange(4),
            }
            for name, value in vector.items():
                sim_a.set(name, value)
                sim_b.set(name, value)
            assert sim_a.get("y") == sim_b.get("y")


class TestSimulatorBatchedInputs:
    def test_set_many_matches_sequential_sets(self):
        module = build_alu()
        batched = Simulator(module)
        sequential = Simulator(module)
        rng = random.Random(3)
        for _ in range(25):
            vector = {
                "a": rng.randrange(256),
                "c": rng.randrange(256),
                "op": rng.randrange(4),
            }
            batched.set_many(vector)
            for name, value in vector.items():
                sequential.set(name, value)
            assert batched.peek_all() == sequential.peek_all()

    def test_set_many_validates_before_applying(self):
        sim = Simulator(build_alu())
        sim.set_many({"a": 5, "c": 9})
        with pytest.raises(HdlError):
            sim.set_many({"a": 200, "c": 300})  # c overflows 8 bits
        # Nothing was applied: the bad batch is rejected atomically.
        assert sim.get("a") == 5
        assert sim.get("c") == 9

    def test_set_rejects_non_inputs(self):
        sim = Simulator(build_alu())
        with pytest.raises(HdlError):
            sim.set("y", 1)


class DictSearchRouter(ReplayRouter):
    """The router's search before the flat-array kernel, as the oracle.

    Cells are ``(col, row, layer)`` tuples, ``best`` and ``parent`` are
    dicts, neighbours come from a generator and every neighbour's cost is
    computed from usage and history when read.  As a replay router it
    records, per live search, the cells its ``_cell_cost`` was called on.
    """

    _tracking = None

    def _neighbors(self, cell):
        col, row, layer = cell
        if layer == 0:  # horizontal layer
            if col > 0:
                yield (col - 1, row, 0), 1.0
            if col < self.grid.cols - 1:
                yield (col + 1, row, 0), 1.0
        else:  # vertical layer
            if row > 0:
                yield (col, row - 1, 1), 1.0
            if row < self.grid.rows - 1:
                yield (col, row + 1, 1), 1.0
        yield (col, row, 1 - layer), 0.5  # via

    def _cell_cost(self, cell):
        if self._tracking is not None:
            self._tracking.add(cell)
        index = self.grid.index(cell)
        used = self.usage[index]
        congestion = 0.0
        if used >= self.capacity:
            congestion = 4.0 * (used - self.capacity + 1)
        return 1.0 + congestion + self.history[index]

    def _astar(self, sources, target, expanded):
        sources = {self.grid.cell(index) for index in sources}

        def heuristic(cell):
            return abs(cell[0] - target[0]) + abs(cell[1] - target[1])

        open_heap = []
        best = {}
        parent = {}
        for source in sources:
            best[source] = 0.0
            heapq.heappush(open_heap, (heuristic(source), 0.0, source))

        while open_heap:
            _, cost, cell = heapq.heappop(open_heap)
            if cost > best.get(cell, float("inf")):
                continue
            if (cell[0], cell[1]) == target:
                path = [cell]
                while cell in parent:
                    cell = parent[cell]
                    path.append(cell)
                path.reverse()
                return [self.grid.index(cell) for cell in path]
            for neighbor, edge in self._neighbors(cell):
                new_cost = cost + edge * self._cell_cost(neighbor)
                if new_cost < best.get(neighbor, float("inf")):
                    best[neighbor] = new_cost
                    parent[neighbor] = cell
                    heapq.heappush(
                        open_heap,
                        (new_cost + heuristic(neighbor), new_cost, neighbor),
                    )
        return None

    def _route_live(self, pins):
        self._tracking = read = set()
        result = self._route_net(pins, [])
        self._tracking = None
        return result, frozenset(read)


def _case(name, pdk_name, preset=OPEN, **router):
    """A catalogue design placed under ``preset``, plus router keywords."""
    pdk = get_pdk(pdk_name)
    mapped = synthesize(
        generate(name).module,
        pdk.library,
        objective=preset.mapping_objective,
        opt_passes=preset.opt_passes,
        sizing=preset.gate_sizing,
        max_load_per_drive_ff=preset.max_load_per_drive_ff,
    ).mapped
    fp = make_floorplan(mapped, pdk.node, utilization=preset.utilization)
    placement = place(
        mapped, fp, detailed_passes=preset.detailed_placement_passes, seed=1
    )
    router.setdefault("capacity", grid_capacity(pdk.node, pdk.layers))
    return mapped, placement, pdk, router


def _hopeless_grid():
    """The 2x2 grid of the integration suite's router-failure test."""
    pdk = get_pdk("edu130")
    b = ModuleBuilder("wide")
    a = b.input("a", 16)
    c = b.input("c", 16)
    b.output("y", a + c)
    mapped = synthesize(b.build(), pdk.library).mapped
    fp = make_floorplan(mapped, pdk.node, utilization=0.6)
    return mapped, place(mapped, fp), pdk, {
        "pitch_um": fp.die_width, "capacity": 1,
    }


#: name -> (inputs, route() keywords, rounds the route must take).
ROUTER_CASES = {
    # Small catalogue designs: one overflow-free pass.
    "alu-edu130": (lambda: _case("alu", "edu130"), {}, 1),
    "fifo-edu130": (lambda: _case("fifo", "edu130"), {}, 1),
    "uart_tx-edu180": (lambda: _case("uart_tx", "edu180"), {}, 1),
    "seven_seg-edu180": (lambda: _case("seven_seg", "edu180"), {}, 1),
    # Every rip-up round runs and congestion stays.
    "tinycpu-commercial": (
        lambda: _case("tinycpu", "edu130", COMMERCIAL),
        {"max_iterations": 8},
        8,
    ),
    "counter-cap1": (
        lambda: _case("counter", "edu130", capacity=1),
        {"max_iterations": 4},
        4,
    ),
    "counter-cap1-no-ripup": (
        lambda: _case("counter", "edu130", capacity=1),
        {"rip_up": False},
        1,
    ),
    "hopeless-2x2": (_hopeless_grid, {"max_iterations": 2}, 1),
}


def _explored(baseline):
    """Per pass (initial, then each rip-up round): net -> explored set."""
    passes = [baseline.records] + [r.records for r in baseline.rounds]
    return [{net: rec.explored for net, rec in p.items()} for p in passes]


class TestRouterKernel:
    """The flat-array A* reproduces the dict-based search bit for bit."""

    @pytest.mark.parametrize("case", sorted(ROUTER_CASES))
    def test_matches_dict_search(self, case):
        build, route_kw, rounds = ROUTER_CASES[case]
        mapped, placement, pdk, router_kw = build()

        def make(cls):
            return cls(mapped, placement, pdk.node, **router_kw)

        fast = make(GridRouter).route(**route_kw)
        oracle = make(DictSearchRouter).route(**route_kw)
        # Pickled bytes: the routed-net dict's insertion order counts.
        assert pickle.dumps(fast) == pickle.dumps(oracle)

        replayed, baseline, _ = make(ReplayRouter).route_with_baseline(
            None, **route_kw
        )
        oracle_replayed, oracle_baseline, _ = make(
            DictSearchRouter
        ).route_with_baseline(None, **route_kw)
        assert pickle.dumps(replayed) == pickle.dumps(fast)
        assert pickle.dumps(oracle_replayed) == pickle.dumps(fast)
        # Explored set == the cells the oracle's _cell_cost was called on.
        assert _explored(baseline) == _explored(oracle_baseline)
        assert baseline == oracle_baseline
        assert fast.iterations == rounds
