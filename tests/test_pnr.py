"""Tests for floorplanning, placement, CTS and routing."""

import pytest

from repro.core import FlowOptions
from repro.hdl import ModuleBuilder, mux
from repro.inter import Workspace
from repro.ip import make_counter, make_pwm, make_seven_seg
from repro.layout.chip import master_footprint
from repro.pdk import get_pdk
from repro.pnr import (
    hpwl,
    implement,
    make_floorplan,
    net_pin_positions,
    place,
    random_place,
    route,
    synthesize_clock_tree,
)
from repro.pnr.hier import (
    cell_region,
    hier_place,
    hier_quantize_um2,
    hier_utilization,
)
from repro.synth import synthesize


@pytest.fixture(scope="module")
def pdk():
    return get_pdk("edu130")


@pytest.fixture(scope="module")
def counter_mapped(pdk):
    b = ModuleBuilder("counter")
    en = b.input("en", 1)
    count = b.register("count", 8)
    count.next = mux(en, count + 1, count)
    b.output("q", count)
    return synthesize(b.build(), pdk.library).mapped


@pytest.fixture(scope="module")
def counter_floorplan(counter_mapped, pdk):
    return make_floorplan(counter_mapped, pdk.node, utilization=0.6)


@pytest.fixture(scope="module")
def minisoc_mapped(pdk):
    """A stitched netlist with three instance regions (``u_cnt``,
    ``u_pwm``, ``u_seg``): what the hierarchical placer is for."""
    b = ModuleBuilder("minisoc")
    en = b.input("en", 1)
    load = b.input("load", 1)
    value = b.input("value", 8)
    cnt = b.instance("u_cnt", make_counter(width=8).module,
                     en=en, load=load, value=value)
    led = b.instance("u_pwm", make_pwm(width=8).module, duty=cnt["q"])
    seg = b.instance("u_seg", make_seven_seg().module, digit=cnt["q"][3:0])
    b.output("led", led["out"])
    b.output("segments", seg["segments"])
    b.output("count", cnt["q"])
    workspace = Workspace.open(
        b.build(), pdk, FlowOptions(clock_period_ps=4_000.0)
    )
    mapped = workspace.result.synthesis.mapped
    assert {cell_region(c.name) for c in mapped.cells} == {
        "u_cnt", "u_pwm", "u_seg"
    }
    return mapped


@pytest.fixture(
    scope="module",
    params=[
        (design, placer)
        for design in ("counter", "minisoc")
        for placer in ("quadratic", "random", "hier")
    ],
    ids=lambda param: "-".join(param),
)
def placed_design(request, pdk):
    """(mapped netlist, its placement) for every placer on a flat and a
    multi-region netlist; the flat placers get the 0.6 floorplan, the
    hierarchical one its quantized floorplan."""
    design, placer = request.param
    mapped = request.getfixturevalue(f"{design}_mapped")
    if placer == "hier":
        floorplan = make_floorplan(
            mapped, pdk.node,
            utilization=hier_utilization(mapped, pdk.node, 0.6),
            quantize_um2=hier_quantize_um2(pdk.node),
        )
        return mapped, hier_place(mapped, floorplan)
    floorplan = make_floorplan(mapped, pdk.node, utilization=0.6)
    if placer == "random":
        return mapped, random_place(mapped, floorplan, seed=3)
    return mapped, place(mapped, floorplan)


class TestFloorplan:
    def test_core_fits_cells(self, counter_floorplan, counter_mapped):
        assert counter_floorplan.core_area_um2 >= counter_mapped.area_um2()

    def test_rows_snap_to_node_height(self, counter_floorplan, pdk):
        for row in counter_floorplan.rows:
            assert row.height == pytest.approx(pdk.node.row_height_um)

    def test_io_pins_on_boundary(self, counter_floorplan):
        for pin in counter_floorplan.io_pins:
            assert pin.x in (0.0, counter_floorplan.die_width)
            assert 0 < pin.y < counter_floorplan.die_height

    def test_io_pin_counts(self, counter_floorplan, counter_mapped):
        n_in = sum(len(v) for v in counter_mapped.inputs.values())
        n_out = sum(len(v) for v in counter_mapped.outputs.values())
        assert len(counter_floorplan.io_pins) == n_in + n_out

    def test_bad_utilization_rejected(self, counter_mapped, pdk):
        with pytest.raises(ValueError):
            make_floorplan(counter_mapped, pdk.node, utilization=1.5)

    def test_lower_utilization_grows_die(self, counter_mapped, pdk):
        tight = make_floorplan(counter_mapped, pdk.node, utilization=0.9)
        loose = make_floorplan(counter_mapped, pdk.node, utilization=0.3)
        assert loose.die_area_mm2 > tight.die_area_mm2


class TestPlacement:
    def test_all_cells_placed(self, placed_design, pdk):
        mapped, placement = placed_design
        assert set(placement.cells) == {c.name for c in mapped.cells}
        # Layout masters and placed cells share one footprint.
        for inst in mapped.cells:
            cell = placement.cells[inst.name]
            assert (cell.width, cell.height) == master_footprint(
                inst.cell, pdk.node
            )

    def test_cells_in_rows_without_overlap(self, placed_design):
        _, placement = placed_design
        by_row: dict[float, list] = {}
        for cell in placement.cells.values():
            by_row.setdefault(round(cell.y, 4), []).append(cell)
        for cells in by_row.values():
            cells.sort(key=lambda c: c.x)
            for left, right in zip(cells, cells[1:]):
                assert left.x + left.width <= right.x + 1e-6

    def test_quadratic_beats_random(self, counter_mapped, counter_floorplan):
        quad = place(counter_mapped, counter_floorplan)
        rand = random_place(counter_mapped, counter_floorplan, seed=3)
        assert quad.hpwl_um < rand.hpwl_um

    def test_detailed_passes_do_not_hurt(self, counter_mapped, counter_floorplan):
        base = place(counter_mapped, counter_floorplan, detailed_passes=0)
        refined = place(counter_mapped, counter_floorplan, detailed_passes=2)
        assert refined.hpwl_um <= base.hpwl_um + 1e-6

    def test_hpwl_of_known_pins(self):
        pins = {1: [(0.0, 0.0), (3.0, 4.0)], 2: [(1.0, 1.0)]}
        assert hpwl(pins) == pytest.approx(7.0)

    def test_net_pin_positions_driver_first(self, counter_mapped, counter_floorplan):
        placement = place(counter_mapped, counter_floorplan)
        xy = {n: (c.cx, c.cy) for n, c in placement.cells.items()}
        pins = net_pin_positions(counter_mapped, xy, counter_floorplan)
        driver = counter_mapped.net_driver()
        for net, plist in pins.items():
            if net in driver:
                assert plist[0] == xy[driver[net].name]


class TestClockTree:
    def test_all_dffs_have_latency(self, counter_mapped, counter_floorplan, pdk):
        placement = place(counter_mapped, counter_floorplan)
        tree = synthesize_clock_tree(placement, counter_mapped.library, pdk.node)
        assert len(tree.sink_latency_ps) == len(counter_mapped.seq_cells)

    def test_buffered_tree_has_less_skew(self, pdk):
        # A wider design separates the flops enough for skew to matter.
        b = ModuleBuilder("wide")
        d = b.input("d", 32)
        r = b.register("r", 32)
        r.next = d
        b.output("q", r)
        mapped = synthesize(b.build(), pdk.library).mapped
        fp = make_floorplan(mapped, pdk.node, utilization=0.5)
        placement = place(mapped, fp)
        buffered = synthesize_clock_tree(placement, mapped.library, pdk.node,
                                         buffering=True)
        bare = synthesize_clock_tree(placement, mapped.library, pdk.node,
                                     buffering=False)
        assert buffered.buffers
        assert not bare.buffers
        assert buffered.skew_ps <= bare.skew_ps

    def test_skew_map_nonnegative(self, counter_mapped, counter_floorplan, pdk):
        placement = place(counter_mapped, counter_floorplan)
        tree = synthesize_clock_tree(placement, counter_mapped.library, pdk.node)
        skews = tree.skew_map()
        assert min(skews.values()) == 0.0
        assert max(skews.values()) == pytest.approx(tree.skew_ps)

    def test_empty_design_gives_empty_tree(self, pdk):
        b = ModuleBuilder("comb")
        a = b.input("a", 4)
        b.output("y", ~a)
        mapped = synthesize(b.build(), pdk.library).mapped
        fp = make_floorplan(mapped, pdk.node)
        placement = place(mapped, fp)
        tree = synthesize_clock_tree(placement, mapped.library, pdk.node)
        assert tree.skew_ps == 0.0
        assert tree.stats()["sinks"] == 0


class TestRouting:
    def test_routes_all_nets(self, counter_mapped, counter_floorplan, pdk):
        placement = place(counter_mapped, counter_floorplan)
        result = route(counter_mapped, placement, pdk.node)
        assert not result.failed_nets
        assert result.total_wirelength_um > 0

    def test_wire_lengths_exported(self, counter_mapped, counter_floorplan, pdk):
        placement = place(counter_mapped, counter_floorplan)
        result = route(counter_mapped, placement, pdk.node)
        lengths = result.wire_lengths()
        assert lengths
        assert all(length >= 0 for length in lengths.values())

    def test_rip_up_does_not_increase_overflow(self, counter_mapped,
                                               counter_floorplan, pdk):
        placement = place(counter_mapped, counter_floorplan)
        without = route(counter_mapped, placement, pdk.node, rip_up=False,
                        capacity=1)
        with_ripup = route(counter_mapped, placement, pdk.node, rip_up=True,
                           capacity=1, max_iterations=4)
        assert with_ripup.overflow <= without.overflow

    def test_stats_shape(self, counter_mapped, counter_floorplan, pdk):
        placement = place(counter_mapped, counter_floorplan)
        stats = route(counter_mapped, placement, pdk.node).stats()
        for key in ("nets", "wirelength_um", "vias", "overflow"):
            assert key in stats


class TestImplement:
    def test_full_backend(self, counter_mapped, pdk):
        design = implement(counter_mapped, pdk)
        report = design.report()
        assert report["die_area_mm2"] > 0
        assert report["routing_overflow"] == 0
        assert design.wire_lengths()

    def test_unknown_placer_rejected(self, counter_mapped, pdk):
        with pytest.raises(ValueError):
            implement(counter_mapped, pdk, placer="genetic")

    def test_backend_feeds_sta(self, counter_mapped, pdk):
        from repro.sta import TimingAnalyzer

        design = implement(counter_mapped, pdk)
        sta = TimingAnalyzer(
            counter_mapped, pdk.node,
            wire_lengths_um=design.wire_lengths(),
            skew_ps=design.clock_tree.skew_map(),
        )
        report = sta.analyze(10_000.0)
        assert report.met
