"""Tests for floorplanning, placement, CTS and routing."""

import os
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FlowOptions
from repro.core.presets import COMMERCIAL, OPEN
from repro.extract import run_lvs
from repro.hdl import ModuleBuilder, mux
from repro.inter import EcoSession, Workspace
from repro.ip import make_counter, make_pwm, make_seven_seg
from repro.ip.catalog import catalogue, generate
from repro.layout import build_chip_gds, check_drc, write_gds
from repro.layout.chip import master_footprint
from repro.pdk import get_pdk
from repro.pnr import (
    Row,
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
from repro.pnr.placement import (
    CONTAIN_TOL_UM,
    PlacementError,
    finish_placement,
    legalize_rows,
)
from repro.synth import synthesize

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "examples")
)
from quickstart import build_counter  # noqa: E402
from research_node_access import build_research_datapath  # noqa: E402
from tiny_soc import build_soc  # noqa: E402


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


# -- contained legalization --------------------------------------------------

#: Row height and placement site of the synthetic legalizer inputs.
ROW_H = 3.0
SITE = ROW_H / 10.0


def _inst(i: int, sites: int):
    """A cell instance ``sites`` placement sites wide, as legalize_rows
    reads it: a name and a cell with an area."""
    return SimpleNamespace(
        name=f"c{i}", cell=SimpleNamespace(area_um2=sites * SITE * ROW_H)
    )


@st.composite
def legalizer_inputs(draw):
    """(cells, desired centres, rows, x0, x1) for one block."""
    first_row = draw(st.integers(0, 4))
    rows = [
        Row(i, i * ROW_H, 0.0, 1000.0, ROW_H)
        for i in range(first_row, first_row + draw(st.integers(1, 5)))
    ]
    x0 = draw(st.integers(0, 40)) * SITE
    x1 = x0 + draw(st.integers(1, 120)) * SITE
    sites = draw(st.lists(st.integers(1, 12), min_size=1, max_size=40))
    cells = [_inst(i, n) for i, n in enumerate(sites)]
    spot = st.tuples(st.floats(-100.0, x1 + 100.0),
                     st.floats(-50.0, rows[-1].y + 50.0))
    mode = draw(st.sampled_from(["scattered", "clumped", "identical"]))
    if mode == "scattered":  # anywhere, in or far out of the block
        desired = {c.name: draw(spot) for c in cells}
    else:
        cx, cy = draw(spot)
        jitter = 0.0 if mode == "identical" else 0.5
        desired = {
            c.name: (cx + draw(st.floats(-jitter, jitter)),
                     cy + draw(st.floats(-jitter, jitter)))
            for c in cells
        }
    return cells, desired, rows, x0, x1


#: Three cells dealt into three rows whose quota bound falls exactly on
#: a cell's width midpoint: a list-order float sum of the widths moved
#: that bound by an ulp and the reversed list dealt differently.
TIED_QUOTA = (
    [_inst(0, 1), _inst(1, 2), _inst(2, 3)],
    {f"c{i}": (0.0, 0.0) for i in range(3)},
    [Row(i, i * ROW_H, 0.0, 1000.0, ROW_H) for i in range(3)],
    0.0,
    3 * SITE,
)


class TestLegalizeRows:
    """legalize_rows keeps every cell inside its row's ``[x0, x1]``."""

    @given(legalizer_inputs())
    @example(TIED_QUOTA)
    @settings(max_examples=300, deadline=None)
    def test_contained_without_overlap(self, inputs):
        cells, desired, rows, x0, x1 = inputs
        free = len(rows) * (x1 - x0)
        widths = {c.name: c.cell.area_um2 / ROW_H for c in cells}
        total = sum(widths.values())
        if total > free + CONTAIN_TOL_UM:
            with pytest.raises(PlacementError):
                legalize_rows(cells, desired, rows, x0, x1)
            return
        try:
            placed = legalize_rows(cells, desired, rows, x0, x1)
        except PlacementError:
            # Only a block too full to deal whole cells into may refuse.
            assert free - total < len(rows) * max(widths.values())
            return
        assert set(placed) == set(widths)
        by_row = {r.y: r.index for r in rows}
        per_row: dict[int, list] = {r.index: [] for r in rows}
        for cell in placed.values():
            assert cell.width == pytest.approx(widths[cell.name])
            assert cell.x >= x0 - CONTAIN_TOL_UM
            assert cell.x + cell.width <= x1 + CONTAIN_TOL_UM
            per_row[by_row[cell.y]].append(cell)
        for row_cells in per_row.values():
            row_cells.sort(key=lambda c: c.x)
            for left, right in zip(row_cells, row_cells[1:]):
                assert left.x + left.width <= right.x + CONTAIN_TOL_UM
        # A second call, with the cells in reverse list order, places
        # them identically: the legalizer's own order decides.
        assert legalize_rows(cells[::-1], desired, rows, x0, x1) == placed

    def test_too_full_rows_raise(self):
        rows = [Row(i, i * ROW_H, 0.0, 3.0, ROW_H) for i in (4, 5)]
        cells = [_inst(i, 7) for i in range(3)]  # 21 sites, 20 free
        desired = {c.name: (1.5, 13.5) for c in cells}
        with pytest.raises(PlacementError) as exc:
            legalize_rows(cells, desired, rows, 0.0, 3.0)
        assert str(exc.value) == (
            "rows 4..5 between x 0.000 and 3.000 um: 3 cells 6.300 um "
            "wide exceed the 6.000 um of free row width"
        )

    def test_rows_too_fragmented_raise(self):
        rows = [Row(i, i * ROW_H, 0.0, 1.5, ROW_H) for i in (0, 1)]
        cells = [_inst(i, 3) for i in range(3)]  # 9 sites in 2 x 5
        desired = {c.name: (0.75, 3.0) for c in cells}
        with pytest.raises(PlacementError, match="do not pack into the"):
            legalize_rows(cells, desired, rows, 0.0, 1.5)

    def test_clump_spreads_over_the_rows(self):
        rows = [Row(i, i * ROW_H, 0.0, 12.0, ROW_H) for i in range(4)]
        cells = [_inst(i, 10) for i in range(8)]  # half of 4 x 40 sites
        desired = {c.name: (6.0, 6.0) for c in cells}
        placed = legalize_rows(cells, desired, rows, 0.0, 12.0)
        # Two 3 um cells per row, each pair centred on the clump's x.
        for row in rows:
            xs = sorted(c.x for c in placed.values() if c.y == row.y)
            assert xs == pytest.approx([3.0, 6.0])

    def test_finish_placement_names_a_cell_outside_the_core(
        self, counter_mapped, counter_floorplan
    ):
        placed = place(counter_mapped, counter_floorplan).cells
        cell = next(iter(placed.values()))
        cell.x = counter_floorplan.rows[0].x1 - cell.width / 2.0
        with pytest.raises(PlacementError) as exc:
            finish_placement(counter_mapped, counter_floorplan, placed)
        assert str(exc.value).startswith(
            f"cell {cell.name!r} at x {cell.x:.3f}.."
            f"{cell.x + cell.width:.3f} um, y {cell.y:.3f} um is outside "
            f"the core rows"
        )
        assert str(exc.value).endswith("; cells outside: 1")
        cell.x = counter_floorplan.rows[0].x0
        cell.y += 0.5  # between rows
        with pytest.raises(PlacementError, match=f"cell {cell.name!r} at"):
            finish_placement(counter_mapped, counter_floorplan, placed)


def _signoff_designs():
    """The GDS-in LVS gate's 17 designs under the OPEN preset, then
    tinycpu COMMERCIAL."""
    yield "counter-example", build_counter(), OPEN
    yield "research-datapath", build_research_datapath(), OPEN
    yield "tiny-soc", build_soc(), OPEN
    for name in catalogue():
        yield name, generate(name).module, OPEN
    yield "tinycpu-commercial", generate("tinycpu").module, COMMERCIAL


@pytest.fixture(scope="module")
def signoff_netlists():
    """(pdk name, design) -> (pdk, preset, flat netlist, stitched
    netlist), synthesized once for every placer.  The stitched netlist
    is the edit session's, whose cell names carry the instance regions
    the hierarchical placer blocks by."""
    built = {}
    for pdk_name in ("edu130", "edu180"):
        pdk = get_pdk(pdk_name)
        for name, module, preset in _signoff_designs():
            if preset is COMMERCIAL and pdk_name != "edu130":
                continue
            flat = synthesize(
                module, pdk.library, verify=False,
                objective=preset.mapping_objective,
                opt_passes=preset.opt_passes, sizing=preset.gate_sizing,
                max_load_per_drive_ff=preset.max_load_per_drive_ff,
            ).mapped
            stitched = EcoSession().synthesize(
                module, pdk.library, preset, seed=1
            ).mapped
            built[pdk_name, name] = (pdk, preset, flat, stitched)
    return built


class TestContainment:
    """Every placer keeps every cell inside the core, and the layouts of
    its placements still sign off from their GDS bytes."""

    @pytest.mark.parametrize("placer", ["quadratic", "hier", "random"])
    def test_catalogue_contained_and_clean(self, signoff_netlists, placer):
        for (pdk_name, name), (pdk, preset, flat, stitched) in (
            signoff_netlists.items()
        ):
            mapped = stitched if placer == "hier" else flat
            # A random placement congests every rip-up round (seconds on
            # the soc) without changing what this test checks.
            design = implement(
                mapped, pdk, placer=placer,
                utilization=preset.utilization,
                detailed_placement_passes=preset.detailed_placement_passes,
                router_rip_up=placer != "random",
            )
            where = f"{name} on {pdk_name} ({placer})"
            rows = {row.y: row for row in design.floorplan.rows}
            per_row: dict[float, list] = {}
            for cell in design.placement.cells.values():
                row = rows[cell.y]
                assert cell.x >= row.x0 - CONTAIN_TOL_UM, where
                assert cell.x + cell.width <= row.x1 + CONTAIN_TOL_UM, where
                per_row.setdefault(cell.y, []).append(cell)
            for row_cells in per_row.values():
                row_cells.sort(key=lambda c: c.x)
                for left, right in zip(row_cells, row_cells[1:]):
                    assert left.x + left.width <= right.x + CONTAIN_TOL_UM
            library = build_chip_gds(design)
            assert check_drc(library, pdk.layers, mapped.name).clean, where
            report = run_lvs(write_gds(library), mapped, pdk)
            assert report.clean, (where, report.mismatches[:3])
            assert report.lec_equivalent is True, where
