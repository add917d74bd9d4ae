"""Oracle tests for the layout's table code.

The net-purpose fabric is planned, allocated and drawn as tables, the
drawing-purpose wires are computed with numpy, and DRC's spacing bins
are expanded with numpy.  ``layout_reference`` keeps the per-net,
per-cell and per-bin loops they replaced; these tests require the same
rows in the same order, the same ``FabricError`` text and the same
spacing candidates from both, on real layouts and on perturbed ones.
"""

import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.layout.drc as drc
from repro.core import COMMERCIAL, FlowOptions, run_flow
from repro.ip import make_soc
from repro.ip.catalog import catalogue, generate
from repro.layout import build_chip_gds, check_drc
from repro.layout.chip import wire_rows
from repro.layout.fabric import FabricError, _Band, _Fabric, draw_net_fabric
from repro.layout.gds import GdsStruct, to_db, to_db_array
from repro.pdk import get_pdk
from repro.pnr import implement
from repro.pnr.floorplan import IoPin
from repro.pnr.route import RoutingGrid
from repro.synth import synthesize

from gds_reference import reference_flatten, to_reference
from layout_reference import (
    reference_candidates,
    reference_fabric,
    reference_wires,
)
from test_extract import EXAMPLE_DESIGNS, example_module


def implemented(pdk_name, module):
    pdk = get_pdk(pdk_name)
    return implement(synthesize(module, pdk.library, verify=False).mapped, pdk)


@pytest.fixture(scope="module")
def designs():
    """Name -> physical design: the 17 LVS-gate designs on edu130 and
    edu180, the join case and a design without met2 runs on both PDKs,
    tinycpu COMMERCIAL and the flat 6 ns soc."""
    out = {}
    modules = [(name, generate(name).module) for name in catalogue()]
    modules += [
        (name, example_module(script, builder))
        for name, script, builder in EXAMPLE_DESIGNS
    ]
    for pdk_name in ("edu130", "edu180"):
        for name, module in modules:
            out[f"{pdk_name}:{name}"] = implemented(pdk_name, module)
        out[f"{pdk_name}:priority_encoder2"] = implemented(
            pdk_name, generate("priority_encoder", width=2).module
        )
        out[f"{pdk_name}:shift_register2x2"] = implemented(
            pdk_name, generate("shift_register", width=2, depth=2).module
        )
    pdk = get_pdk("edu130")
    out["tinycpu:commercial"] = run_flow(
        generate("tinycpu").module, pdk, FlowOptions(preset=COMMERCIAL, seed=1)
    ).physical
    out["soc:flat"] = run_flow(
        make_soc().module, pdk, FlowOptions(clock_period_ps=6000.0)
    ).physical
    return out


def fabric_outcome(draw, design):
    """The fabric rows ``draw`` makes for ``design``, or its error text."""
    top = GdsStruct("top")
    try:
        draw(top, design)
    except FabricError as error:
        return f"FabricError: {error}"
    return top.rects


def same_outcome(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.shape == b.shape and np.array_equal(a, b)


class TestFabricOracle:
    def test_rows_match_the_per_net_reference(self, designs):
        for name, design in designs.items():
            expected = fabric_outcome(reference_fabric, design)
            assert not isinstance(expected, str), (name, expected)
            assert same_outcome(fabric_outcome(draw_net_fabric, design),
                                expected), name

    def test_the_corpus_holds_the_join_and_no_met2_cases(self, designs):
        for pdk_name in ("edu130", "edu180"):
            fabric = _Fabric(designs[f"{pdk_name}:priority_encoder2"])
            assert len(fabric.join_nets) == 1
            assert not len(fabric.v_runs[0])
        fabric = _Fabric(designs["edu130:shift_register2x2"])
        assert not len(fabric.join_nets) and not len(fabric.v_runs[0])

    def test_wire_rows_match_the_per_cell_reference(self, designs):
        for name, design in designs.items():
            expected = GdsStruct("top")
            reference_wires(expected, design)
            assert np.array_equal(wire_rows(design), expected.rects), name


# -- perturbed designs: the same rows, or the same error ----------------------

#: Small designs the perturbation test starts from.
SEEDS = (
    ("edu130", "counter", {}),
    ("edu180", "alu", {}),
    ("edu130", "priority_encoder", {"width": 2}),
    ("edu180", "shift_register", {"width": 3, "depth": 2}),
    ("edu130", "fifo", {}),
)
#: Routing-pitch factors, down to bands with no lattice line at all.
PITCH_SCALES = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.001)


@pytest.fixture(scope="module")
def seed_designs():
    return [
        implemented(pdk_name, generate(name, **params).module)
        for pdk_name, name, params in SEEDS
    ]


def perturb(design, seed, drop_routes, drop_cells, extra_io, stacked,
            pitch_scale):
    """``design`` with whole routes and single route cells dropped, IO
    pins added (``stacked`` of them right over a cell pin's pad, on
    another net) and the routing pitch scaled."""
    rng = random.Random(seed)
    nets = {}
    for net, routed in design.routing.nets.items():
        if rng.random() < drop_routes:
            continue
        nets[net] = replace(routed, cells=[
            cell for cell in routed.cells if rng.random() >= drop_cells
        ])
    floorplan = design.floorplan
    cell_nets = sorted(
        {net for inst in design.mapped.cells for net in inst.pins.values()}
    )
    ios = list(floorplan.io_pins)
    for k in range(extra_io):
        net = rng.choice(cell_nets + [cell_nets[-1] + 1 + k])
        x = rng.uniform(0.0, floorplan.die_width)
        y = rng.uniform(0.0, floorplan.die_height)
        ios.append(IoPin(f"extra[{k}]", "extra", k, net, x, y, "west"))
    for k in range(stacked):
        inst = rng.choice(design.mapped.cells)
        placed = design.placement.cells[inst.name]
        x = placed.x + placed.width * rng.choice((0.25, 0.5, 0.75))
        y = placed.cy + rng.choice((-0.012, 0.012, -0.3, 0.3))
        net = rng.choice(cell_nets)
        ios.append(IoPin(f"stack[{k}]", "stack", k, net, x, y, "east"))
    routing = replace(
        design.routing, nets=nets,
        grid_pitch_um=design.routing.grid_pitch_um * pitch_scale,
    )
    return replace(design, routing=routing,
                   floorplan=replace(floorplan, io_pins=ios))


def compare_perturbed(design, branches=None):
    """Both fabrics and both wire pictures on ``design``; False when the
    reference fabric fails with anything but a ``FabricError``."""
    wires = GdsStruct("top")
    reference_wires(wires, design)
    assert np.array_equal(wire_rows(design), wires.rects)
    try:
        expected = fabric_outcome(
            lambda top, design: reference_fabric(top, design, branches),
            design,
        )
    except Exception:  # an input the per-net code cannot draw at all
        return False
    assert same_outcome(fabric_outcome(draw_net_fabric, design), expected)
    return True


class TestPerturbedFabric:
    @given(
        start=st.integers(0, len(SEEDS) - 1),
        seed=st.integers(0, 2**16),
        drop_routes=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        drop_cells=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
        extra_io=st.integers(0, 4),
        stacked=st.integers(0, 4),
        pitch_scale=st.sampled_from(PITCH_SCALES),
    )
    @example(start=0, seed=0, drop_routes=1.0, drop_cells=0.0, extra_io=0,
             stacked=0, pitch_scale=1.0)
    @example(start=1, seed=3, drop_routes=0.0, drop_cells=0.0, extra_io=0,
             stacked=0, pitch_scale=0.001)
    @settings(max_examples=60, deadline=None)
    def test_same_rows_or_same_error(self, seed_designs, start, seed,
                                     drop_routes, drop_cells, extra_io,
                                     stacked, pitch_scale):
        design = perturb(seed_designs[start], seed, drop_routes, drop_cells,
                         extra_io, stacked, pitch_scale)
        compare_perturbed(design)

    def test_perturbations_reach_every_branch_and_error(self, seed_designs):
        """A fixed sweep of perturbations takes every join branch and
        meets every kind of ``FabricError``, with both sides agreeing."""
        branches = Counter()
        errors = set()
        for seed in range(16):
            for design in seed_designs:
                perturbed = perturb(
                    design, seed, (0.0, 0.2, 0.5, 1.0)[seed % 4],
                    (0.0, 0.1, 0.3)[seed % 3], seed % 3, seed % 5 // 2,
                    PITCH_SCALES[seed % len(PITCH_SCALES)],
                )
                assert compare_perturbed(perturbed, branches)
                outcome = fabric_outcome(draw_net_fabric, perturbed)
                if isinstance(outcome, str):
                    errors.add(outcome.split(" [")[0].split(" for net")[0])
        assert set(branches) == {
            "single node", "join", "met2 leg onto met1",
            "met2 leg via met1 jumper", "met1 leg onto met2",
            "met1 leg via met2 bridge",
        }
        assert errors == {
            "FabricError: lattice band is empty",
            "FabricError: lattice band",
            "FabricError: no shorts-free li stub position",
        }


    @pytest.mark.parametrize(
        "start, seed, drop_routes",
        [(0, 0, 0.0), (0, 4, 0.5), (2, 7, 0.5), (0, 1, 1.0), (0, 4, 1.0)],
    )
    def test_a_failure_at_any_request_raises_the_same_error(
        self, seed_designs, monkeypatch, start, seed, drop_routes
    ):
        """Fail the n-th lattice-line allocation, for every n, on a design
        where a stub also fails (after join nets, with routes dropped):
        both sides raise the error that comes first in the per-net
        order, the allocation's or the stub's."""
        design = perturb(seed_designs[start], seed, drop_routes, 0.1, 0, 4,
                         1.0)
        calls, fail_at = [0], [0]
        alloc = _Band.alloc

        def failing(band, preferred):
            calls[0] += 1
            if calls[0] == fail_at[0]:
                raise FabricError(
                    f"request {calls[0]} on [{band.lo}, {band.hi}] failed"
                )
            return alloc(band, preferred)

        monkeypatch.setattr(_Band, "alloc", failing)
        stub_error = fabric_outcome(reference_fabric, design)
        assert "no shorts-free li stub position" in stub_error
        kinds = set()
        for n in range(1, calls[0] + 2):
            outcomes = []
            for draw in (reference_fabric, draw_net_fabric):
                calls[0], fail_at[0] = 0, n
                outcomes.append(fabric_outcome(draw, design))
            assert outcomes[1] == outcomes[0], n
            kinds.add(outcomes[0] == stub_error)
        assert kinds == {True, False}


# -- the array forms of the nm rounding and the grid snap --------------------


class TestArrayForms:
    @given(st.lists(st.floats(-1e4, 1e4, allow_nan=False), max_size=30))
    @example([0.0005, 0.0015, -0.0005, 2.5e-3, 1.0004999])
    def test_to_db_array_is_to_db(self, values):
        assert to_db_array(values).tolist() == [to_db(v) for v in values]

    @given(
        pitch=st.floats(0.01, 20.0),
        cols=st.integers(2, 40), rows=st.integers(2, 40),
        points=st.lists(
            st.tuples(st.floats(-50, 500, allow_nan=False),
                      st.floats(-50, 500, allow_nan=False)),
            max_size=30,
        ),
    )
    def test_snap_array_is_snap(self, pitch, cols, rows, points):
        grid = RoutingGrid(pitch, cols, rows)
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        col, row = grid.snap_array(xs, ys)
        assert list(zip(col.tolist(), row.tolist())) == [
            grid.snap(x, y) for x, y in points
        ]


# -- DRC spacing candidates ---------------------------------------------------

coordinate = st.floats(-40.0, 40.0, allow_nan=False).map(lambda v: round(v, 3))
extent = st.sampled_from([0.0, 0.001, 0.14, 0.5, 2.0, 7.5])
rectangle = st.builds(
    lambda x, y, w, h: (x, y, x + w, y + h), coordinate, coordinate, extent,
    extent,
)


class TestSpacingCandidates:
    def test_catalogue_layouts(self, designs):
        for name, design in designs.items():
            library = build_chip_gds(design)
            layers = [
                layer for layer in design.pdk.layers.layers
                if layer.purpose in ("routing", "via")
            ]
            flat = drc.flatten_rects(
                library, design.mapped.name,
                [(layer.gds_layer, layer.gds_datatype) for layer in layers],
            )
            for layer in layers:
                coords = flat[(layer.gds_layer, layer.gds_datatype)]
                first, second = drc._spacing_candidates(
                    coords, layer.min_spacing_um
                )
                ref_first, ref_second = reference_candidates(
                    coords, layer.min_spacing_um
                )
                assert np.array_equal(first, ref_first), (name, layer.name)
                assert np.array_equal(second, ref_second), (name, layer.name)

    # Soups stay small: a 0.01 um spacing already bins a 7.5 um
    # rectangle into ~10,000 bins on both sides.
    @given(
        soup=st.lists(rectangle, min_size=2, max_size=40),
        spacing=st.sampled_from([0.01, 0.07, 0.14, 0.3, 1.0]),
        repeat=st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_rectangle_soups(self, soup, spacing, repeat):
        coords = np.array(soup + soup[:repeat], dtype=np.float64)
        first, second = drc._spacing_candidates(coords, spacing)
        ref_first, ref_second = reference_candidates(coords, spacing)
        assert np.array_equal(first, ref_first)
        assert np.array_equal(second, ref_second)

    def test_report_names_the_same_hundred_violations(self, designs,
                                                      monkeypatch):
        """With over a hundred planted spacing violations on one layer,
        the order of the candidates decides which ones the report
        names."""
        design = designs["edu130:counter"]
        pdk = design.pdk
        library = build_chip_gds(design)
        top = library.struct(design.mapped.name)
        met1 = pdk.layers.by_name("met1")
        width, gap = met1.min_width_um, met1.min_spacing_um / 2.0
        rng = random.Random(7)
        for _ in range(150):
            x = rng.uniform(-200.0, 0.0)
            y = rng.uniform(-200.0, 0.0)
            top.add_rect_um(met1.gds_layer, 0, x, y, x + 3.0, y + width)
            top.add_rect_um(met1.gds_layer, 0, x, y + width + gap, x + 3.0,
                            y + 2 * width + gap)
        for x in (-300.0, -310.0):
            top.add_rect_um(met1.gds_layer, 0, x, 0.0, x + width / 3, 1.0)
        report = check_drc(library, pdk.layers, design.mapped.name)
        assert len(report.violations) == 100

        def flatten(library, top_name, keys):
            flat = reference_flatten(to_reference(library), top_name)
            return {key: flat.get(key, np.empty((0, 4))) for key in keys}

        monkeypatch.setattr(drc, "flatten_rects", flatten)
        monkeypatch.setattr(drc, "_spacing_candidates", reference_candidates)
        expected = check_drc(library, pdk.layers, design.mapped.name)
        assert report == expected
        assert {v.rule for v in report.violations} == {
            "min_width", "min_spacing"
        }


# -- the bulk writer ----------------------------------------------------------


class TestAddRects:
    def test_equals_row_by_row_add_rect(self):
        rows = np.array([
            [10, 0, 0, 0, 5, 5], [11, 1, -3, 2, -1, 2], [10, 0, 7, 7, 9, 8],
        ], dtype=np.int64)
        bulk, single = GdsStruct("bulk"), GdsStruct("single")
        bulk.add_rects(rows)
        bulk.add_rects(np.empty((0, 6), dtype=np.int64))
        for row in rows.tolist():
            single.add_rect(*row)
        assert np.array_equal(bulk.rects, single.rects)
        assert bulk.rings == single.rings == {}
        with pytest.raises(ValueError, match=r"row 1 \[10, 0, 5, 0, 4, 1\]"):
            bulk.add_rects([[10, 0, 0, 0, 1, 1], [10, 0, 5, 0, 4, 1]])
        with pytest.raises(ValueError, match="row 2 is not"):
            bulk.add_rects([[10, 0, 0, 0, 1, 1]] * 2 + [[10, 0, 0]])
        assert np.array_equal(bulk.rects, single.rects)
