"""Engine performance benchmarks: how fast the flow itself runs.

Not a paper experiment — these time the toolkit's own hot paths (RTL
simulation, synthesis, placement, routing, GDS export) so regressions in
the engines are visible.  Unlike the experiment benches these use real
repeated measurement rounds.
"""

from conftest import build_alu_design, build_counter, build_mac_pipe

from repro.core import COMMERCIAL, OPEN, FlowOptions, run_flow
from repro.ip.catalog import generate
from repro.layout import build_chip_gds, write_gds
from repro.pdk import get_pdk
from repro.pnr import grid_capacity, implement, make_floorplan, place, route
from repro.sim import Simulator
from repro.synth import lower, optimize, synthesize


def test_perf_rtl_simulation(benchmark):
    sim = Simulator(build_counter(16))
    sim.set("en", 1)
    benchmark(sim.step, 100)


def test_perf_lower_and_optimize(benchmark):
    module = build_alu_design()

    def run():
        return optimize(lower(module))

    netlist, _ = benchmark(run)
    assert netlist.gates


def test_perf_synthesis(benchmark):
    library = get_pdk("edu130").library
    module = build_mac_pipe()
    result = benchmark(synthesize, module, library)
    assert result.mapped.cells


def test_perf_detailed_place(benchmark):
    """Detailed placement with the incremental-HPWL swap kernel."""
    pdk = get_pdk("edu130")
    mapped = synthesize(build_alu_design(), pdk.library).mapped
    floorplan = make_floorplan(mapped, pdk.node)

    def run():
        return place(mapped, floorplan, detailed_passes=2, seed=1)

    placement = benchmark(run)
    assert placement.hpwl_um > 0


def test_perf_backend(benchmark):
    pdk = get_pdk("edu130")
    mapped = synthesize(build_alu_design(), pdk.library).mapped
    design = benchmark.pedantic(
        implement, args=(mapped, pdk), rounds=3, iterations=1
    )
    assert design.routing.nets


def test_perf_route_congested(benchmark):
    """Global routing through every rip-up round: tinycpu's COMMERCIAL
    placement stays congested, so all eight rounds run."""
    pdk = get_pdk("edu130")
    mapped = synthesize(
        generate("tinycpu").module,
        pdk.library,
        objective=COMMERCIAL.mapping_objective,
        opt_passes=COMMERCIAL.opt_passes,
        sizing=COMMERCIAL.gate_sizing,
        max_load_per_drive_ff=COMMERCIAL.max_load_per_drive_ff,
    ).mapped
    floorplan = make_floorplan(
        mapped, pdk.node, utilization=COMMERCIAL.utilization
    )
    placement = place(
        mapped, floorplan,
        detailed_passes=COMMERCIAL.detailed_placement_passes, seed=1,
    )
    capacity = grid_capacity(pdk.node, pdk.layers)
    result = benchmark.pedantic(
        lambda: route(mapped, placement, pdk.node, capacity=capacity,
                      max_iterations=8),
        rounds=3, iterations=1,
    )
    assert result.iterations == 8
    assert result.overflow == 397


def test_perf_gds_export(benchmark):
    pdk = get_pdk("edu130")
    mapped = synthesize(build_counter(), pdk.library).mapped
    design = implement(mapped, pdk)

    def export():
        return write_gds(build_chip_gds(design))

    data = benchmark(export)
    assert len(data) > 100


def test_perf_full_flow(benchmark):
    module = build_counter()
    pdk = get_pdk("edu130")
    result = benchmark.pedantic(
        lambda: run_flow(module, pdk, FlowOptions(preset=OPEN)),
        rounds=3, iterations=1,
    )
    assert result.ok
