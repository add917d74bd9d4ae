"""Engine performance benchmarks: how fast the flow itself runs.

Not a paper experiment — these time the toolkit's own hot paths (RTL
simulation, synthesis, placement, routing, GDS export) so regressions in
the engines are visible.  Unlike the experiment benches these use real
repeated measurement rounds.
"""

import hashlib

from conftest import build_alu_design, build_counter, build_mac_pipe

from repro.core import COMMERCIAL, OPEN, FlowOptions, run_flow
from repro.extract import compare_netlists, extract_netlist, run_lvs
from repro.ip import make_soc
from repro.ip.catalog import generate
from repro.layout import build_chip_gds, check_drc, write_gds
from repro.obs.metrics import MetricsRegistry
from repro.pdk import get_pdk
from repro.pnr import implement, make_floorplan, place, route
from repro.sim import Simulator
from repro.synth import lower, optimize, synthesize
from repro.synth.dft import insert_scan_chain, simulate_faults


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
    placement at 4 tracks per grid cell (a quarter of edu130's) stays
    congested, so all eight rounds run."""
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
    result = benchmark.pedantic(
        lambda: route(mapped, placement, pdk.node, capacity=4,
                      max_iterations=8),
        rounds=3, iterations=1,
    )
    assert result.iterations == 8
    assert result.overflow == 32


def test_perf_gds_export(benchmark):
    pdk = get_pdk("edu130")
    mapped = synthesize(build_counter(), pdk.library).mapped
    design = implement(mapped, pdk)

    def export():
        return write_gds(build_chip_gds(design))

    data = benchmark(export)
    assert len(data) > 100


def test_perf_layout_soc(benchmark):
    """Mask data for the soc (edu130, 6 ns clock): chip assembly into
    rectangle tables, DRC over them and GDS export."""
    pdk = get_pdk("edu130")
    flow = run_flow(make_soc().module, pdk,
                    FlowOptions(clock_period_ps=6000.0))
    physical = flow.physical
    name = physical.mapped.name

    def layout():
        library = build_chip_gds(physical)
        drc = check_drc(library, pdk.layers, name)
        return library, drc, write_gds(library)

    library, drc, data = benchmark.pedantic(layout, rounds=3, iterations=1)
    top = library.struct(name)
    assert len(top.rects) == 26_678
    assert len(top.srefs) == 1_284
    assert drc.clean
    assert drc.checked_rects == 3_227
    assert len(data) == 1_755_970
    assert data == flow.gds_bytes
    assert hashlib.sha256(data).hexdigest() == (
        "0ca4563cb122870baaa50d985c5084e627d7bc402b63bb2fe0eb3abea4ea159b"
    )


def test_perf_lvs_from_bytes(benchmark):
    """GDS-in LVS on tinycpu's COMMERCIAL layout from the stream bytes
    alone: parse, identify, touch-graph extraction, net-by-net compare
    and the LEC miter."""
    pdk = get_pdk("edu130")
    flow = run_flow(generate("tinycpu").module, pdk,
                    FlowOptions(preset=COMMERCIAL, seed=1))
    assert hashlib.sha256(flow.gds_bytes).hexdigest() == (
        "b820ed569c06623f562ec53c139d4418ac76aa8a06cde3f256094fa03567ff54"
    )
    mapped = flow.synthesis.mapped
    pins = {pin.name for pin in flow.physical.floorplan.io_pins}

    def lvs():
        metrics = MetricsRegistry()
        report = run_lvs(flow.gds_bytes, mapped, pdk, expected_pins=pins,
                         metrics=metrics)
        return report, metrics.counter("extract.shapes").value

    report, shapes = benchmark.pedantic(lvs, rounds=5, iterations=1)
    assert report.clean, report.mismatches[:5]
    assert report.lec_equivalent is True
    assert shapes == 10055
    assert report.nets_checked == 498


def test_perf_lvs_compare(benchmark):
    """The connectivity compare alone on tinycpu's COMMERCIAL layout: the
    joint colour refinement of both netlists, from one extraction."""
    pdk = get_pdk("edu130")
    flow = run_flow(generate("tinycpu").module, pdk,
                    FlowOptions(preset=COMMERCIAL, seed=1))
    mapped = flow.synthesis.mapped
    extraction = extract_netlist(flow.gds_bytes, pdk)

    mismatches, pairing = benchmark.pedantic(
        compare_netlists, args=(extraction, mapped), rounds=5, iterations=1,
    )
    assert not mismatches, mismatches[:5]
    assert len(pairing) == 497
    assert all(ext.cell.name == ref.cell.name for ext, ref in pairing)


def test_perf_fault_sim(benchmark):
    """Word-parallel stuck-at fault simulation on scan-inserted tinycpu:
    one 64-lane block per 63 faults in one wide word, one settle per
    pattern for all blocks."""
    mapped = synthesize(
        generate("tinycpu").module, get_pdk("edu130").library, verify=False
    ).mapped
    insert_scan_chain(mapped)
    report = benchmark.pedantic(
        lambda: simulate_faults(mapped, scanned=True), rounds=3, iterations=1
    )
    assert report.total_faults == 2246
    assert report.detected_faults == 1509


def test_perf_fault_sim_soc(benchmark):
    """The same on the scan-inserted soc (edu130): 147 blocks in one
    pass."""
    mapped = synthesize(
        make_soc().module, get_pdk("edu130").library, verify=False
    ).mapped
    insert_scan_chain(mapped)
    report = benchmark.pedantic(
        lambda: simulate_faults(mapped, scanned=True), rounds=3, iterations=1
    )
    assert report.total_faults == 9206
    assert report.detected_faults == 8551


def test_perf_full_flow(benchmark):
    module = build_counter()
    pdk = get_pdk("edu130")
    result = benchmark.pedantic(
        lambda: run_flow(module, pdk, FlowOptions(preset=OPEN)),
        rounds=3, iterations=1,
    )
    assert result.ok
