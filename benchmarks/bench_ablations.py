"""Ablations of the flow's design choices (DESIGN.md ablation list).

Each ablation switches one engine feature off and measures the damage:
optimization passes, mapper objective, placer algorithm, router rip-up,
CTS buffering, and gate sizing.
"""

from conftest import build_alu_design, build_mac_pipe, once, print_table

from repro.pdk import get_pdk
from repro.pnr import (
    make_floorplan,
    place,
    random_place,
    route,
    synthesize_clock_tree,
)
from repro.sta import TimingAnalyzer
from repro.synth import lower, optimize, synthesize, tech_map


def test_ablation_opt_passes(benchmark):
    module = build_alu_design()
    netlist = lower(module)

    def run():
        rows = []
        for label, passes in (
            ("none", frozenset()),
            ("fold", frozenset({"fold"})),
            ("fold+strash", frozenset({"fold", "strash"})),
            ("full", frozenset({"fold", "strash", "dce"})),
        ):
            optimized, stats = optimize(netlist, passes=passes)
            rows.append(
                {"passes": label, "gates": len(optimized.gates),
                 "iterations": stats.iterations}
            )
        return rows

    rows = once(benchmark, run)
    print_table("ablation: optimization pass groups", rows)
    gates = [row["gates"] for row in rows]
    assert gates[-1] <= gates[1] <= gates[0]  # each group helps or ties


def test_ablation_mapper_objective(benchmark):
    module = build_alu_design()
    library = get_pdk("edu130").library
    optimized, _ = optimize(lower(module))

    def run():
        area_mapped, _ = tech_map(optimized, library, objective="area")
        delay_mapped, _ = tech_map(optimized, library, objective="delay")
        return area_mapped, delay_mapped

    area_mapped, delay_mapped = once(benchmark, run)
    rows = [
        {"objective": "area", "cells": len(area_mapped.cells),
         "area_um2": round(area_mapped.area_um2(), 1)},
        {"objective": "delay", "cells": len(delay_mapped.cells),
         "area_um2": round(delay_mapped.area_um2(), 1)},
    ]
    print_table("ablation: mapping objective", rows)
    assert area_mapped.area_um2() <= delay_mapped.area_um2()


def test_ablation_placer(benchmark):
    pdk = get_pdk("edu130")
    mapped = synthesize(build_mac_pipe(), pdk.library).mapped
    floorplan = make_floorplan(mapped, pdk.node, utilization=0.35)

    def run():
        quad = place(mapped, floorplan)
        rand = random_place(mapped, floorplan, seed=7)
        return quad, rand

    quad, rand = once(benchmark, run)
    rows = [
        {"placer": "quadratic", "hpwl_um": quad.hpwl_um},
        {"placer": "random", "hpwl_um": rand.hpwl_um},
    ]
    print_table("ablation: placement algorithm", rows)
    improvement = rand.hpwl_um / quad.hpwl_um
    print(f"  quadratic placement improves HPWL {improvement:.2f}x")
    assert improvement > 1.2


def test_ablation_router_ripup(benchmark):
    """Rip-up at 4 tracks per grid cell, a quarter of edu130's: the
    contained placement routes clean at full capacity, and at 4 tracks
    one pass still overflows."""
    pdk = get_pdk("edu130")
    mapped = synthesize(build_mac_pipe(), pdk.library).mapped
    placement = place(
        mapped, make_floorplan(mapped, pdk.node, utilization=0.6)
    )

    def run():
        return tuple(
            route(mapped, placement, pdk.node, rip_up=rip_up, capacity=4,
                  max_iterations=8)
            for rip_up in (False, True)
        )

    congested, relaxed = once(benchmark, run)
    rows = [
        {"rip_up": False, "overflow": congested.overflow,
         "iterations": congested.iterations},
        {"rip_up": True, "overflow": relaxed.overflow,
         "iterations": relaxed.iterations},
    ]
    print_table("ablation: router rip-up and re-route", rows)
    assert congested.overflow > 0
    assert relaxed.overflow < congested.overflow


def test_ablation_cts_buffering(benchmark):
    pdk = get_pdk("edu130")
    mapped = synthesize(build_mac_pipe(), pdk.library).mapped
    floorplan = make_floorplan(mapped, pdk.node, utilization=0.35)
    placement = place(mapped, floorplan)

    def run():
        buffered = synthesize_clock_tree(placement, mapped.library,
                                         pdk.node, buffering=True)
        bare = synthesize_clock_tree(placement, mapped.library,
                                     pdk.node, buffering=False)
        return buffered, bare

    buffered, bare = once(benchmark, run)
    rows = [
        {"buffering": True, "skew_ps": round(buffered.skew_ps, 2),
         "buffers": len(buffered.buffers)},
        {"buffering": False, "skew_ps": round(bare.skew_ps, 2),
         "buffers": 0},
    ]
    print_table("ablation: clock-tree buffering", rows)
    assert buffered.skew_ps <= bare.skew_ps


def test_ablation_gate_sizing(benchmark):
    pdk = get_pdk("edu130")
    module = build_mac_pipe()

    def run():
        unsized = synthesize(module, pdk.library, sizing=False)
        sized = synthesize(module, pdk.library, sizing=True,
                           max_load_per_drive_ff=2.5)
        t_unsized = TimingAnalyzer(unsized.mapped, pdk.node).minimum_period_ps()
        t_sized = TimingAnalyzer(sized.mapped, pdk.node).minimum_period_ps()
        return unsized, sized, t_unsized, t_sized

    unsized, sized, t_unsized, t_sized = once(benchmark, run)
    rows = [
        {"sizing": False, "min_period_ps": round(t_unsized, 1),
         "area_um2": round(unsized.mapped.area_um2(), 1)},
        {"sizing": True, "min_period_ps": round(t_sized, 1),
         "area_um2": round(sized.mapped.area_um2(), 1)},
    ]
    print_table("ablation: gate sizing", rows)
    assert t_sized < t_unsized  # faster
    assert sized.mapped.area_um2() > unsized.mapped.area_um2()  # for area
