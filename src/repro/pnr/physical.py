"""Physical implementation orchestration: floorplan → place → CTS → route.

:func:`implement` is the backend entry point used by the flow runner; the
returned :class:`PhysicalDesign` carries everything signoff needs (routed
wire lengths for STA/power, clock skew map, die geometry for GDS export).

Each backend stage is individually checkpointable: pass a
:class:`~repro.resil.checkpoint.StageCheckpointer` and every completed
stage is serialized immediately, so a flow interrupted after placement
resumes with the identical placement and only recomputes what is
missing.  ``inject`` accepts a :class:`~repro.resil.faults.FaultInjector`
drill that deterministically fails named stages.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import Tracer, get_tracer
from ..pdk.pdks import Pdk
from ..resil.checkpoint import StageCheckpointer, resume_or_run
from ..resil.faults import FaultInjector
from ..synth.mapped import MappedNetlist
from .cts import ClockTree, synthesize_clock_tree
from .floorplan import Floorplan, make_floorplan
from .hier import hier_place, hier_quantize_um2, hier_utilization
from .placement import Placement, place, random_place
from .route import RoutingResult, grid_capacity, route


@dataclass
class PhysicalDesign:
    """The output of the backend flow for one mapped netlist."""

    mapped: MappedNetlist
    pdk: Pdk
    floorplan: Floorplan
    placement: Placement
    clock_tree: ClockTree
    routing: RoutingResult

    @property
    def die_area_mm2(self) -> float:
        return self.floorplan.die_area_mm2

    def wire_lengths(self) -> dict[int, float]:
        return self.routing.wire_lengths()

    def report(self) -> dict[str, object]:
        return {
            "design": self.mapped.name,
            "pdk": self.pdk.name,
            "cells": len(self.mapped.cells),
            "die_area_mm2": round(self.die_area_mm2, 6),
            "hpwl_um": self.placement.hpwl_um,
            "routed_wirelength_um": round(
                self.routing.total_wirelength_um, 3
            ),
            "routing_overflow": self.routing.overflow,
            "clock_skew_ps": round(self.clock_tree.skew_ps, 3),
            "clock_buffers": len(self.clock_tree.buffers),
        }


def implement(
    mapped: MappedNetlist,
    pdk: Pdk,
    utilization: float = 0.7,
    detailed_placement_passes: int = 0,
    cts_buffering: bool = True,
    router_rip_up: bool = True,
    placer: str = "quadratic",
    seed: int = 1,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    checkpoints: StageCheckpointer | None = None,
    inject: FaultInjector | None = None,
    eco: object | None = None,
) -> PhysicalDesign:
    """Run the full backend on ``mapped`` with the given knobs.

    The knobs correspond one-to-one to the preset differences (experiment
    E4) and the ablation benchmarks: detailed placement passes, CTS
    buffering, router rip-up and the placer algorithm itself.  ``tracer``
    (default: the process tracer) receives one span per backend flow step
    plus sub-spans for the inner phases; tracing never changes results.
    ``checkpoints`` loads completed stages and saves fresh ones as they
    finish; a loaded stage's span carries ``cached=True`` and takes
    effectively no time.  ``inject`` fails named stages on purpose
    (resilience drills) by raising
    :class:`~repro.resil.failure.InjectedFault` at stage entry, before
    the checkpoint lookup, so a drill fires on a warm store too.

    ``placer="hier"`` selects the region-stable hierarchical placer
    (:mod:`repro.pnr.hier`): the floorplan is quantized so small netlist
    edits keep the die, and each instance subtree places inside its own
    region, so untouched logic keeps seed-stable positions across edits.
    ``eco`` (an :class:`repro.inter.EcoSession`) replaces the routing
    call with its verified-replay router — byte-identical to a cold
    route, but substituting recorded paths whose cost landscape provably
    did not change.
    """
    if tracer is None:
        tracer = get_tracer()
    if metrics is None:
        metrics = get_metrics()

    def stage(step: str, checkpoint: str, compute, **attributes):
        """One backend step in its ``step.<step>`` span: the drill fires,
        then the ``checkpoint`` artifact is resumed or computed."""
        with tracer.span(f"step.{step}", **attributes) as sp:
            if inject is not None:
                inject.check(step)
            artifact, cached = resume_or_run(
                checkpoints, checkpoint, compute, metrics
            )
            if cached:
                sp.set(cached=True)
            sp.set(**artifact.stats())
        return artifact

    def place_cells() -> Placement:
        if placer == "quadratic":
            return place(
                mapped, floorplan,
                detailed_passes=detailed_placement_passes, seed=seed,
                tracer=tracer,
            )
        if placer == "hier":
            return hier_place(mapped, floorplan, tracer=tracer)
        if placer == "random":
            return random_place(mapped, floorplan, seed=seed)
        raise ValueError(f"unknown placer {placer!r}")

    hier = placer == "hier"
    floorplan = stage(
        "floorplanning", "floorplan",
        lambda: make_floorplan(
            mapped, pdk.node,
            utilization=(
                hier_utilization(mapped, pdk.node, utilization)
                if hier else utilization
            ),
            quantize_um2=hier_quantize_um2(pdk.node) if hier else None,
        ),
    )
    placement = stage("placement", "placement", place_cells, placer=placer)
    clock_tree = stage(
        "clock_tree_synthesis", "clock_tree",
        lambda: synthesize_clock_tree(
            placement, mapped.library, pdk.node, buffering=cts_buffering,
            tracer=tracer,
        ),
    )
    routing = stage(
        "routing", "routing",
        lambda: (route if eco is None else eco.route)(
            mapped, placement, pdk.node, rip_up=router_rip_up,
            capacity=grid_capacity(pdk.node, pdk.layers), max_iterations=8,
            tracer=tracer,
        ),
    )
    metrics.counter("pnr.implementations").inc()
    return PhysicalDesign(
        mapped=mapped,
        pdk=pdk,
        floorplan=floorplan,
        placement=placement,
        clock_tree=clock_tree,
        routing=routing,
    )
