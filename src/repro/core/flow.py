"""The end-to-end flow runner: RTL module → signed-off GDSII.

This is the "design enablement" artifact the paper argues universities
lack: a *configured* flow where one call takes a design from RTL through
synthesis, P&R, STA, power, DRC and GDS export on a chosen PDK, with all
knobs captured in one frozen :class:`~repro.core.options.FlowOptions`
request::

    run_flow(module, pdk, FlowOptions(preset="commercial", seed=7))

Every stage runs inside a tracing span (:mod:`repro.obs`): step runtimes
in the :class:`StepReport` list are *derived from the spans*, so they are
non-overlapping by construction and sum to ≈ the flow's wall time.

Resilience (:mod:`repro.resil`) is threaded through here:

* ``options.continue_on_error`` turns hard stage failures into structured
  :class:`~repro.resil.failure.FlowFailure` records on
  :attr:`FlowResult.failures`.  Besides gates and drills, two engine
  errors are located this way, as ``crash`` failures at their step: a
  :class:`~repro.pnr.placement.PlacementError` (cells that do not fit
  their rows) and a :class:`~repro.layout.fabric.FabricError` (a layout
  the fabric cannot draw).  After a failure, every downstream stage
  that can still run does, and the result is marked
  :attr:`~FlowResult.partial`;
* ``options.checkpoints`` saves each completed stage under a content hash
  of (RTL, PDK, preset, seed) so a re-run resumes where the last one
  stopped and reproduces the cold run byte-for-byte;
* ``options.inject`` deterministically fails named stages (drills).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from ..formal.lec import LecReport, lec_flow
from ..hdl.ir import Module
from ..layout.chip import build_chip_gds
from ..layout.drc import DrcReport, check_drc
from ..layout.fabric import FabricError
from ..layout.gds import write_gds
from ..layout.lvs import LvsReport
from ..lint import Finding, LintReport, Waiver, lint_mapped, lint_module
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import Span, Tracer, get_tracer
from ..pdk.pdks import Pdk
from ..pnr.physical import PhysicalDesign, implement
from ..pnr.placement import PlacementError
from ..power.engine import PowerAnalyzer, PowerReport
from ..resil.checkpoint import StageCheckpointer, flow_cache_key, resume_or_run
from ..resil.failure import FlowFailure, InjectedFault
from ..sta.engine import TimingAnalyzer, TimingReport
from ..synth.synthesize import SynthesisResult, synthesize
from .options import FlowOptions
from .presets import FlowPreset
from .steps import FlowStep


class FlowError(Exception):
    """Raised when a flow stage fails hard (e.g. DRC violations)."""


@dataclass
class StepReport:
    step: FlowStep
    ok: bool
    runtime_s: float
    metrics: dict[str, object] = field(default_factory=dict)


@dataclass
class PpaSummary:
    """The three letters every comparison in the paper reduces to."""

    area_um2: float
    die_area_mm2: float
    fmax_mhz: float
    total_power_uw: float
    wns_ps: float
    cell_count: int

    def as_row(self) -> dict[str, float]:
        return {
            "cells": self.cell_count,
            "area_um2": round(self.area_um2, 2),
            "die_mm2": round(self.die_area_mm2, 6),
            "fmax_mhz": round(self.fmax_mhz, 2),
            "power_uw": round(self.total_power_uw, 3),
            "wns_ps": round(self.wns_ps, 2),
        }


@dataclass
class FlowResult:
    """Everything one flow run produces.

    Artifact fields are ``None`` for stages that never ran: under
    ``continue_on_error`` a failing stage records a
    :class:`~repro.resil.failure.FlowFailure` in :attr:`failures` and the
    flow keeps whatever it can still produce (:attr:`partial` is then
    true).  On the happy path every field is populated, as before.
    """

    design_name: str
    pdk_name: str
    preset: FlowPreset
    clock_period_ps: float
    steps: list[StepReport]
    synthesis: SynthesisResult | None = None
    physical: PhysicalDesign | None = None
    timing: TimingReport | None = None
    power: PowerReport | None = None
    drc: DrcReport | None = None
    gds_bytes: bytes | None = None
    ppa: PpaSummary | None = None
    #: The run's finished spans (completion order) — a trace artifact.
    trace: list[Span] = field(default_factory=list)
    #: Static-analysis verdict: RTL lint (pre-synthesis) merged with
    #: netlist lint (post-mapping).  Signoff gates on unwaived errors.
    lint: LintReport | None = None
    #: SAT-based equivalence verdicts (``options.formal_lec``): RTL vs
    #: lowered, optimized and mapped netlists.
    lec: LecReport | None = None
    #: GDS-in signoff verdict (``options.extract_lvs``): connectivity
    #: LVS of the netlist re-extracted from the exported stream bytes,
    #: including the extracted-vs-mapped LEC proof.
    lvs: LvsReport | None = None
    #: Structured failures swallowed by ``continue_on_error``.
    failures: list[FlowFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and all(step.ok for step in self.steps)

    @property
    def partial(self) -> bool:
        """True when some stage failed and the result is incomplete."""
        return bool(self.failures)

    def step(self, step: FlowStep) -> StepReport:
        for report in self.steps:
            if report.step is step:
                return report
        raise KeyError(f"no report for step {step}")

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        if self.ppa is None:
            return (
                f"{self.design_name} on {self.pdk_name} [{self.preset.name}] "
                f"{status}: partial result, "
                f"{len(self.failures)} failure(s)"
            )
        row = self.ppa.as_row()
        return (
            f"{self.design_name} on {self.pdk_name} [{self.preset.name}] "
            f"{status}: {row['cells']} cells, {row['area_um2']} um2, "
            f"fmax {row['fmax_mhz']} MHz, {row['power_uw']} uW"
        )

    # -- stable serialization ---------------------------------------------
    #
    # The JSON snapshot follows the result_signature conventions
    # (repro.campaign.cache): artifacts and verdicts in, wall clock out.
    # Heavy objects (netlists, placements, raw GDS) serialize as summary
    # dicts / digests; steps, PPA, lint and failures round-trip exactly.

    #: Schema version of :meth:`to_json`; bumped on breaking change.
    #: v2 added the ``lvs`` artifact (GDS-in signoff verdict).
    JSON_SCHEMA = 2

    #: Older schemas :meth:`from_json` still reads (purely-additive
    #: predecessors of the current version).
    _COMPAT_SCHEMAS = frozenset({1})

    def _artifact_snapshot(self) -> dict[str, object]:
        """Summary dicts for the heavyweight artifacts.

        Live objects win; a result rebuilt by :meth:`from_json` (which
        cannot resurrect netlists) falls back to the snapshot it was
        loaded with, keeping ``to_json`` a fixed point.
        """
        stash: dict = getattr(self, "_snapshot", {})

        def pick(name: str, value) -> object:
            return value if value is not None else stash.get(name)

        synthesis = None
        if self.synthesis is not None:
            synthesis = {
                "cells": len(self.synthesis.mapped.cells),
                "gates_raw": self.synthesis.opt_stats.gates_before,
                "gates_optimized": self.synthesis.opt_stats.gates_after,
                "area_um2": round(self.synthesis.mapped.area_um2(), 3),
                "rtl_lines": self.synthesis.rtl_lines,
                "equivalent": (
                    None if self.synthesis.equivalence is None
                    else self.synthesis.equivalence.passed
                ),
            }
        timing = None
        if self.timing is not None:
            timing = {
                "wns_ps": self.timing.wns_ps,
                "fmax_mhz": self.timing.fmax_mhz,
                "met": self.timing.met,
            }
        power = None
        if self.power is not None:
            power = {"total_uw": self.power.total_uw}
        drc = None
        if self.drc is not None:
            drc = {
                "clean": self.drc.clean,
                "violations": len(self.drc.violations),
            }
        gds = None
        if self.gds_bytes is not None:
            gds = {
                "sha256": hashlib.sha256(self.gds_bytes).hexdigest(),
                "n_bytes": len(self.gds_bytes),
            }
        lec = None
        if self.lec is not None:
            lec = {
                "design": self.lec.design,
                "passed": self.lec.passed,
                "stages": {
                    stage: result.equivalent
                    for stage, result in self.lec.checks.items()
                },
            }
        lvs = None
        if self.lvs is not None:
            lvs = self.lvs.to_dict()
        return {
            "synthesis": pick("synthesis", synthesis),
            "timing": pick("timing", timing),
            "power": pick("power", power),
            "drc": pick("drc", drc),
            "gds": pick("gds", gds),
            "lec": pick("lec", lec),
            "lvs": pick("lvs", lvs),
        }

    def to_json(self, indent: int | None = None) -> str:
        """Wall-clock-free JSON form of this result.

        Deterministic for a deterministic flow: step runtimes, spans and
        every other timing artifact are excluded, so two byte-identical
        runs serialize byte-identically — the diffable currency for
        workspaces and campaign caches.
        """
        preset = asdict(self.preset)
        preset["opt_passes"] = sorted(preset["opt_passes"])
        payload = {
            "schema": self.JSON_SCHEMA,
            "design": self.design_name,
            "pdk": self.pdk_name,
            "preset": preset,
            "clock_period_ps": self.clock_period_ps,
            "ok": self.ok,
            "partial": self.partial,
            "steps": [
                {"step": s.step.value, "ok": s.ok, "metrics": s.metrics}
                for s in self.steps
            ],
            "ppa": None if self.ppa is None else asdict(self.ppa),
            "lint": None if self.lint is None else {
                "findings": [f.to_dict() for f in self.lint.findings],
                "waivers": [w.to_dict() for w in self.lint.waivers],
            },
            "failures": [
                {"stage": f.stage, "message": f.message, "kind": f.kind}
                for f in self.failures
            ],
            **self._artifact_snapshot(),
        }
        return json.dumps(payload, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FlowResult":
        """Rebuild a summary view of a serialized result.

        Steps, PPA, lint and failures come back as real objects; the
        heavyweight artifacts (netlists, placements, GDS bytes) cannot be
        resurrected from summaries and stay ``None``, but their snapshot
        dicts are retained so ``result.to_json()`` round-trips exactly.
        """
        data = json.loads(text)
        schema = data.get("schema")
        if schema != cls.JSON_SCHEMA and schema not in cls._COMPAT_SCHEMAS:
            raise ValueError(
                f"unsupported FlowResult schema {schema!r} "
                f"(expected {cls.JSON_SCHEMA})"
            )
        preset_data = dict(data["preset"])
        preset_data["opt_passes"] = frozenset(preset_data["opt_passes"])
        lint = None
        if data.get("lint") is not None:
            lint = LintReport(
                findings=[
                    Finding.from_dict(f) for f in data["lint"]["findings"]
                ],
                waivers=tuple(
                    Waiver.from_dict(w) for w in data["lint"]["waivers"]
                ),
            )
        result = cls(
            design_name=data["design"],
            pdk_name=data["pdk"],
            preset=FlowPreset(**preset_data),
            clock_period_ps=data["clock_period_ps"],
            steps=[
                StepReport(
                    FlowStep(s["step"]), s["ok"], 0.0, dict(s["metrics"])
                )
                for s in data["steps"]
            ],
            ppa=None if data.get("ppa") is None
            else PpaSummary(**data["ppa"]),
            lint=lint,
            failures=[
                FlowFailure(f["stage"], f["message"], f["kind"])
                for f in data.get("failures", ())
            ],
        )
        result._snapshot = {
            name: data.get(name)
            for name in (
                "synthesis", "timing", "power", "drc", "gds", "lec", "lvs",
            )
        }
        return result


#: The backend steps implement() runs, with the PhysicalDesign field
#: each one produces.
_BACKEND_STEPS = (
    (FlowStep.FLOORPLANNING, "floorplan"),
    (FlowStep.PLACEMENT, "placement"),
    (FlowStep.CLOCK_TREE_SYNTHESIS, "clock_tree"),
    (FlowStep.ROUTING, "routing"),
)


def run_flow(
    module: Module,
    pdk: Pdk,
    options: FlowOptions | None = None,
    *,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> FlowResult:
    """Run the complete RTL→GDSII flow as described by ``options``.

    ``options`` is a :class:`~repro.core.options.FlowOptions`; omitted it
    defaults to ``FlowOptions()``.

    With ``options.strict_drc`` any DRC violation raises
    :class:`FlowError` (signoff semantics); otherwise violations are
    recorded in the report.  The linter runs twice — over the RTL before
    synthesis and over the mapped netlist after technology mapping — and
    the merged report lands on :attr:`FlowResult.lint`; lint is advisory
    unless ``options.strict_lint``.

    With ``options.continue_on_error`` a failing stage appends a
    :class:`~repro.resil.failure.FlowFailure` to
    :attr:`FlowResult.failures` instead of raising, and every stage whose
    inputs still exist runs anyway.  ``options.checkpoints`` (a
    :class:`~repro.resil.store.Store`) saves each
    completed stage keyed by a content hash of (RTL, PDK, preset, seed);
    a re-run with the same store skips finished stages.

    ``tracer``/``metrics`` follow the repo-wide DI convention: explicit
    argument, else the installed process-wide default, else (for timing)
    a private tracer, because step runtimes are span-derived.
    """
    opts = options if options is not None else FlowOptions()
    if not isinstance(opts, FlowOptions):
        raise TypeError(f"options must be FlowOptions, got {type(opts)!r}")
    preset = opts.preset
    if tracer is None:
        tracer = get_tracer()
    if not tracer.enabled:
        # Step timing is span-derived even when the caller asked for no
        # tracing; a private tracer keeps the no-op default truly free
        # for direct engine calls while the flow still measures itself.
        tracer = Tracer()
    if metrics is None:
        metrics = get_metrics()
    mark = tracer.mark()
    steps: list[StepReport] = []
    failures: list[FlowFailure] = []

    def record(
        step: FlowStep, span: Span | None, ok: bool = True, **step_metrics
    ) -> None:
        """One StepReport whose runtime is the step span's duration."""
        runtime_s = span.duration_s if span is not None else 0.0
        if span is not None:
            span.set(**step_metrics)
        steps.append(StepReport(step, ok, round(runtime_s, 6), step_metrics))
        metrics.counter(f"flow.steps.{step.value}").inc()
        metrics.histogram("flow.step_seconds").observe(runtime_s)

    def nested_span(step: FlowStep) -> Span | None:
        """The span synthesize() or implement() opened for ``step`` during
        this run.  ``find`` scans a span log shared by every thread using
        the tracer, so the steps run_flow opens record their own span."""
        return tracer.find(f"step.{step.value}", mark)

    def fail(stage: str, message: str, kind: str = "gate") -> None:
        """Record a stage failure; raise unless continue_on_error."""
        failures.append(FlowFailure(stage, message, kind))
        metrics.counter("flow.failures").inc()
        metrics.counter(f"flow.failures.{kind}").inc()
        if not opts.continue_on_error:
            raise FlowError(message)

    def drill(step: FlowStep) -> None:
        """Trip the fault-injection drill for ``step`` if one is armed."""
        if opts.inject is not None:
            opts.inject.check(step.value)

    def stage(step: FlowStep, compute, report):
        """One step in its own span: the drill, then ``compute``.  The
        step is recorded with ``report(artifact)``'s metrics, or as an
        injected failure that yields ``None``."""
        try:
            with tracer.span(f"step.{step.value}") as span:
                drill(step)
                artifact = compute()
        except InjectedFault as exc:
            record(step, span, ok=False)
            fail(exc.stage, str(exc), kind="injected")
            return None
        except FabricError as exc:
            record(step, span, ok=False)
            fail(step.value, f"layout build failed: {exc}", kind="crash")
            return None
        record(step, span, **report(artifact))
        return artifact

    def synthesis() -> SynthesisResult:
        # The drill fires only when synthesis computes: a checkpoint hit
        # skips it.
        drill(FlowStep.SYNTHESIS)
        if opts.eco is not None:
            # Hierarchical memoized synthesis + deterministic stitch; a
            # cold session recomputes every shard, so warm and cold runs
            # agree byte for byte.
            return opts.eco.synthesize(
                module, pdk.library, preset, opts.seed, tracer=tracer
            )
        return synthesize(
            module,
            pdk.library,
            objective=preset.mapping_objective,
            opt_passes=preset.opt_passes,
            sizing=preset.gate_sizing,
            max_load_per_drive_ff=preset.max_load_per_drive_ff,
            verify=preset.run_equivalence,
            verify_cycles=preset.equivalence_cycles,
            verify_seed=opts.seed,
            tracer=tracer,
        )

    ckpt: StageCheckpointer | None = None
    if opts.checkpoints is not None:
        key = flow_cache_key(module, pdk.name, preset, opts.seed)
        ckpt = StageCheckpointer(opts.checkpoints, key, resume=opts.resume)

    with tracer.span(
        "flow", design=module.name, pdk=pdk.name, preset=preset.name,
        clock_period_ps=opts.clock_period_ps,
    ) as flow_span:
        with tracer.span("step.rtl_design") as sp:
            module.validate()
        record(FlowStep.RTL_DESIGN, sp, **module.stats())

        # Pre-synthesis quality gate: advisory RTL lint.  An injected
        # eco session (repro.inter) lints per module against its memo;
        # the merged report is a pure function of the design either way.
        if opts.eco is not None:
            rtl_lint = opts.eco.lint_rtl(
                module, opts.lint_waivers, tracer=tracer
            )
        else:
            rtl_lint = lint_module(
                module, waivers=opts.lint_waivers, tracer=tracer
            )

        # -- synthesis + mapping + equivalence (checkpointable) -------------
        synth: SynthesisResult | None = None
        synth_cached = False
        try:
            synth, synth_cached = resume_or_run(
                ckpt, "synthesis", synthesis, metrics
            )
        except InjectedFault as exc:
            record(FlowStep.SYNTHESIS, None, ok=False)
            fail(exc.stage, str(exc), kind="injected")

        lint_report = rtl_lint
        lec_report: LecReport | None = None
        lvs_report: LvsReport | None = None
        if synth is not None:
            record(
                FlowStep.SYNTHESIS,
                None if synth_cached else nested_span(FlowStep.SYNTHESIS),
                gates_raw=synth.opt_stats.gates_before,
                gates_optimized=synth.opt_stats.gates_after,
                **({"cached": True} if synth_cached else {}),
            )
            record(
                FlowStep.TECHNOLOGY_MAPPING,
                None if synth_cached
                else nested_span(FlowStep.TECHNOLOGY_MAPPING),
                cells=len(synth.mapped.cells),
            )
            equivalence_ok = (
                synth.equivalence.passed
                if synth.equivalence is not None else True
            )
            record(
                FlowStep.EQUIVALENCE_CHECK,
                None if synth_cached
                else nested_span(FlowStep.EQUIVALENCE_CHECK),
                ok=equivalence_ok,
                checked=synth.equivalence is not None,
            )
            if not equivalence_ok:
                fail(
                    FlowStep.EQUIVALENCE_CHECK.value,
                    f"synthesis equivalence check failed: "
                    f"{synth.equivalence.mismatches[:3]}",
                )

            # Post-mapping quality gate: netlist lint over the mapped design.
            lint_report = rtl_lint.merge(
                lint_mapped(
                    synth.mapped, waivers=opts.lint_waivers, tracer=tracer
                )
            )
            if opts.strict_lint and not lint_report.clean:
                first = lint_report.errors[0]
                fail(
                    "lint",
                    f"lint failed with {len(lint_report.errors)} error "
                    f"finding(s), first: {first.rule} at "
                    f"{first.target}.{first.location}: {first.message}",
                )

            # Formal signoff gate: SAT-based LEC across the synthesis
            # pipeline (RTL vs lowered, optimized and mapped netlists).
            if opts.formal_lec:
                lec_report = lec_flow(
                    module, synth, tracer=tracer, metrics=metrics
                )
                if not lec_report.passed:
                    fail("formal_lec", f"LEC failed: {lec_report.summary()}")

        # -- backend: floorplan → place → CTS → route (checkpointable) ------
        physical: PhysicalDesign | None = None
        if synth is not None:
            fault: FlowFailure | None = None
            try:
                physical = implement(
                    synth.mapped,
                    pdk,
                    utilization=preset.utilization,
                    detailed_placement_passes=preset.detailed_placement_passes,
                    cts_buffering=preset.cts_buffering,
                    router_rip_up=preset.router_rip_up,
                    placer=preset.placer,
                    seed=opts.seed,
                    tracer=tracer,
                    metrics=metrics,
                    checkpoints=ckpt,
                    inject=opts.inject,
                    eco=opts.eco,
                )
            except InjectedFault as exc:
                fault = FlowFailure(exc.stage, str(exc), "injected")
            except PlacementError as exc:
                fault = FlowFailure(FlowStep.PLACEMENT.value,
                                    f"placement failed: {exc}", "crash")
            # A fault ends the backend at its step: the steps that
            # finished before it report no metrics.
            for step, name in _BACKEND_STEPS:
                span = nested_span(step)
                if fault is None:
                    record(step, span, **getattr(physical, name).stats())
                elif step.value == fault.stage:
                    record(step, span, ok=False)
                    break
                else:
                    record(step, span)
            if fault is not None:
                fail(fault.stage, fault.message, fault.kind)

        # -- analysis + signoff stages --------------------------------------
        timing: TimingReport | None = None
        power: PowerReport | None = None
        drc: DrcReport | None = None
        gds_bytes: bytes | None = None
        gds_library = None
        if physical is not None:
            timing = stage(
                FlowStep.STATIC_TIMING_ANALYSIS,
                lambda: TimingAnalyzer(
                    synth.mapped,
                    pdk.node,
                    wire_lengths_um=physical.wire_lengths(),
                    skew_ps=physical.clock_tree.skew_map(),
                    tracer=tracer,
                    metrics=metrics,
                ).analyze(opts.clock_period_ps),
                lambda t: {
                    "wns_ps": t.wns_ps, "met": t.met, "fmax_mhz": t.fmax_mhz,
                },
            )
            power = stage(
                FlowStep.POWER_ANALYSIS,
                lambda: PowerAnalyzer(
                    synth.mapped, pdk.node,
                    wire_lengths_um=physical.wire_lengths(),
                    tracer=tracer,
                    metrics=metrics,
                ).analyze(min(
                    timing.fmax_mhz if timing is not None else float("inf"),
                    1e6 / opts.clock_period_ps,
                )),
                lambda p: {"total_uw": p.total_uw},
            )

            def design_rule_check() -> DrcReport:
                # GDS export streams out the library DRC checked.
                nonlocal gds_library
                gds_library = build_chip_gds(physical)
                return check_drc(
                    gds_library, pdk.layers, physical.mapped.name,
                    tracer=tracer,
                )

            drc = stage(
                FlowStep.DESIGN_RULE_CHECK, design_rule_check,
                lambda d: {"ok": d.clean, "violations": len(d.violations)},
            )
            if drc is not None and opts.strict_drc and not drc.clean:
                fail(
                    FlowStep.DESIGN_RULE_CHECK.value,
                    f"DRC failed: {drc.summary()}",
                )
            # A drilled DRC leaves the export to build the layout; one the
            # fabric could not build leaves nothing to export.
            if drc is not None or failures[-1].kind == "injected":
                gds_bytes = stage(
                    FlowStep.GDS_EXPORT,
                    lambda: write_gds(
                        gds_library if gds_library is not None
                        else build_chip_gds(physical)
                    ),
                    lambda data: {"bytes": len(data)},
                )

        # GDS-in signoff: the exported *bytes* are re-parsed, the
        # netlist re-extracted from geometry alone, and the result
        # compared (and LEC-proved) against the mapped netlist.  Spans
        # open under ``extract.*``, not a FlowStep — the mask never
        # leaves the flow, so this is a gate, not a pipeline stage.
        if opts.extract_lvs and gds_bytes is not None:
            from ..extract import run_lvs

            lvs_report = run_lvs(
                gds_bytes, synth.mapped, pdk,
                expected_pins={
                    pin.name for pin in physical.floorplan.io_pins
                },
                tracer=tracer, metrics=metrics,
            )
            if not lvs_report.clean:
                fail("extract_lvs", f"LVS failed: {lvs_report.summary()}")

        flow_span.set(
            ok=not failures and all(step.ok for step in steps),
            failures=len(failures),
        )

    metrics.counter("flow.runs").inc()
    if failures:
        metrics.counter("flow.runs_partial").inc()
    metrics.histogram("flow.run_seconds").observe(flow_span.duration_s)

    ppa = None
    if timing is not None and power is not None:
        ppa = PpaSummary(
            area_um2=synth.mapped.area_um2(),
            die_area_mm2=physical.die_area_mm2,
            fmax_mhz=timing.fmax_mhz,
            total_power_uw=power.total_uw,
            wns_ps=timing.wns_ps,
            cell_count=len(synth.mapped.cells),
        )
    return FlowResult(
        design_name=module.name,
        pdk_name=pdk.name,
        preset=preset,
        clock_period_ps=opts.clock_period_ps,
        steps=steps,
        synthesis=synth,
        physical=physical,
        timing=timing,
        power=power,
        drc=drc,
        gds_bytes=gds_bytes,
        ppa=ppa,
        trace=tracer.since(mark),
        lint=lint_report,
        lec=lec_report,
        lvs=lvs_report,
        failures=failures,
    )
