"""The four user workloads: set-up, one timed job, output checks.

Each workload is a closed loop driven by one client in one process: a
job is submitted only after the previous one returned.  A workload
object holds what its set-up built and offers

* ``run(index)`` — the one entry-point call the benchmark times;
* ``digest(index, raw)`` — the job's :class:`Outcome`, taken right after
  the call (cheap, outside the job's latency);
* ``check(outcome)`` — the output check, run after the timed phase;
  returns a problem description or ``None``;
* ``finish()`` — checks over the whole run;
* ``known_defect(outcome)`` — whether a failed job is the documented
  defect, the only failure a correct run may hold.

Layer entry points are called through their module or class attribute
(``flow.run_flow``, ``lec.check_lec``, ...), the place the traced run
wraps them.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass

import repro.core.flow as flow
import repro.extract as extract
import repro.formal.lec as lec
import repro.synth.dft as dft
import repro.synth.verify as verify
from repro.core import COMMERCIAL, CampaignRequest, EnablementHub, FlowOptions
from repro.core.licensing import User
from repro.core.steps import FlowStep
from repro.core.tiers import AccessTier
from repro.hdl.verilog import to_verilog
from repro.inter import Workspace
from repro.ip import generate, make_counter, make_fir, make_soc
from repro.ip.soc import sevenseg_recode_rtl
from repro.pdk import get_pdk

from jobs import SOC_VARIANTS, Job, Outcome

# ``repro.synth.synthesize`` names the function on the package; the
# module is what the traced run wraps.
synth = importlib.import_module("repro.synth.synthesize")

#: Mutation seeds tried per verify_sim job before giving up: a single
#: rewire can be functionally benign.
MUTATION_TRIES = 16
#: The documented layout defect: ``FabricError`` ("no shorts-free li stub
#: position") on these gray_counter widths on edu180.
FABRIC_DEFECT_WIDTHS = frozenset({7, 9, 15})


def flow_qor(result) -> dict[str, float]:
    routing = result.physical.routing
    return {
        "area_um2": result.ppa.area_um2,
        "wirelength_um": routing.total_wirelength_um,
        "power_uw": result.ppa.total_power_uw,
        "fmax_mhz": result.ppa.fmax_mhz,
        "cells": result.ppa.cell_count,
        "route_iterations": routing.iterations,
        "route_overflow": routing.overflow,
        "gds_bytes": len(result.gds_bytes),
    }


@dataclass
class FlowOutput:
    """What a flow job's output check reads: the verdicts the flow gave
    and the artifacts to re-verify.  Holding these instead of whole
    FlowResults keeps the benchmark from growing the heap it measures."""

    ok: bool
    failures: list
    drc_clean: bool
    gds_bytes: bytes
    mapped: object
    pins: set

    @classmethod
    def of(cls, result) -> "FlowOutput":
        return cls(
            ok=result.ok,
            failures=[f.message for f in result.failures],
            drc_clean=result.drc is not None and result.drc.clean,
            gds_bytes=result.gds_bytes,
            mapped=result.synthesis.mapped,
            pins={pin.name for pin in result.physical.floorplan.io_pins},
        )

    def check(self, pdk) -> str | None:
        """``ok``, DRC clean, and LVS clean and LEC-equivalent when
        re-extracted from the GDS bytes alone."""
        if not self.ok:
            return f"flow not ok: {self.failures[:2]}"
        if not self.drc_clean:
            return "DRC not clean"
        lvs = extract.run_lvs(
            self.gds_bytes, self.mapped, pdk, expected_pins=self.pins
        )
        if not lvs.clean:
            return f"LVS from GDS bytes: {lvs.mismatches[:2]}"
        if lvs.lec_equivalent is not True:
            return "extracted netlist not proved LEC-equivalent"
        return None


class Workload:
    """Defaults: no whole-run checks, no tolerated failure."""

    pdk_name = "edu130"
    #: Share of the host probe's slow-down this workload's jobs suffer
    #: (``hostspeed.adjust``), fitted on runs across the host's phases.
    host_sensitivity = 1.0

    def finish(self) -> list[str]:
        return []

    def known_defect(self, outcome: Outcome) -> bool:
        return False


class ClassSignoff(Workload):
    """BEGINNER students on edu180; one ``run_campaign`` call per
    submission on one hub, so its result cache and checkpoint store
    persist across submissions."""

    pdk_name = "edu180"

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.pdk = get_pdk(self.pdk_name)
        self.hub = EnablementHub()
        for user in sorted({job.user for job in jobs}):
            self.hub.enroll(User(user, "lab course"), AccessTier.BEGINNER)
        base = FlowOptions(formal_lec=True, extract_lvs=True)
        self.requests = [
            CampaignRequest(
                user=job.user,
                module=generate(job.design, **dict(job.params)).module,
                pdk=self.pdk_name,
                options=base.replace(clock_period_ps=job.clock_period_ps),
            )
            for job in jobs
        ]
        self._verdicts: dict[tuple, str | None] = {}

    def run(self, index: int):
        return self.hub.run_campaign([self.requests[index]], workers=0)

    def digest(self, index: int, raw) -> Outcome:
        outcome = Outcome(self.jobs[index], index)
        _, (record,) = raw
        if record.failures or record.result is None:
            # The campaign keeps only the message; the exception type is
            # recovered by replaying the job after the timed phase.
            message = record.failures[0].message if record.failures else ""
            outcome.fail("error", None, message or "no result")
            return outcome
        result = record.result
        hit = record.attempts == 0
        synthesis = result.step(FlowStep.SYNTHESIS).metrics
        outcome.qor = {
            **flow_qor(result),
            "cache_hits": int(hit),
            "resumed": int(not hit and bool(synthesis.get("cached"))),
        }
        request = self.requests[index]
        if result.design_name != request.module.name:
            outcome.keep = f"served {result.design_name} for {request.module.name}"
        elif result.clock_period_ps != request.options.clock_period_ps:
            outcome.keep = f"served a {result.clock_period_ps} ps result"
        else:
            outcome.keep = FlowOutput.of(result)
        return outcome

    def check(self, outcome: Outcome) -> str | None:
        if isinstance(outcome.keep, str):
            return outcome.keep
        # One design's layouts that match byte for byte share a verdict: a
        # cache hit or a re-clocked resume that reproduces a verified
        # layout needs no second extraction.
        job = outcome.job
        key = (job.design, job.params,
               hashlib.sha256(outcome.keep.gds_bytes).digest())
        if key not in self._verdicts:
            self._verdicts[key] = outcome.keep.check(self.pdk)
        return self._verdicts[key]

    def replay_error(self, outcome: Outcome) -> None:
        """Re-run a failed job's flow directly, for its exception type.  The
        type stands only if the replay fails with the campaign's message."""
        request = self.requests[outcome.index]
        message = outcome.message
        try:
            flow.run_flow(request.module, self.pdk, request.options)
        except Exception as exc:  # the failure under investigation
            outcome.crashed(exc)
            if outcome.message != message:
                outcome.error_type = f"unknown ({type(exc).__name__} on replay)"
                outcome.message = message
        else:
            outcome.error_type = "none on replay"

    def known_defect(self, outcome: Outcome) -> bool:
        job = outcome.job
        return (outcome.status == "error"
                and outcome.error_type == "FabricError"
                and job.design == "gray_counter"
                and dict(job.params)["width"] in FABRIC_DEFECT_WIDTHS)


class CpuClosure(Workload):
    """A research group's seed sweep: tinycpu on edu130, COMMERCIAL
    preset with GDS-in LVS, one flow per distinct seed."""

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.pdk = get_pdk(self.pdk_name)
        self.modules = [generate(job.design).module for job in jobs]
        self.options = [
            FlowOptions(preset=COMMERCIAL, seed=job.seed, extract_lvs=True)
            for job in jobs
        ]

    def run(self, index: int):
        return flow.run_flow(self.modules[index], self.pdk, self.options[index])

    def digest(self, index: int, raw) -> Outcome:
        return Outcome(self.jobs[index], index, qor=flow_qor(raw),
                       keep=FlowOutput.of(raw))

    def check(self, outcome: Outcome) -> str | None:
        return outcome.keep.check(self.pdk)


def soc_variant_rtl(module: str, variant: int) -> str:
    value = SOC_VARIANTS[module][variant]
    if module == "sevenseg":
        if value == "recoded":
            return sevenseg_recode_rtl()
        return to_verilog(generate("seven_seg").module)
    if module == "counter8":
        return to_verilog(make_counter(width=8, step=value).module)
    return to_verilog(make_fir(taps=value).module)


class SocEdit(Workload):
    """A student iterating on the soc: ``Workspace.open`` in set-up,
    then a chain of one-module ``Workspace.edit`` calls."""

    options = FlowOptions(clock_period_ps=6_000.0)

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.pdk = get_pdk(self.pdk_name)
        self.rtl = {
            (job.design, job.params): soc_variant_rtl(job.design, job.params[0][1])
            for job in jobs
        }
        self.workspace = Workspace.open(make_soc().module, self.pdk, self.options)
        #: The opening flow is a from-scratch open of the catalogue soc,
        #: which the reverted chain ends on.
        self.opened = (to_verilog(self.workspace.design),
                       self.workspace.result.gds_bytes)

    def run(self, index: int):
        job = self.jobs[index]
        return self.workspace.edit(job.design, self.rtl[job.design, job.params])

    def digest(self, index: int, raw) -> Outcome:
        outcome = Outcome(self.jobs[index], index)
        if not raw.result.ok or raw.result.ppa is None:
            messages = [f.message for f in raw.result.failures[:2]]
            outcome.fail("wrong", "OutputCheck", f"flow not ok: {messages}")
            return outcome
        outcome.qor = {
            **flow_qor(raw.result),
            "fallbacks": int(raw.fallback is not None),
            "dirty_modules": len(raw.dirty),
        }
        if raw.clean:
            outcome.keep = "edit canonicalized to no logic change"
        elif raw.fallback is not None:
            outcome.keep = f"fell back to a full rebuild: {raw.fallback}"
        elif raw.lec is None or not raw.lec.equivalent or raw.lec.inconclusive:
            outcome.keep = "cone-limited LEC did not prove the edit"
        return outcome

    def check(self, outcome: Outcome) -> str | None:
        return outcome.keep

    def finish(self) -> list[str]:
        """The final layout must equal a from-scratch open, byte for byte."""
        design = self.workspace.design
        rtl, cold_gds = self.opened
        if to_verilog(design) != rtl:
            cold_gds = Workspace.open(design, self.pdk, self.options).result.gds_bytes
        if cold_gds != self.workspace.result.gds_bytes:
            return ["final GDS differs from a from-scratch Workspace.open"]
        return []


@dataclass
class VerifyReport:
    testbench_passed: bool
    equivalent: bool
    lec_equivalent: bool
    faults: object
    mutant_cexes: int
    replays_reproduced: int
    area_um2: float
    cells: int


class VerifySim(Workload):
    """The verification suite a student runs before a flow: scalar
    testbench, packed equivalence, fault simulation, LEC and a must-fail
    mutant whose counterexamples are replayed in packed simulation."""

    #: Its small packed simulations follow the host's phases more than
    #: the probe does.
    host_sensitivity = 1.25

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.library = get_pdk(self.pdk_name).library
        self.ips = [generate(job.design, **dict(job.params)) for job in jobs]

    def run(self, index: int) -> VerifyReport:
        ip, job = self.ips[index], self.jobs[index]
        module = ip.module
        testbench = ip.verify()
        mapped = synth.synthesize(module, self.library, verify=False).mapped
        equivalence = verify.check_equivalence(module, mapped, engine="packed")
        faults = dft.simulate_faults(mapped, scanned=bool(mapped.seq_cells))
        proof = lec.check_lec(module, mapped)
        for attempt in range(MUTATION_TRIES):
            mutant, _ = lec.mutate_netlist(mapped, seed=job.seed + attempt)
            refuted = lec.check_lec(module, mutant)
            if not refuted.equivalent:
                break
        cexes = refuted.counterexamples
        replays = lec.replay_counterexamples(module, mutant, cexes)
        return VerifyReport(
            testbench_passed=testbench.passed,
            equivalent=equivalence.passed,
            lec_equivalent=proof.equivalent and not proof.inconclusive,
            faults=faults,
            mutant_cexes=len(cexes),
            replays_reproduced=sum(r is not None for r in replays),
            area_um2=mapped.area_um2(),
            cells=len(mapped.cells),
        )

    def digest(self, index: int, raw: VerifyReport) -> Outcome:
        qor = {
            "area_um2": raw.area_um2,
            "cells": raw.cells,
            "faults": raw.faults.total_faults,
            "faults_detected": raw.faults.detected_faults,
            "counterexamples": raw.mutant_cexes,
        }
        return Outcome(self.jobs[index], index, qor=qor, keep=raw)

    def check(self, outcome: Outcome) -> str | None:
        report = outcome.keep
        if not report.testbench_passed:
            return "testbench failed"
        if not report.equivalent:
            return "mapped netlist not equivalent in simulation"
        if not report.lec_equivalent:
            return "mapped netlist not proved LEC-equivalent"
        if report.mutant_cexes == 0:
            return f"no mutant refuted in {MUTATION_TRIES} tries"
        if report.replays_reproduced != report.mutant_cexes:
            return "a mutant counterexample does not reproduce in replay"
        return None


WORKLOADS = {
    "class_signoff": ClassSignoff,
    "cpu_closure": CpuClosure,
    "soc_edit": SocEdit,
    "verify_sim": VerifySim,
}
