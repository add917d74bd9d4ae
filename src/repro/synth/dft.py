"""Design-for-test: scan-chain insertion and stuck-at fault simulation.

Section III-C notes that access to "foundries and test infrastructure"
is part of the barrier; scan insertion is the flow step that makes a
fabricated chip testable at all.  The pass stitches every flip-flop into
a shift register behind a scan multiplexer:

* new ports: ``scan_en``, ``scan_in`` (1 bit) and ``scan_out``;
* every DFF's D input goes through a MUX2 cell selecting functional data
  (``scan_en = 0``) or the previous chain element (``scan_en = 1``);
* functional behaviour with ``scan_en = 0`` is untouched (equivalence
  checked in the tests).

Testability is then *measured*, not guessed: :func:`simulate_faults` is
a word-parallel (PPSFP) stuck-at fault simulator built on
:class:`repro.sim.bitsim.PackedMappedSimulator` and its per-lane pin
forces.  Lane 0 of every 64-lane word
carries the fault-free ("good") machine; each of the other lanes
carries the same circuit with exactly one stuck-at fault injected, so
one packed pass simulates 63 faulty machines against their reference
simultaneously.  A fault is *detected* when its lane's value differs
from lane 0 at an observation point — the primary outputs, plus (with
scan) every flip-flop output after a capture pulse, since the chain
can shift the captured state out.  :func:`coverage_estimate` reports
the measured detected / total ratio.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import Tracer, get_tracer
from ..sim.bitsim import PackedMappedSimulator, group_bit_labels
from .mapped import MappedNetlist


@dataclass
class ScanReport:
    """What scan insertion did to the netlist."""

    chain_length: int
    mux_cells_added: int
    area_before_um2: float
    area_after_um2: float

    @property
    def area_overhead(self) -> float:
        if self.area_before_um2 == 0:
            return 0.0
        return self.area_after_um2 / self.area_before_um2 - 1.0


class DftError(Exception):
    """Raised when scan insertion cannot proceed."""


def insert_scan_chain(mapped: MappedNetlist) -> ScanReport:
    """Stitch all sequential cells into one scan chain, in place.

    Chain order follows cell order (placement-aware ordering is a later
    optimization in real flows).  Raises if the design has no flip-flops
    or is already scanned.
    """
    flops = mapped.seq_cells
    if not flops:
        raise DftError("design has no sequential cells to scan")
    if "scan_en" in mapped.inputs:
        raise DftError("design already has a scan chain")

    area_before = mapped.area_um2()
    scan_en = mapped.new_net()
    scan_in = mapped.new_net()
    mapped.set_port("input", "scan_en", [scan_en])
    mapped.set_port("input", "scan_in", [scan_in])

    mux_cell = mapped.library.by_kind("MUX2")
    previous = scan_in
    added = 0
    for flop in flops:
        functional_d = flop.pins["d"]
        mux_out = mapped.new_net()
        mapped.add_cell(
            mux_cell,
            {"a": functional_d, "b": previous, "s": scan_en, "y": mux_out},
        )
        added += 1
        mapped.rewire(flop, "d", mux_out)
        previous = flop.pins[flop.cell.output]

    mapped.set_port("output", "scan_out", [previous])
    return ScanReport(
        chain_length=len(flops),
        mux_cells_added=added,
        area_before_um2=round(area_before, 3),
        area_after_um2=round(mapped.area_um2(), 3),
    )


@dataclass
class FaultSite:
    """One stuck-at fault: a cell pin tied to a constant.

    A fault on the cell's *output* pin sticks the driven net (visible to
    all fanout); a fault on an *input* pin sticks only that cell's view
    of the net — the classic distinction that makes input-pin faults of
    multi-fanout nets separately testable.
    """

    cell_index: int
    pin: str
    stuck_at: int

    def describe(self, mapped: MappedNetlist) -> str:
        inst = mapped.cells[self.cell_index]
        return f"{inst.name}.{self.pin}/SA{self.stuck_at}"


@dataclass
class FaultSimReport:
    """Outcome of a word-parallel stuck-at fault-simulation run."""

    total_faults: int
    detected_faults: int
    patterns: int
    scanned: bool
    undetected: list[FaultSite]

    @property
    def coverage(self) -> float:
        if not self.total_faults:
            return 1.0
        return self.detected_faults / self.total_faults

    def summary(self) -> str:
        mode = "scan" if self.scanned else "functional"
        return (
            f"{self.detected_faults}/{self.total_faults} stuck-at faults "
            f"detected ({self.coverage:.1%}) after {self.patterns} "
            f"{mode} patterns"
        )


def fault_sites(mapped: MappedNetlist) -> list[FaultSite]:
    """The full (uncollapsed) stuck-at fault universe: both polarities
    on every cell pin, inputs and outputs alike."""
    sites: list[FaultSite] = []
    for index, inst in enumerate(mapped.cells):
        pins = list(inst.cell.inputs)
        if inst.cell.output:
            pins.append(inst.cell.output)
        for pin in pins:
            for stuck in (0, 1):
                sites.append(FaultSite(index, pin, stuck))
    return sites


def simulate_faults(
    mapped: MappedNetlist,
    scanned: bool,
    patterns: int | None = None,
    seed: int = 2025,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> FaultSimReport:
    """Word-parallel stuck-at fault simulation over the full fault list.

    Faults are packed 63 per word (lane 0 is the fault-free machine)
    and simulated against random patterns:

    * ``scanned=True`` models scan-based test: every pattern loads a
      random register state (the chain makes any state controllable),
      drives random primary inputs, observes the primary outputs, then
      pulses the clock once (capture) and observes every flip-flop
      output (the chain shifts the captured state out).  Effectively a
      combinational test with full state observability.
    * ``scanned=False`` models functional test: one sequential run from
      reset per fault chunk, random primary inputs each cycle,
      observing only the primary outputs.  Faults buried behind
      sequential depth need their effect to propagate to an output
      before the budget runs out, which is exactly why unscanned
      coverage decays with pipeline depth.

    ``patterns`` defaults to 64 scan patterns or 24 functional cycles.
    Deterministic per ``seed``.
    """
    if tracer is None:
        tracer = get_tracer()
    if metrics is None:
        metrics = get_metrics()
    if patterns is None:
        patterns = 64 if scanned else 24
    sites = fault_sites(mapped)
    sim = PackedMappedSimulator(mapped)
    mask = sim.mask
    rng = random.Random(seed)

    draw = rng.getrandbits
    n_seq = len(mapped.seq_cells)
    outputs = list(mapped.outputs)
    registers = list(sim.register_words())
    # Register word -> the flop position of each bit; position -1 (a
    # bit no flop carries) reads the constant 0 appended to the draws.
    layout: dict[str, list[int]] = {}
    for name, pairs in group_bit_labels(
        [inst.tag for inst in mapped.seq_cells]
    ).items():
        positions = layout[name] = [-1] * (1 + max(i for i, _ in pairs))
        for index, position in pairs:
            positions[index] = position
    # Scan test holds scan_en low while capturing — a shifting capture
    # observes the chain, not the logic.  Every fourth pattern shifts
    # (scan_en high) instead, so scan-path faults are exercised too.
    scan_en = "scan_en" if scanned and "scan_en" in mapped.inputs else None
    fault_lanes = sim.lanes - 1  # lane 0 carries the good machine

    def random_inputs(shifting: bool = False) -> dict[str, list[int]]:
        """Broadcast one random bit per input net, port by port."""
        return {
            name: (
                [mask * shifting] * len(nets) if name == scan_en
                else [mask * draw(1) for _ in nets]
            )
            for name, nets in mapped.inputs.items()
        }

    def observe(read, names) -> int:
        """Lanes whose value of ``read(name)``, for any of ``names``,
        differs from the good machine's (lane 0)."""
        detected = 0
        for name in names:
            for word in read(name):
                detected |= word ^ (-(word & 1) & mask)  # vs lane 0
        return detected

    detected: list[bool] = [False] * len(sites)
    with tracer.span(
        "sim.packed.faults", design=mapped.name, faults=len(sites),
        scanned=scanned, patterns=patterns,
    ) as span:
        for base in range(0, len(sites), fault_lanes):
            chunk = sites[base:base + fault_lanes]
            sim.release()
            for lane, site in enumerate(chunk, start=1):
                sim.force(site.cell_index, site.pin, site.stuck_at, lane)
            chunk_detected = 0
            if scanned:
                for index in range(patterns):
                    draws = [draw(1) for _ in range(n_seq)] + [0]
                    sim.load_state({
                        name: [mask * draws[p] for p in positions]
                        for name, positions in layout.items()
                    })
                    sim.set_many(random_inputs(shifting=index % 4 == 3))
                    chunk_detected |= observe(sim.get, outputs)
                    sim.step()  # capture; chain shifts state out
                    chunk_detected |= observe(sim.get_register, registers)
            else:
                sim.reset()
                for _ in range(patterns):
                    sim.set_many(random_inputs())
                    chunk_detected |= observe(sim.get, outputs)
                    sim.step()
            for lane, site in enumerate(chunk, start=1):
                if (chunk_detected >> lane) & 1:
                    detected[base + lane - 1] = True
            metrics.counter("sim.packed.vectors").inc(
                patterns * (len(chunk) + 1)
            )
        if tracer.enabled:
            span.set(detected=sum(detected))

    undetected = [
        site for site, hit in zip(sites, detected) if not hit
    ]
    return FaultSimReport(
        total_faults=len(sites),
        detected_faults=sum(detected),
        patterns=patterns,
        scanned=scanned,
        undetected=undetected,
    )


def coverage_estimate(
    mapped: MappedNetlist,
    scanned: bool,
    patterns: int | None = None,
    seed: int = 2025,
) -> float:
    """Measured stuck-at coverage: detected / total over the full fault
    list, via word-parallel fault simulation (:func:`simulate_faults`).

    With full scan every flip-flop is controllable and observable, so
    coverage approaches the combinational fault coverage; without scan,
    faults buried behind sequential depth must propagate to a primary
    output within the functional-pattern budget, so deeper pipelines
    measure lower.
    """
    report = simulate_faults(mapped, scanned, patterns=patterns, seed=seed)
    return round(report.coverage, 4)
