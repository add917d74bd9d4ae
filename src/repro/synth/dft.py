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
forces.  The fault list is cut into blocks of 63, and the whole list is
simulated in one pass of a simulator ``64 × blocks`` lanes wide: lane 0
of every 64-lane block carries the fault-free ("good") machine, and
each of the block's other lanes carries the same circuit with exactly
one stuck-at fault injected.  Every block draws its own random
patterns, so a block is the 64-lane run of its 63 faults, and one
bitwise operation per cell evaluates all blocks at once.  A fault is
*detected* when its lane's value differs from its block's lane 0 at an
observation point — the primary outputs, plus (with scan) every
flip-flop output after a capture pulse, since the chain can shift the
captured state out.  :func:`coverage_estimate` reports the measured
detected / total ratio.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import Tracer, get_tracer
from ..sim.bitsim import (
    FULL_MASK,
    LANES,
    PackedMappedSimulator,
    group_bit_labels,
)
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


#: Faulty machines per 64-lane block; lane 0 of every block carries the
#: fault-free machine its block's faults are compared against.
BLOCK_FAULTS = LANES - 1

#: Byte translation that spreads a byte's top bit over all eight bits.
_TOP_BIT = bytes(0xFF * (byte >> 7) for byte in range(256))


def fault_lane(index: int) -> int:
    """Lane of ``fault_sites(...)[index]``: the sites fill 63-fault
    blocks in order, each at lanes 1-63 of its own 64-lane block."""
    block, offset = divmod(index, BLOCK_FAULTS)
    return LANES * block + 1 + offset


def _draw_table(rng: random.Random, blocks: int, count: int) -> bytearray:
    """``count`` one-bit draws per block, block by block, one byte each.

    Byte ``blocks * i + k`` is 0xFF if block ``k``'s draw ``i`` is 1,
    else 0x00.  ``rng.getrandbits(32 * count)`` takes ``count`` generator
    outputs, the first in its least significant 32 bits, and
    ``getrandbits(1)`` is the top bit of one output, so each block reads
    the bits, and leaves the generator in the state, that ``count``
    calls of ``getrandbits(1)`` would.
    """
    table = bytearray(blocks * count)
    for block in range(blocks):
        outputs = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        table[block::blocks] = outputs[3::4]
    return table.translate(_TOP_BIT)


def _block_words(table: bytearray, blocks: int, start: int,
                 count: int) -> list[int]:
    """Lane words of draws ``start .. start + count - 1``: all 64 lanes
    of block ``k`` hold block ``k``'s draw."""
    row = memoryview(table)[blocks * start:blocks * (start + count)]
    wide = bytearray(8 * len(row))
    for byte in range(8):
        wide[byte::8] = row
    size = 8 * blocks
    view = memoryview(wide)
    return [
        int.from_bytes(view[size * i:size * (i + 1)], "little")
        for i in range(count)
    ]


def simulate_faults(
    mapped: MappedNetlist,
    scanned: bool,
    patterns: int | None = None,
    seed: int = 2025,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> FaultSimReport:
    """Word-parallel stuck-at fault simulation over the full fault list.

    The faults are split into blocks of 63 in :func:`fault_sites` order,
    and every block is one 64-lane block of a single wide simulation:
    its lane 0 is the fault-free machine and lanes 1-63 carry its faults
    (:func:`fault_lane`).  Each block draws its own random patterns, all
    of one block's before the next block's, and is compared only with
    its own lane 0:

    * ``scanned=True`` models scan-based test: every pattern loads a
      random register state (the chain makes any state controllable),
      drives random primary inputs, observes the primary outputs, then
      pulses the clock once (capture) and observes every flip-flop
      output (the chain shifts the captured state out).  Effectively a
      combinational test with full state observability.
    * ``scanned=False`` models functional test: one sequential run from
      reset, random primary inputs each cycle, observing only the
      primary outputs.  Faults buried behind sequential depth need their
      effect to propagate to an output before the budget runs out,
      which is exactly why unscanned coverage decays with pipeline
      depth.

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
    blocks = -(-len(sites) // BLOCK_FAULTS)
    detected: list[bool] = [False] * len(sites)
    with tracer.span(
        "sim.packed.faults", design=mapped.name, faults=len(sites),
        scanned=scanned, patterns=patterns,
    ) as span:
        if sites:
            seen = _simulate_blocks(
                mapped, sites, blocks, scanned, patterns, seed
            )
            flags = format(seen, f"0{LANES * blocks}b")[::-1]
            detected = [
                flags[fault_lane(index)] == "1" for index in range(len(sites))
            ]
            metrics.counter("sim.packed.vectors").inc(
                patterns * (len(sites) + blocks)
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


def _simulate_blocks(
    mapped: MappedNetlist,
    sites: list[FaultSite],
    blocks: int,
    scanned: bool,
    patterns: int,
    seed: int,
) -> int:
    """One pass over every block; the lanes whose value differed from
    their block's lane 0 at any observation point."""
    sim = PackedMappedSimulator(mapped, lanes=LANES * blocks)
    for index, site in enumerate(sites):
        sim.force(site.cell_index, site.pin, site.stuck_at, fault_lane(index))
    full = sim.mask
    lane0 = full // FULL_MASK  # bit 64k set for every block k

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
    inputs = [(name, len(nets)) for name, nets in mapped.inputs.items()]
    # Each pattern draws one bit per flop (scan only), then one per
    # input net, port by port, skipping scan_en.
    n_state = len(mapped.seq_cells) if scanned else 0
    per_pattern = n_state + sum(
        width for name, width in inputs if name != scan_en
    )
    table = _draw_table(random.Random(seed), blocks, patterns * per_pattern)

    def observe(read, names) -> int:
        """Lanes whose value of ``read(name)``, for any of ``names``,
        differs from their block's lane 0."""
        differ = 0
        for name in names:
            for word in read(name):
                # (word & lane0) * FULL_MASK spreads each block's lane 0
                # over its block; the blocks are 64 bits apart, so the
                # product has no carries.
                differ |= word ^ ((word & lane0) * FULL_MASK)
        return differ

    seen = 0
    if not scanned:
        sim.reset()  # from reset, with the forces on flop outputs
    for index in range(patterns):
        words = _block_words(
            table, blocks, index * per_pattern, per_pattern
        )
        if scanned:
            state = words[:n_state] + [0]
            sim.load_state({
                name: [state[p] for p in positions]
                for name, positions in layout.items()
            })
        drawn = iter(words[n_state:])
        shifting = full if index % 4 == 3 else 0
        sim.set_many({
            name: (
                [shifting] * width if name == scan_en
                else [next(drawn) for _ in range(width)]
            )
            for name, width in inputs
        })
        seen |= observe(sim.get, outputs)
        sim.step()  # capture; with scan the chain shifts state out
        if scanned:
            seen |= observe(sim.get_register, registers)
    return seen


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
