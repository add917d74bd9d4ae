"""Eager scalar simulators and loops for the packed-engine oracle tests.

Equivalence checking and counterexample replay run on the packed
engines of :mod:`repro.sim.bitsim`: ``check_equivalence`` with
``engine="scalar"`` drives a one-lane packed simulator, and
``replay_counterexamples`` packs one witness per lane.  This module
keeps the code they replaced, so the tests and
``benchmarks/bench_sim_packed.py`` can require the same answers from
both:

* :class:`GateSimulator` and :class:`MappedSimulator` evaluate one
  vector at a time and settle after every write;
* :func:`check_equivalence_scalar` is the lockstep loop over those
  simulators that defines :class:`~repro.synth.verify.EquivalenceResult`;
* :func:`replay_counterexample_scalar` replays one formal
  counterexample on fresh scalar simulators;
* :func:`simulate_faults_chunked` is the stuck-at fault simulator that
  :func:`repro.synth.dft.simulate_faults` replaced: one 64-lane packed
  run per 63-fault chunk, every chunk drawing its own patterns, which
  defines :class:`~repro.synth.dft.FaultSimReport`.
"""

from __future__ import annotations

import random

from repro.formal.lec import Counterexample
from repro.hdl.ir import Module
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.trace import Tracer, get_tracer
from repro.sim.bitsim import PackedMappedSimulator, group_bit_labels
from repro.sim.engine import Simulator
from repro.synth.dft import FaultSimReport, fault_sites
from repro.synth.mapped import MappedNetlist
from repro.synth.netlist import GateNetlist
from repro.synth.verify import MISMATCH_CAP, EquivalenceResult, Mismatch

_EVAL = {
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "NOT": lambda a: a ^ 1,
    "BUF": lambda a: a,
}


# -- scalar simulators ----------------------------------------------------------


class GateSimulator:
    """Cycle-accurate simulator over a :class:`GateNetlist`.

    Mirrors the :class:`repro.sim.Simulator` interface closely enough for
    the equivalence checker to drive both in lockstep.
    """

    def __init__(self, netlist: GateNetlist):
        self.netlist = netlist
        self._order = netlist.topo_gates()
        self._values: list[int] = [0] * netlist.n_nets
        # Register word -> (bit index, flop Q net), by the reg[i] names.
        self._words = {
            name: [(bit, netlist.dffs[position].q) for bit, position in pairs]
            for name, pairs in group_bit_labels(
                [ff.name for ff in netlist.dffs]
            ).items()
        }
        self.reset()

    def reset(self) -> None:
        for net, value in self.netlist.const_nets.items():
            self._values[net] = value
        for ff in self.netlist.dffs:
            self._values[ff.q] = ff.reset_value
        self._settle()

    def _settle(self) -> None:
        values = self._values
        for gate in self._order:
            fn = _EVAL[gate.op]
            values[gate.output] = fn(*(values[n] for n in gate.inputs))

    def _write_input(self, name: str, value: int) -> None:
        nets = self.netlist.inputs[name]
        if not 0 <= value < (1 << len(nets)):
            raise ValueError(
                f"value {value} does not fit input {name!r} "
                f"({len(nets)} bits)"
            )
        for i, net in enumerate(nets):
            self._values[net] = (value >> i) & 1

    def set(self, name: str, value: int) -> None:
        self._write_input(name, value)
        self._settle()

    def set_many(self, values: dict[str, int]) -> None:
        """Drive several inputs, settling combinational logic once.

        Mirrors :meth:`repro.sim.Simulator.set_many` so lockstep
        loops can batch a whole cycle's stimulus into one sweep.
        """
        for name, value in values.items():
            self._write_input(name, value)
        if values:
            self._settle()

    def load_state(self, state: dict[str, int]) -> None:
        """Force register words (by flop name) to the given values.

        Keys are RTL register names; flops named ``reg[i]`` supply bit
        ``i`` of the word ``reg``.  Used to replay formal counterexamples
        from an arbitrary reachable-or-not state.
        """
        for name, value in state.items():
            if name not in self._words:
                raise KeyError(f"no register named {name!r} in netlist")
            for bit_index, q in self._words[name]:
                self._values[q] = (value >> bit_index) & 1
        self._settle()

    def get_register(self, name: str) -> int:
        """Current value of the register word ``name`` (flop-name grouping)."""
        if name not in self._words:
            raise KeyError(f"no register named {name!r} in netlist")
        return sum(
            self._values[q] << bit_index for bit_index, q in self._words[name]
        )

    def get(self, name: str) -> int:
        nets = self.netlist.outputs[name]
        return sum(self._values[net] << i for i, net in enumerate(nets))

    def step(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            next_values = [
                self._values[ff.d] for ff in self.netlist.dffs
            ]
            for ff, value in zip(self.netlist.dffs, next_values):
                self._values[ff.q] = value
            self._settle()


class MappedSimulator:
    """Gate-level simulator over a :class:`MappedNetlist`."""

    def __init__(self, mapped: MappedNetlist):
        self.mapped = mapped
        self._order = mapped.topo_comb()
        self._values: dict[int, int] = {n: 0 for n in mapped.nets()}
        # Register word -> (bit index, DFF Q net), by the reg[i] tags.
        seq = mapped.seq_cells
        self._words = {
            name: [
                (bit, seq[position].pins[seq[position].cell.output])
                for bit, position in pairs
            ]
            for name, pairs in group_bit_labels(
                [inst.tag for inst in seq]
            ).items()
        }
        self.reset()

    def reset(self) -> None:
        for inst in self.mapped.seq_cells:
            self._values[inst.pins[inst.cell.output]] = inst.reset_value
        self._settle()

    def _settle(self) -> None:
        values = self._values
        for inst in self._order:
            fn = inst.cell.function
            out = inst.pins[inst.cell.output]
            values[out] = fn(*(values[inst.pins[p]] for p in inst.cell.inputs))

    def _write_input(self, name: str, value: int) -> None:
        nets = self.mapped.inputs[name]
        if not 0 <= value < (1 << len(nets)):
            raise ValueError(f"value {value} too wide for {name!r}")
        for i, net in enumerate(nets):
            self._values[net] = (value >> i) & 1

    def set(self, name: str, value: int) -> None:
        self._write_input(name, value)
        self._settle()

    def set_many(self, values: dict[str, int]) -> None:
        """Drive several inputs, settling combinational logic once.

        Mirrors :meth:`repro.sim.Simulator.set_many` so lockstep
        loops can batch a whole cycle's stimulus into one sweep.
        """
        for name, value in values.items():
            self._write_input(name, value)
        if values:
            self._settle()

    def get(self, name: str) -> int:
        nets = self.mapped.outputs[name]
        return sum(self._values[net] << i for i, net in enumerate(nets))

    def load_state(self, state: dict[str, int]) -> None:
        """Force register words (by DFF tag) to the given values.

        Keys are RTL register names; DFF cells tagged ``reg[i]`` supply
        bit ``i`` of the word ``reg``.  Used to replay formal
        counterexamples from an arbitrary state.
        """
        for name, value in state.items():
            if name not in self._words:
                raise KeyError(f"no register named {name!r} in netlist")
            for bit_index, q in self._words[name]:
                self._values[q] = (value >> bit_index) & 1
        self._settle()

    def get_register(self, name: str) -> int:
        """Current value of the register word ``name`` (DFF-tag grouping)."""
        if name not in self._words:
            raise KeyError(f"no register named {name!r} in netlist")
        return sum(
            self._values[q] << bit_index for bit_index, q in self._words[name]
        )

    def step(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            sampled = [
                (inst, self._values[inst.pins["d"]])
                for inst in self.mapped.seq_cells
            ]
            for inst, value in sampled:
                self._values[inst.pins[inst.cell.output]] = value
            self._settle()


# -- lockstep equivalence ---------------------------------------------------------


def _gate_sim(impl):
    if isinstance(impl, GateNetlist):
        return GateSimulator(impl)
    if isinstance(impl, MappedNetlist):
        return MappedSimulator(impl)
    raise TypeError(f"cannot simulate implementation of type {type(impl)!r}")


def check_equivalence_scalar(
    module: Module,
    implementation: GateNetlist | MappedNetlist,
    cycles: int = 64,
    seed: int = 2025,
) -> EquivalenceResult:
    """The reference lockstep loop; defines the result contract."""
    rtl = Simulator(module)
    gate = _gate_sim(implementation)
    rng = random.Random(seed)

    input_sigs = list(rtl.module.inputs)
    register_names = [reg.signal.name for reg in rtl.module.registers]
    output_names = [sig.name for sig in rtl.module.outputs]
    mismatches: list[Mismatch] = []

    def impl_state() -> dict[str, int]:
        """The implementation's register words, where flops are named.

        Hand-built netlists may leave flop names empty; they simply get
        no divergence snapshot (replay then reuses the RTL state).
        """
        words: dict[str, int] = {}
        for name in register_names:
            try:
                words[name] = gate.get_register(name)
            except KeyError:
                pass
        return words

    for cycle in range(cycles):
        state = {name: rtl.get(name) for name in register_names}
        gate_state = impl_state()
        vector = {
            sig.name: rng.randrange(1 << sig.width) for sig in input_sigs
        }
        rtl.set_many(vector)
        gate.set_many(vector)
        for name in output_names:
            want, got = rtl.get(name), gate.get(name)
            if want != got:
                mismatches.append(Mismatch(
                    cycle, name, want, got, dict(vector), state,
                    {} if gate_state == state else gate_state,
                ))
                if len(mismatches) >= MISMATCH_CAP:
                    return EquivalenceResult(
                        False, cycle + 1, mismatches, seed
                    )
        rtl.step()
        gate.step()
    return EquivalenceResult(not mismatches, cycles, mismatches, seed)


# -- counterexample replay ----------------------------------------------------------


def replay_counterexample_scalar(
    module: Module,
    implementation: GateNetlist | MappedNetlist,
    cex: Counterexample,
) -> Mismatch | None:
    """One-at-a-time replay on fresh scalar simulators."""
    rtl = Simulator(module)
    if isinstance(implementation, GateNetlist):
        gate = GateSimulator(implementation)
    elif isinstance(implementation, MappedNetlist):
        gate = MappedSimulator(implementation)
    else:
        raise TypeError(
            f"cannot simulate implementation {type(implementation)!r}"
        )
    if cex.state:
        rtl.load_state(cex.state)
        gate.load_state(cex.state)
    for name, value in cex.inputs.items():
        rtl.set(name, value)
        gate.set(name, value)
    if cex.kind == "output":
        want, got = rtl.get(cex.cone), gate.get(cex.cone)
    else:
        register = cex.cone[len("next("):-1]
        rtl.step()
        gate.step()
        want, got = rtl.get_register(register), gate.get_register(register)
    if want == got:
        return None
    return Mismatch(0, cex.cone, want, got, dict(cex.inputs),
                    dict(cex.state))


# -- stuck-at fault simulation --------------------------------------------------


def simulate_faults_chunked(
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
