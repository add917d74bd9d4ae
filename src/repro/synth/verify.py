"""Simulation-based equivalence checking.

Runs the RTL simulator and a packed gate-level simulator (pre- or
post-mapping, :mod:`repro.sim.bitsim`) in lockstep on random stimulus
and compares every output every cycle.
This is the verification backbone of the flow: synthesis, optimization and
mapping are each checked against the original RTL semantics.

Each divergence is recorded as a structured :class:`Mismatch` — the
failing cycle, the exact input vector applied that cycle and the RTL
register state it was applied in — so CI can archive failures
(:meth:`EquivalenceResult.to_json`) and so formal counterexamples from
:mod:`repro.formal.lec` replay through the same record type and the
same routine, :func:`replay_mismatches`.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from ..hdl.ir import Module
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import Tracer, get_tracer
from ..sim.bitsim import (
    LANES,
    PackedGateSimulator,
    PackedMappedSimulator,
    PackedSimError,
    extract_lane,
    pack_word,
)
from ..sim.engine import Simulator
from .mapped import MappedNetlist
from .netlist import GateNetlist

#: Lockstep equivalence stops collecting divergences at this many
#: mismatches: past that point the netlist is plainly broken and more
#: records add noise, not signal.  The cap is serialized into
#: :meth:`EquivalenceResult.to_json` so archived failures are
#: self-describing.
MISMATCH_CAP = 10

#: Histogram buckets for packed-simulation throughput (vectors/second).
_RATE_BUCKETS = (1e2, 1e3, 1e4, 1e5, 3e5, 1e6, 3e6, 1e7)


@dataclass
class Mismatch:
    """One observed divergence between RTL and an implementation.

    ``inputs`` is the input vector applied on the failing cycle and
    ``state`` the RTL register values it was applied in — together they
    reproduce the failure directly via the simulators' ``load_state`` /
    ``set`` without replaying the whole random run.  ``gate_state``
    holds the implementation's register values on that cycle when they
    had already diverged from the RTL's (a buggy next-state function
    shows up one or more cycles before the wrong value reaches an
    output); empty means "same as ``state``".
    """

    cycle: int
    output: str
    expect: int
    got: int
    inputs: dict[str, int] = field(default_factory=dict)
    state: dict[str, int] = field(default_factory=dict)
    gate_state: dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"cycle {self.cycle}: output {self.output}: "
            f"rtl={self.expect} gate={self.got} inputs={self.inputs}"
        )

    __repr__ = __str__

    def to_dict(self) -> dict[str, object]:
        return {
            "cycle": self.cycle,
            "output": self.output,
            "expect": self.expect,
            "got": self.got,
            "inputs": dict(self.inputs),
            "state": dict(self.state),
            "gate_state": dict(self.gate_state),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Mismatch":
        return cls(
            cycle=int(data["cycle"]),
            output=data["output"],
            expect=int(data["expect"]),
            got=int(data["got"]),
            inputs={k: int(v) for k, v in data.get("inputs", {}).items()},
            state={k: int(v) for k, v in data.get("state", {}).items()},
            gate_state={
                k: int(v) for k, v in data.get("gate_state", {}).items()
            },
        )


@dataclass
class EquivalenceResult:
    """Outcome of a lockstep equivalence run.

    ``cycles`` is the number of cycles actually simulated: a run that
    early-exits at the :data:`MISMATCH_CAP` reports the cycle count at
    the point it stopped, not the requested budget.  ``mismatch_cap``
    records the cap in force so an archived failure with exactly that
    many mismatches is recognizable as truncated.
    """

    passed: bool
    cycles: int
    mismatches: list[Mismatch] = field(default_factory=list)
    seed: int | None = None
    mismatch_cap: int = MISMATCH_CAP

    def summary(self) -> str:
        status = "EQUIVALENT" if self.passed else "MISMATCH"
        return f"{status} after {self.cycles} cycles"

    def to_json(self, indent: int | None = 2) -> str:
        """The CI-archivable failure record."""
        return json.dumps(
            {
                "passed": self.passed,
                "cycles": self.cycles,
                "seed": self.seed,
                "mismatch_cap": self.mismatch_cap,
                "mismatches": [m.to_dict() for m in self.mismatches],
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "EquivalenceResult":
        data = json.loads(text)
        return cls(
            passed=bool(data["passed"]),
            cycles=int(data["cycles"]),
            mismatches=[
                Mismatch.from_dict(m) for m in data.get("mismatches", ())
            ],
            seed=data.get("seed"),
            mismatch_cap=int(data.get("mismatch_cap", MISMATCH_CAP)),
        )


def check_equivalence(
    module: Module,
    implementation: GateNetlist | MappedNetlist,
    cycles: int = 64,
    seed: int = 2025,
    engine: str = "packed",
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> EquivalenceResult:
    """Compare ``module`` (RTL reference) against an implementation.

    Random inputs are applied each cycle; all outputs are compared both
    combinationally (after input settle) and across clock edges.  The
    stimulus stream is a pure function of ``seed`` — the flow threads
    its own ``FlowOptions.seed`` through here so runs are reproducible.

    Mismatch collection stops at :data:`MISMATCH_CAP` records; the
    result then reports the cycle count actually simulated (the failing
    cycle + 1), not the requested budget.

    ``engine`` selects the simulation strategy:

    * ``"packed"`` (default) — the word-parallel fast path
      (:mod:`repro.sim.bitsim`): the RTL simulator records the random
      trajectory once, then the implementation verifies 64 cycles per
      packed pass.  Any packed divergence (or a netlist the packed
      engine cannot map onto the RTL registers) re-derives the result
      through the scalar loop, so the returned
      :class:`EquivalenceResult` — down to its JSON serialization — is
      identical to the scalar engine's for the same seed;
    * ``"scalar"`` — one vector per cycle: the lockstep loop, with the
      implementation on a one-lane packed simulator.  It defines the
      result the packed path must reproduce.

    With either engine, an RTL input or output the implementation lacks
    raises ``KeyError`` naming the port before any cycle runs, and a
    drawn input value wider than the implementation's port raises
    ``ValueError`` ("does not fit input") at the cycle that draws it.
    """
    if engine not in ("scalar", "packed"):
        raise ValueError(
            f"engine must be 'scalar' or 'packed', got {engine!r}"
        )
    if tracer is None:
        tracer = get_tracer()
    if metrics is None:
        metrics = get_metrics()
    if engine == "packed":
        result = _check_equivalence_packed(
            module, implementation, cycles, seed, tracer, metrics
        )
        if result is not None:
            return result
        metrics.counter("sim.packed.fallbacks").inc()
    return _check_equivalence_scalar(module, implementation, cycles, seed)


def _check_equivalence_scalar(
    module: Module,
    implementation: GateNetlist | MappedNetlist,
    cycles: int,
    seed: int,
) -> EquivalenceResult:
    """The lockstep loop, one vector per cycle; defines the result
    contract.

    The implementation runs on a one-lane packed simulator: each input
    is written as a one-lane word, outputs and register words are read
    from lane 0.
    """
    rtl = Simulator(module)
    impl = _packed_impl_sim(implementation, lanes=1)
    rng = random.Random(seed)

    input_sigs = list(rtl.module.inputs)
    register_names = [reg.signal.name for reg in rtl.module.registers]
    output_names = [sig.name for sig in rtl.module.outputs]
    impl_inputs = impl.input_widths()
    for sig in input_sigs:
        if sig.name not in impl_inputs:
            raise KeyError(f"implementation has no input named {sig.name!r}")
    for name in output_names:
        if name not in implementation.outputs:
            raise KeyError(f"implementation has no output named {name!r}")
    # Hand-built netlists may leave flop names empty; those registers
    # simply get no divergence snapshot (replay then reuses the RTL
    # state).
    named = impl.register_words()
    impl_registers = [name for name in register_names if name in named]
    mismatches: list[Mismatch] = []

    for cycle in range(cycles):
        state = {name: rtl.get(name) for name in register_names}
        gate_state = {
            name: extract_lane(impl.get_register(name), 0)
            for name in impl_registers
        }
        vector = {
            sig.name: rng.randrange(1 << sig.width) for sig in input_sigs
        }
        rtl.set_many(vector)
        words = {}
        for name, value in vector.items():
            width = impl_inputs[name]
            if value >> width:
                raise ValueError(
                    f"value {value} does not fit input {name!r} "
                    f"({width} bits)"
                )
            words[name] = pack_word([value], width)
        impl.set_many(words)
        for name in output_names:
            want, got = rtl.get(name), extract_lane(impl.get(name), 0)
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
        impl.step()
    return EquivalenceResult(not mismatches, cycles, mismatches, seed)


def _packed_impl_sim(impl, lanes: int = LANES):
    if isinstance(impl, GateNetlist):
        return PackedGateSimulator(impl, lanes)
    if isinstance(impl, MappedNetlist):
        return PackedMappedSimulator(impl, lanes)
    raise TypeError(f"cannot simulate implementation of type {type(impl)!r}")


def _check_equivalence_packed(
    module: Module,
    implementation: GateNetlist | MappedNetlist,
    cycles: int,
    seed: int,
    tracer: Tracer,
    metrics: MetricsRegistry,
) -> EquivalenceResult | None:
    """The word-parallel fast path; ``None`` means "use the scalar loop".

    Lockstep equivalence is inherently sequential (each cycle's state
    depends on the last), so the packed pass *forces the trajectory*:
    the cheap RTL simulator replays the seeded stimulus once, recording
    per-cycle register states, input vectors and expected outputs; the
    implementation then verifies 64 cycles per packed evaluation — each
    lane loaded with one cycle's RTL state and inputs — comparing both
    the settled outputs and the next-state register values against the
    recorded trajectory.  With the implementation's reset state checked
    up front, agreement on every transition of the trajectory implies
    (by induction) that the scalar lockstep run passes; any divergence
    returns ``None`` and the caller re-derives the exact mismatch
    records through the scalar loop.
    """
    rtl = Simulator(module)
    try:
        impl = _packed_impl_sim(implementation)
    except (PackedSimError, ValueError, KeyError):
        return None

    register_names = [reg.signal.name for reg in rtl.module.registers]
    reg_widths = {
        reg.signal.name: reg.signal.width for reg in rtl.module.registers
    }
    # The trajectory argument needs the implementation's *entire* state
    # to be forced and checked through the RTL register words: every
    # flop must belong to a named RTL register word covering exactly
    # bits 0..width-1, every RTL input/output must exist.  Anything
    # else (hand-built or renamed netlists) takes the scalar loop.
    words = impl.register_words()
    if set(words) != set(register_names):
        return None
    for name in register_names:
        if words[name] != list(range(reg_widths[name])):
            return None
    for sig in rtl.module.inputs:
        nets = implementation.inputs.get(sig.name)
        if nets is None or len(nets) != sig.width:
            return None
    out_widths = {}
    for sig in rtl.module.outputs:
        nets = implementation.outputs.get(sig.name)
        if nets is None:
            return None
        out_widths[sig.name] = max(sig.width, len(nets))
    for name in register_names:
        if extract_lane(impl.get_register(name), 0) != rtl.get(name):
            return None  # implementation wakes up in a different state

    started = time.perf_counter()
    with tracer.span(
        "sim.packed.equivalence", design=module.name, cycles=cycles
    ) as span:
        # Pass 1: scalar RTL replay records the trajectory.  The rng
        # stream is drawn exactly as the scalar loop draws it — per
        # cycle, per input signal in declaration order.
        rng = random.Random(seed)
        input_sigs = list(rtl.module.inputs)
        output_names = [sig.name for sig in rtl.module.outputs]
        vectors = [
            {
                sig.name: rng.randrange(1 << sig.width)
                for sig in input_sigs
            }
            for _ in range(cycles)
        ]
        states, expected = rtl.run_trajectory(vectors, output_names)

        # Pass 2: the implementation checks 64 trajectory cycles at once.
        clean = True
        for base in range(0, cycles, LANES):
            chunk = range(base, min(base + LANES, cycles))
            active = (1 << len(chunk)) - 1
            impl.load_state({
                name: pack_word(
                    [states[c][name] for c in chunk], reg_widths[name]
                )
                for name in register_names
            })
            impl.set_many({
                sig.name: pack_word(
                    [vectors[c][sig.name] for c in chunk], sig.width
                )
                for sig in input_sigs
            })
            for index, name in enumerate(output_names):
                got = impl.get(name)
                want = pack_word(
                    [expected[c][index] for c in chunk], out_widths[name]
                )
                got += [0] * (out_widths[name] - len(got))
                if any(
                    (g ^ w) & active for g, w in zip(got, want)
                ):
                    clean = False
                    break
            if not clean:
                break
            impl.step()
            for name in register_names:
                got = impl.get_register(name)
                want = pack_word(
                    [states[c + 1][name] for c in chunk], reg_widths[name]
                )
                if any(
                    (g ^ w) & active for g, w in zip(got, want)
                ):
                    clean = False
                    break
            if not clean:
                break
        if tracer.enabled:
            span.set(clean=clean, lanes=impl.lanes)

    elapsed = time.perf_counter() - started
    metrics.counter("sim.packed.vectors").inc(cycles)
    if elapsed > 0:
        metrics.histogram(
            "sim.packed.vectors_per_sec", buckets=_RATE_BUCKETS
        ).observe(cycles / elapsed)
    if not clean:
        # Some lane diverged: the scalar loop re-derives the exact
        # Mismatch records (cycle, inputs, state, the implementation's
        # own evolved divergence snapshots) so the result is
        # byte-identical to a scalar-engine run.
        return None
    return EquivalenceResult(True, cycles, [], seed)


def _state_cone(cone: str) -> str | None:
    """The register a ``next(<register>)`` cone names, else ``None``."""
    if cone.startswith("next(") and cone.endswith(")"):
        return cone[len("next("):-1]
    return None


def replay_mismatches(
    module: Module,
    implementation: GateNetlist | MappedNetlist,
    mismatches: list[Mismatch],
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> list[Mismatch | None]:
    """Replay a batch of witnesses: the one replay path of the toolkit.

    A witness is a :class:`Mismatch` read as: the cone (``output``, an
    output port compared after the inputs settle, or ``next(<reg>)``,
    the register compared after one clock edge), the input vector, the
    RTL register ``state`` and the implementation's state —
    ``gate_state or state``, loaded only when ``state`` is non-empty.
    Registers a witness leaves out keep their reset values and inputs
    it does not name are 0, as on a fresh simulator.

    The RTL side is the interpreter :class:`repro.sim.Simulator`, one
    instance whose every register and input is rewritten before each
    witness (reset values where the witness is silent), so replay stays
    independent of the synthesizer's own bit-blaster.  The
    implementation side is one packed simulator with one lane per
    witness, 64 lanes per chunk.

    Every witness is checked before anything simulates: an input,
    output or register either side lacks raises ``KeyError`` and an
    input value wider than its port ``ValueError``, with the same
    message whatever the batch size.

    Returns one entry per witness: a fresh :class:`Mismatch` (cycle 0)
    when the divergence reproduces, ``None`` when it does not.
    """
    if tracer is None:
        tracer = get_tracer()
    if metrics is None:
        metrics = get_metrics()
    if not mismatches:
        return []
    rtl = Simulator(module)
    impl = _packed_impl_sim(implementation)
    inputs = {sig.name: sig.width for sig in rtl.module.inputs}
    rtl_resets = {
        reg.signal.name: reg.reset_value for reg in rtl.module.registers
    }
    impl_inputs = impl.input_widths()
    impl_registers = impl.register_words()
    outputs = {sig.name for sig in rtl.module.outputs} & set(
        implementation.outputs
    )
    registers = set(rtl_resets) & set(impl_registers)

    cones: list[str | None] = []  # register of a next() cone, else None
    impl_states: list[dict[str, int]] = []
    for mismatch in mismatches:
        for name, value in mismatch.inputs.items():
            if name not in inputs or name not in impl_inputs:
                raise KeyError(f"no input named {name!r} to replay into")
            width = min(inputs[name], impl_inputs[name])
            if value < 0 or value >> width:
                raise ValueError(
                    f"value {value} does not fit input {name!r} "
                    f"({width} bits)"
                )
        impl_state = {}
        if mismatch.state:
            impl_state = mismatch.gate_state or mismatch.state
        register = _state_cone(mismatch.output)
        unknown = [
            *(name for name in mismatch.state if name not in rtl_resets),
            *(name for name in impl_state if name not in impl_registers),
        ]
        if register is not None and register not in registers:
            unknown.append(register)
        if unknown:
            raise KeyError(f"no register named {unknown[0]!r} to replay into")
        if register is None and mismatch.output not in outputs:
            raise KeyError(
                f"no output named {mismatch.output!r} to replay into"
            )
        cones.append(register)
        impl_states.append(impl_state)

    results: list[Mismatch | None] = []
    with tracer.span(
        "sim.packed.replay", design=getattr(module, "name", "design"),
        counterexamples=len(mismatches),
    ):
        # Reset values captured once, before any lane is forced: they
        # are the defaults for registers a witness leaves unconstrained.
        resets = {
            name: extract_lane(impl.get_register(name), 0)
            for name in impl_registers
        }
        for base in range(0, len(mismatches), LANES):
            chunk = mismatches[base:base + LANES]
            chunk_cones = cones[base:base + LANES]
            states = impl_states[base:base + LANES]
            # Force every register word and drive every input so no lane
            # inherits values from a previous chunk.
            impl.load_state({
                name: pack_word(
                    [state.get(name, resets[name]) for state in states],
                    1 + bits[-1],
                )
                for name, bits in impl_registers.items()
            })
            impl.set_many({
                name: pack_word([m.inputs.get(name, 0) for m in chunk], width)
                for name, width in impl_inputs.items()
            })
            # Output cones read before the clock edge...
            got = {
                lane: extract_lane(impl.get(mismatch.output), lane)
                for lane, (mismatch, register) in enumerate(
                    zip(chunk, chunk_cones)
                )
                if register is None
            }
            # ...next-state cones after it.
            if len(got) < len(chunk):
                impl.step()
                for lane, register in enumerate(chunk_cones):
                    if register is not None:
                        got[lane] = extract_lane(
                            impl.get_register(register), lane
                        )
            # The interpreter replays witness by witness: every register
            # and input is rewritten, so nothing carries over from the
            # previous witness.
            for lane, (mismatch, register) in enumerate(
                zip(chunk, chunk_cones)
            ):
                rtl.load_state({**rtl_resets, **mismatch.state})
                rtl.set_many({
                    name: mismatch.inputs.get(name, 0) for name in inputs
                })
                if register is None:
                    want = rtl.get(mismatch.output)
                else:
                    rtl.step()
                    want = rtl.get_register(register)
                results.append(None if want == got[lane] else Mismatch(
                    0, mismatch.output, want, got[lane],
                    dict(mismatch.inputs), dict(mismatch.state),
                ))
    metrics.counter("sim.packed.replays").inc(len(mismatches))
    return results
