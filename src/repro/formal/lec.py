"""Miter-based logic equivalence checking.

Two designs are equivalent when no input/state assignment makes any
output or register next-value differ.  The check builds both designs'
combinational cones into **one shared AIG** (so identical logic hashes
to identical nodes — most cones of an honest synthesis run collapse to
the *same literal* and need no SAT call at all), then for each cone
constructs a miter::

            inputs + current state (shared pseudo-inputs)
                 │                    │
          ┌──────┴──────┐      ┌──────┴──────┐
          │  reference  │      │    impl     │
          └──────┬──────┘      └──────┬──────┘
                 │   bit-wise XOR     │
                 └─────────┬──────────┘
                        OR-reduce
                           │
                        diff  ──── SAT?  UNSAT ⇒ equivalent

A satisfying assignment of ``diff`` is a **counterexample**: an exact
input vector and register state under which the two designs disagree.
It is extracted as plain ``{name: value}`` dicts that replay directly
in simulation (:func:`replay_counterexamples`: the RTL interpreter
against a packed implementation simulator, one lane per witness) — a
proof a student can watch fail in simulation.

Register correspondence is by name: the lowerer stamps each flip-flop
with the ``reg[bit]`` label of the RTL register bit it implements, the
optimizer and mapper preserve it, and the builders in
:mod:`repro.formal.aig` group the labels back into words.  Sequential
equivalence then reduces to per-cone combinational equivalence over the
outputs and the register next-state functions, plus a static reset-value
comparison.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field

from ..hdl.ir import Module
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import Tracer, get_tracer
from ..synth.lower import lower
from ..synth.mapped import MappedNetlist
from ..synth.netlist import Gate, GateNetlist
from ..synth.verify import Mismatch, replay_mismatches
from .aig import FALSE, Aig, CombCones, build_cones, word_value
from .cnf import tseitin
from .sat import CdclSolver, SolverStats


class LecError(Exception):
    """Raised when two designs cannot even be compared (structural
    mismatch of ports or registers) or a report file is malformed."""


@dataclass
class Counterexample:
    """One satisfying assignment of a miter: a disagreement witness."""

    cone: str  # output name or "next(<register>)"
    kind: str  # "output" | "state" | "reset"
    inputs: dict[str, int] = field(default_factory=dict)
    state: dict[str, int] = field(default_factory=dict)
    expect: int = 0  # reference value of the cone word
    got: int = 0  # implementation value of the cone word

    def __str__(self) -> str:
        return (
            f"{self.cone}: ref={self.expect} impl={self.got} under "
            f"inputs={self.inputs} state={self.state}"
        )

    def as_mismatch(self) -> Mismatch:
        """The simulator-replayable record (cycle 0 by construction):
        the witness :func:`replay_counterexamples` hands to
        :func:`repro.synth.verify.replay_mismatches`."""
        return Mismatch(
            cycle=0,
            output=self.cone,
            expect=self.expect,
            got=self.got,
            inputs=dict(self.inputs),
            state=dict(self.state),
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "cone": self.cone,
            "kind": self.kind,
            "inputs": dict(self.inputs),
            "state": dict(self.state),
            "expect": self.expect,
            "got": self.got,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Counterexample":
        return cls(
            cone=data["cone"],
            kind=data["kind"],
            inputs={k: int(v) for k, v in data.get("inputs", {}).items()},
            state={k: int(v) for k, v in data.get("state", {}).items()},
            expect=int(data.get("expect", 0)),
            got=int(data.get("got", 0)),
        )


@dataclass
class ConeVerdict:
    """The verdict for one compared cone."""

    cone: str
    kind: str  # "output" | "state" | "reset"
    status: str  # "equal" | "counterexample" | "unknown"
    proof: str  # "structural" | "sat" | "static"
    counterexample: Counterexample | None = None
    conflicts: int = 0
    decisions: int = 0

    def to_dict(self) -> dict[str, object]:
        record: dict[str, object] = {
            "cone": self.cone,
            "kind": self.kind,
            "status": self.status,
            "proof": self.proof,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
        }
        if self.counterexample is not None:
            record["counterexample"] = self.counterexample.to_dict()
        return record

    @classmethod
    def from_dict(cls, data: dict) -> "ConeVerdict":
        cex = data.get("counterexample")
        return cls(
            cone=data["cone"],
            kind=data["kind"],
            status=data["status"],
            proof=data["proof"],
            counterexample=None if cex is None
            else Counterexample.from_dict(cex),
            conflicts=int(data.get("conflicts", 0)),
            decisions=int(data.get("decisions", 0)),
        )


@dataclass
class LecResult:
    """Outcome of one pairwise equivalence check."""

    design: str
    reference: str  # "rtl" | "gates" | "mapped"
    implementation: str
    cones: list[ConeVerdict] = field(default_factory=list)
    aig_stats: dict[str, int] = field(default_factory=dict)
    sat_stats: dict[str, int] = field(default_factory=dict)

    @property
    def equivalent(self) -> bool:
        return all(v.status == "equal" for v in self.cones)

    @property
    def inconclusive(self) -> bool:
        """True when a conflict budget ran out before any verdict."""
        return any(v.status == "unknown" for v in self.cones)

    @property
    def counterexamples(self) -> list[Counterexample]:
        return [v.counterexample for v in self.cones
                if v.counterexample is not None]

    @property
    def structural_cones(self) -> int:
        """Cones the shared AIG hashed equal — proved without SAT."""
        return sum(1 for v in self.cones if v.proof == "structural")

    def summary(self) -> str:
        status = ("EQUIVALENT" if self.equivalent
                  else "INCONCLUSIVE" if self.inconclusive
                  else "NOT EQUIVALENT")
        return (
            f"{self.design}: {self.reference} vs {self.implementation} "
            f"{status} ({len(self.cones)} cones, "
            f"{self.structural_cones} structural, "
            f"{self.sat_stats.get('conflicts', 0)} conflicts, "
            f"{len(self.counterexamples)} counterexamples)"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "design": self.design,
            "reference": self.reference,
            "implementation": self.implementation,
            "equivalent": self.equivalent,
            "cones": [v.to_dict() for v in self.cones],
            "aig": dict(self.aig_stats),
            "sat": dict(self.sat_stats),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LecResult":
        return cls(
            design=data["design"],
            reference=data["reference"],
            implementation=data["implementation"],
            cones=[ConeVerdict.from_dict(v) for v in data.get("cones", ())],
            aig_stats=dict(data.get("aig", {})),
            sat_stats=dict(data.get("sat", {})),
        )


@dataclass
class LecReport:
    """The flow-level aggregation: one LEC verdict per pipeline stage."""

    design: str
    checks: dict[str, LecResult] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(
            result.equivalent for result in self.checks.values()
        )

    @property
    def counterexamples(self) -> list[tuple[str, Counterexample]]:
        return [
            (stage, cex)
            for stage, result in self.checks.items()
            for cex in result.counterexamples
        ]

    def summary(self) -> str:
        status = "PROVED" if self.passed else "FAILED"
        stages = ", ".join(
            f"{stage}={'ok' if result.equivalent else 'FAIL'}"
            for stage, result in self.checks.items()
        ) or "no stages checked"
        return f"lec {status} for {self.design}: {stages}"

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            {
                "design": self.design,
                "passed": self.passed,
                "checks": {
                    stage: result.to_dict()
                    for stage, result in self.checks.items()
                },
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "LecReport":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LecError(f"malformed LEC report: {exc}") from exc
        if not isinstance(data, dict) or "checks" not in data:
            raise LecError("LEC report has no 'checks' record")
        return cls(
            design=data.get("design", ""),
            checks={
                stage: LecResult.from_dict(result)
                for stage, result in data["checks"].items()
            },
        )


# ---------------------------------------------------------------------------
# The check itself
# ---------------------------------------------------------------------------


def _check_correspondence(ref: CombCones, impl: CombCones) -> None:
    """Ports and registers must match by name and width, or the designs
    are not comparable and the check is a usage error, not a verdict."""
    for label, ref_words, impl_words in (
        ("input", ref.inputs, impl.inputs),
        ("output", ref.outputs, impl.outputs),
        ("register", ref.state, impl.state),
    ):
        missing = sorted(set(ref_words) - set(impl_words))
        extra = sorted(set(impl_words) - set(ref_words))
        if missing or extra:
            raise LecError(
                f"{label} correspondence broken: "
                f"missing from implementation: {missing or 'none'}, "
                f"unmatched in implementation: {extra or 'none'}"
            )
        for name in ref_words:
            if len(ref_words[name]) != len(impl_words[name]):
                raise LecError(
                    f"{label} {name!r} is {len(ref_words[name])} bits in "
                    f"the reference but {len(impl_words[name])} in the "
                    f"implementation"
                )


def _extract_counterexample(
    aig: Aig,
    cnf,
    model: dict[int, bool],
    cones: CombCones,
    cone: str,
    kind: str,
    ref_lits: list[int],
    impl_lits: list[int],
) -> Counterexample:
    """Turn a SAT model into named input/state words plus both values."""

    def word(lits: list[int]) -> int:
        value = 0
        for i, lit in enumerate(lits):
            var = cnf.var_of_node.get(lit >> 1)
            bit = bool(model.get(var)) if var is not None else False
            value |= int(bit) << i
        return value

    bit_values: dict[str, int] = {}
    inputs = {}
    for name, lits in cones.inputs.items():
        inputs[name] = word(lits)
        for i, _ in enumerate(lits):
            bit_values[f"{name}[{i}]"] = (inputs[name] >> i) & 1
    state = {}
    for name, lits in cones.state.items():
        state[name] = word(lits)
        for i, _ in enumerate(lits):
            bit_values[f"{name}[{i}]"] = (state[name] >> i) & 1
    return Counterexample(
        cone=cone,
        kind=kind,
        inputs=inputs,
        state=state,
        expect=word_value(aig, bit_values, ref_lits),
        got=word_value(aig, bit_values, impl_lits),
    )


def check_lec(
    reference: Module | GateNetlist | MappedNetlist,
    implementation: GateNetlist | MappedNetlist | Module,
    max_conflicts: int | None = 100_000,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> LecResult:
    """Prove (or refute) combinational-cone equivalence of two designs.

    Both designs are built into one shared, structurally-hashed AIG;
    cones whose literals collapse to the same node are proved without
    touching the solver.  The rest go through Tseitin encoding and the
    CDCL solver; a SAT verdict yields a replayable
    :class:`Counterexample`, an exhausted ``max_conflicts`` budget an
    ``unknown`` verdict (never silently "equivalent").  Every output,
    ``next(register)`` and reset cone is compared, after port and
    register correspondence has been checked.
    """
    if tracer is None:
        tracer = get_tracer()
    if metrics is None:
        metrics = get_metrics()

    design = getattr(reference, "name", "design")
    totals = SolverStats()
    with tracer.span("formal.lec", design=design) as lec_span:
        aig = Aig(design)
        with tracer.span("formal.lec.build") as build_span:
            ref = build_cones(reference, aig)
            impl = build_cones(implementation, aig)
            if tracer.enabled:
                build_span.set(**aig.stats())
        _check_correspondence(ref, impl)

        result = LecResult(
            design=design, reference=ref.source,
            implementation=impl.source, aig_stats=aig.stats(),
        )

        # Reset values are compared statically: a register that wakes up
        # different is a day-one mismatch no combinational cone shows.
        for name, ref_reset in sorted(ref.reset_values.items()):
            impl_reset = impl.reset_values.get(name, 0)
            if ref_reset == impl_reset:
                result.cones.append(ConeVerdict(
                    f"reset({name})", "reset", "equal", "static"
                ))
            else:
                result.cones.append(ConeVerdict(
                    f"reset({name})", "reset", "counterexample", "static",
                    counterexample=Counterexample(
                        cone=f"reset({name})", kind="reset",
                        expect=ref_reset, got=impl_reset,
                    ),
                ))

        ref_cones = ref.cone_words()
        impl_cones = impl.cone_words()
        for cone, (ref_lits, kind) in sorted(ref_cones.items()):
            impl_lits = impl_cones[cone][0]
            with tracer.span("formal.lec.cone", cone=cone) as cone_span:
                diff = FALSE
                for a, b in zip(ref_lits, impl_lits):
                    diff = aig.OR(diff, aig.XOR(a, b))
                if diff == FALSE:
                    # Structural hashing folded every bit-pair equal.
                    result.cones.append(
                        ConeVerdict(cone, kind, "equal", "structural")
                    )
                    if tracer.enabled:
                        cone_span.set(status="equal", proof="structural")
                    continue
                cnf = tseitin(aig, [diff])
                solver = CdclSolver(
                    [*cnf.clauses, (cnf.lit(diff),)], cnf.n_vars
                )
                sat = solver.solve(max_conflicts=max_conflicts)
                stats = sat.stats
                totals.decisions += stats.decisions
                totals.conflicts += stats.conflicts
                totals.propagations += stats.propagations
                totals.restarts += stats.restarts
                totals.learned += stats.learned
                if sat.is_unsat:
                    verdict = ConeVerdict(
                        cone, kind, "equal", "sat",
                        conflicts=stats.conflicts,
                        decisions=stats.decisions,
                    )
                elif sat.is_sat:
                    verdict = ConeVerdict(
                        cone, kind, "counterexample", "sat",
                        counterexample=_extract_counterexample(
                            aig, cnf, sat.model, ref, cone, kind,
                            ref_lits, impl_lits,
                        ),
                        conflicts=stats.conflicts,
                        decisions=stats.decisions,
                    )
                else:
                    verdict = ConeVerdict(
                        cone, kind, "unknown", "sat",
                        conflicts=stats.conflicts,
                        decisions=stats.decisions,
                    )
                result.cones.append(verdict)
                if tracer.enabled:
                    cone_span.set(
                        status=verdict.status, vars=cnf.n_vars,
                        clauses=len(cnf.clauses),
                        conflicts=stats.conflicts,
                    )

        result.sat_stats = totals.as_dict()
        if tracer.enabled:
            lec_span.set(
                equivalent=result.equivalent,
                cones=len(result.cones),
                structural=result.structural_cones,
                conflicts=totals.conflicts,
            )

    metrics.counter("formal.lec.runs").inc()
    metrics.counter("formal.lec.cones").inc(len(result.cones))
    if result.counterexamples:
        metrics.counter("formal.lec.counterexamples").inc(
            len(result.counterexamples)
        )
    for stat, value in totals.as_dict().items():
        if value:
            metrics.counter(f"formal.sat.{stat}").inc(value)
    return result


def lec_flow(
    module: Module,
    synth,
    max_conflicts: int | None = 100_000,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> LecReport:
    """Prove the whole synthesis pipeline: RTL ↔ gates ↔ mapped.

    ``synth`` is a :class:`~repro.synth.synthesize.SynthesisResult`.
    Three stage checks:

    * ``post_synthesis`` — RTL vs the freshly lowered (unoptimized)
      gate netlist: does bit-blasting preserve the IR semantics?
    * ``post_opt`` — RTL vs the optimized netlist: did the rewrite
      passes stay sound?
    * ``post_mapping`` — RTL vs the technology-mapped cells: did
      pattern matching and sizing keep the logic?
    """
    report = LecReport(design=module.name)
    report.checks["post_synthesis"] = check_lec(
        module, lower(module), max_conflicts=max_conflicts,
        tracer=tracer, metrics=metrics,
    )
    report.checks["post_opt"] = check_lec(
        module, synth.netlist, max_conflicts=max_conflicts,
        tracer=tracer, metrics=metrics,
    )
    report.checks["post_mapping"] = check_lec(
        module, synth.mapped, max_conflicts=max_conflicts,
        tracer=tracer, metrics=metrics,
    )
    return report


# ---------------------------------------------------------------------------
# Counterexample replay + netlist mutation (the self-test of the prover)
# ---------------------------------------------------------------------------

def replay_counterexamples(
    module: Module,
    implementation: GateNetlist | MappedNetlist,
    cexes: list[Counterexample],
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> list[Mismatch | None]:
    """Replay a batch of counterexamples in simulation.

    Each witness becomes its :meth:`Counterexample.as_mismatch` record
    and the batch goes through the one replay path,
    :func:`repro.synth.verify.replay_mismatches`: the RTL interpreter
    on one side, a packed implementation simulator with one lane per
    witness on the other.  Output cones are compared before the clock
    edge, next-state cones after it.

    Returns one entry per counterexample, a batch of one included: a
    :class:`Mismatch` when the disagreement reproduces, ``None`` when it
    does not.  ``reset``-kind counterexamples are not replayable (no
    stimulus reaches a reset value) and raise ``ValueError``.
    """
    for cex in cexes:
        if cex.kind not in ("output", "state"):
            raise ValueError(f"cannot replay a {cex.kind!r} counterexample")
    return replay_mismatches(
        module, implementation, [cex.as_mismatch() for cex in cexes],
        tracer=tracer, metrics=metrics,
    )


def _safe_nets_gate(netlist: GateNetlist) -> list[int]:
    """Nets that are always acyclic to rewire onto: inputs, flop
    outputs and constants."""
    nets = [net for word in netlist.inputs.values() for net in word]
    nets.extend(ff.q for ff in netlist.dffs)
    nets.extend(netlist.const_nets)
    return nets


def mutate_netlist(
    design: GateNetlist | MappedNetlist,
    seed: int = 0,
) -> tuple[GateNetlist | MappedNetlist, str]:
    """A deep copy of ``design`` with exactly one gate input rewired.

    The replacement net is drawn (seeded, deterministic) from the
    primary inputs, flop outputs and constants, so the mutant stays
    acyclic; the rewire is the classic LEC self-test: the prover must
    find a counterexample for it, and the counterexample must reproduce
    in simulation (:func:`replay_counterexamples`).  Returns
    ``(mutant, description)``.
    Individual seeds can produce functionally-benign rewires (redundant
    logic); callers loop seeds until the prover objects.
    """
    rng = random.Random(seed)
    mutant = copy.deepcopy(design)
    if isinstance(mutant, GateNetlist):
        candidates = [
            (index, position)
            for index, gate in enumerate(mutant.gates)
            for position in range(len(gate.inputs))
        ]
        if not candidates:
            raise LecError(f"netlist {design.name!r} has no gates to mutate")
        index, position = rng.choice(candidates)
        gate = mutant.gates[index]
        choices = [n for n in _safe_nets_gate(mutant)
                   if n != gate.inputs[position]]
        if not choices:
            raise LecError("no replacement net available for mutation")
        replacement = rng.choice(choices)
        new_inputs = list(gate.inputs)
        old = new_inputs[position]
        new_inputs[position] = replacement
        mutant.gates[index] = Gate(gate.op, tuple(new_inputs), gate.output)
        description = (
            f"gate #{index} ({gate.op}) input {position}: "
            f"net {old} -> net {replacement}"
        )
    elif isinstance(mutant, MappedNetlist):
        safe = [net for word in mutant.inputs.values() for net in word]
        safe.extend(
            inst.pins[inst.cell.output] for inst in mutant.seq_cells
        )
        candidates = [
            (inst, pin)
            for inst in mutant.cells
            if not inst.cell.is_sequential
            for pin in inst.cell.inputs
            if pin in inst.pins
        ]
        if not candidates:
            raise LecError(f"netlist {design.name!r} has no cells to mutate")
        inst, pin = rng.choice(candidates)
        choices = [n for n in safe if n != inst.pins[pin]]
        if not choices:
            raise LecError("no replacement net available for mutation")
        replacement = rng.choice(choices)
        old = inst.pins[pin]
        mutant.rewire(inst, pin, replacement)
        description = (
            f"cell {inst.name} ({inst.cell.kind}) pin {pin}: "
            f"net {old} -> net {replacement}"
        )
    else:
        raise TypeError(f"cannot mutate {type(design)!r}")
    return mutant, description
