"""SAT-based formal verification: AIG, CDCL, LEC and property proving.

The simulation-based equivalence check (:mod:`repro.synth.verify`) samples
a few hundred random cycles; this package closes the corner-case gap with
proofs:

* :mod:`repro.formal.aig` — And-Inverter Graph with structural hashing
  and constant folding, plus builders that extract the combinational
  cones of a :class:`~repro.hdl.ir.Module`, a
  :class:`~repro.synth.netlist.GateNetlist` or a
  :class:`~repro.synth.mapped.MappedNetlist`;
* :mod:`repro.formal.cnf` — Tseitin CNF encoding of AIG cones;
* :mod:`repro.formal.sat` — a CDCL SAT solver (two-watched-literal
  propagation, VSIDS-style decisions, first-UIP learning, restarts);
* :mod:`repro.formal.lec` — miter-based logic equivalence checking with
  register correspondence by name and counterexamples that replay in
  simulation (:func:`~repro.formal.lec.replay_counterexamples`);
* :mod:`repro.formal.props` — SAT-proved facts (provably-constant nets,
  dead mux arms) consumable by :mod:`repro.lint`.
"""

from .aig import Aig, CombCones, build_cones, from_gate_netlist, from_mapped, from_module
from .cnf import Cnf, tseitin
from .lec import (
    Counterexample,
    LecError,
    LecReport,
    LecResult,
    check_lec,
    lec_flow,
    mutate_netlist,
    replay_counterexamples,
)
from .props import ProvedFact, prove_facts, refine_lint_report
from .sat import CdclSolver, SatResult, solve_cnf

__all__ = [
    "Aig",
    "CombCones",
    "build_cones",
    "from_module",
    "from_gate_netlist",
    "from_mapped",
    "Cnf",
    "tseitin",
    "CdclSolver",
    "SatResult",
    "solve_cnf",
    "LecError",
    "LecResult",
    "LecReport",
    "Counterexample",
    "check_lec",
    "lec_flow",
    "mutate_netlist",
    "replay_counterexamples",
    "ProvedFact",
    "prove_facts",
    "refine_lint_report",
]
