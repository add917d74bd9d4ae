"""Logic synthesis: lowering, optimization, technology mapping, checking."""

from .dft import (
    DftError,
    FaultSimReport,
    FaultSite,
    ScanReport,
    coverage_estimate,
    fault_sites,
    insert_scan_chain,
    simulate_faults,
)
from .lower import Lowerer, lower
from .mapped import CellInst, MappedNetlist
from .mapper import MapStats, tech_map
from .netlist import FlipFlop, Gate, GateNetlist
from .opt import ALL_PASSES, OptStats, dead_code_elim, optimize
from .sizing import BufferStats, SizingStats, buffer_heavy_nets, size_for_load
from .synthesize import SynthesisResult, synthesize
from .verify import EquivalenceResult, check_equivalence

__all__ = [
    "ALL_PASSES",
    "BufferStats",
    "CellInst",
    "DftError",
    "EquivalenceResult",
    "FaultSimReport",
    "FaultSite",
    "FlipFlop",
    "Gate",
    "GateNetlist",
    "Lowerer",
    "MapStats",
    "MappedNetlist",
    "OptStats",
    "ScanReport",
    "SizingStats",
    "SynthesisResult",
    "buffer_heavy_nets",
    "check_equivalence",
    "coverage_estimate",
    "dead_code_elim",
    "fault_sites",
    "insert_scan_chain",
    "simulate_faults",
    "lower",
    "optimize",
    "size_for_load",
    "synthesize",
    "tech_map",
]
