"""GDS-in signoff: netlist extraction, connectivity LVS, trojan drills.

The package answers the question the census check cannot: *is the mask
geometry the circuit we signed off?*  :func:`extract_netlist` recovers a
gate-level netlist from GDSII bytes using only the PDK as reference;
:func:`run_lvs` compares it net-by-net against the mapped netlist and
proves equivalence with the formal LEC miter; :func:`mutate_gds` plants
seeded layout trojans that the CI gate asserts are caught.
"""

from .compare import compare_netlists, run_lvs, to_mapped
from .geom import Rect, touches
from .identify import (
    identify_masters,
    infer_top,
    master_fingerprint,
    reference_fingerprints,
)
from .netlist import ExtractedInstance, ExtractionResult, extract_netlist
from .trojan import TROJAN_KINDS, mutate_gds

__all__ = [
    "ExtractedInstance",
    "ExtractionResult",
    "Rect",
    "TROJAN_KINDS",
    "compare_netlists",
    "extract_netlist",
    "identify_masters",
    "infer_top",
    "master_fingerprint",
    "mutate_gds",
    "reference_fingerprints",
    "run_lvs",
    "to_mapped",
    "touches",
]
