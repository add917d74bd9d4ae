"""Seeded GDS trojan injection: the must-fail half of layout signoff.

A verification flow that has never caught a bad layout proves nothing,
so — mirroring :func:`repro.formal.lec.mutate_netlist` — this module
plants one deterministic, seeded defect in an otherwise-good GDSII
stream and the CI gate asserts LVS v2 (or the downstream LEC miter)
rejects every mutant.  The four classes cover the classic hardware
trojan taxonomy at mask level:

``rogue_gate``
    An extra cell placement overlapping an existing one — its pin pads
    short onto live nets.  Caught by the cell census and by
    connectivity compare.
``reroute``
    One net-purpose ``met1`` wire nudged off its lattice line — opens
    the original net and may short a neighbour.  Census-invisible;
    caught by connectivity compare / floating-geometry detection.
``delete_via``
    One ``via1`` cut removed — a silent open.  Census-invisible.
``swap_cells``
    Two placements of *different* masters trade positions.  Cell counts
    are identical, so the census pass stays green by construction; only
    connectivity compare or the LEC miter can object.

Not every class applies to every layout (a single-row design may route
without ``via1`` cuts); inapplicable kinds raise :class:`ValueError`
and callers skip or pick another seed.
"""

from __future__ import annotations

import random

import numpy as np

from ..layout.gds import GdsSRef, read_gds, write_gds
from ..pdk.layers import NET_DATATYPE
from .identify import infer_top

#: All trojan classes, in the order ``seed % len`` cycles through.
TROJAN_KINDS = ("rogue_gate", "reroute", "delete_via", "swap_cells")

# The gds layer numbers are uniform across the educational PDKs
# (repro.pdk.layers.make_layer_stack), so mutation does not need a Pdk.
_LI = 3
_MET1 = 10
_VIA1 = 30


def _net_rects(top, layer: int) -> list[int]:
    """Rows of ``top``'s rectangle table that are net-purpose rects on a
    layer."""
    rows = top.rects
    return np.flatnonzero(
        (rows[:, 0] == layer) & (rows[:, 1] == NET_DATATYPE)
    ).tolist()


def mutate_gds(
    data: bytes, seed: int = 0, kind: str | None = None
) -> tuple[bytes, str]:
    """A copy of the stream with exactly one seeded trojan planted.

    ``kind`` picks the trojan class (default: ``seed`` cycles through
    :data:`TROJAN_KINDS`).  Returns ``(mutant_bytes, description)``;
    raises :class:`ValueError` when the class has nothing to attack in
    this layout.  Parsing re-serializes the stream, so the mutant is a
    plausible tool output, not a byte-patched original.
    """
    if kind is None:
        kind = TROJAN_KINDS[seed % len(TROJAN_KINDS)]
    if kind not in TROJAN_KINDS:
        raise ValueError(f"unknown trojan kind {kind!r}")
    rng = random.Random((seed, kind).__repr__())
    library = read_gds(data)
    top = infer_top(library)

    if kind == "rogue_gate":
        if not top.srefs:
            raise ValueError("no placements to duplicate")
        victim = rng.choice(top.srefs)
        x, y = victim.position
        top.srefs.append(GdsSRef(victim.struct_name, (x + 2, y + 2)))
        description = (
            f"rogue {victim.struct_name} placed at ({x + 2}, {y + 2}) nm, "
            f"pads shorting the instance at ({x}, {y})"
        )
    elif kind == "reroute":
        candidates = _net_rects(top, _MET1)
        if not candidates:
            raise ValueError("no net-purpose met1 wires to reroute")
        index = rng.choice(candidates)
        # Two lattice steps: off the original line, possibly onto a
        # neighbouring net's — an open either way, sometimes a short.
        top.move_rect(index, 0, 8)
        x0, y0 = top.rects[index, 2:4].tolist()
        description = f"rerouted met1 wire near ({x0}, {y0}) nm by +8 nm"
    elif kind == "delete_via":
        candidates = _net_rects(top, _VIA1)
        if not candidates:
            raise ValueError("no via1 cuts to delete")
        index = rng.choice(candidates)
        x0, y0 = top.rects[index, 2:4].tolist()
        top.remove_rect(index)
        description = f"deleted via1 cut at ({x0}, {y0}) nm"
    else:  # swap_cells
        by_master: dict[str, list[int]] = {}
        for index, sref in enumerate(top.srefs):
            by_master.setdefault(sref.struct_name, []).append(index)
        if len(by_master) < 2:
            raise ValueError("fewer than two distinct masters placed")
        name_a, name_b = rng.sample(sorted(by_master), 2)
        a = top.srefs[rng.choice(by_master[name_a])]
        b = top.srefs[rng.choice(by_master[name_b])]
        pos_a, pos_b = a.position, b.position
        a.position, b.position = pos_b, pos_a
        description = (
            f"swapped {name_a} at {pos_a} with {name_b} at {pos_b} "
            f"(cell census unchanged)"
        )
    return write_gds(library), f"{kind}: {description}"
