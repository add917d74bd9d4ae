"""Netlist extraction from GDSII bytes.

The pipeline, given nothing but a stream and a PDK:

1. parse the stream and infer the chip-top structure;
2. identify every master structure against the PDK cell library
   (:mod:`repro.extract.identify` — name match validated by geometry,
   fingerprint fallback for renamed structs);
3. flatten all net-purpose shapes
   (:data:`repro.pdk.layers.NET_DATATYPE`) — instance pin pads carry
   their ``(instance, pin)`` owner, resolved through the master's
   ``met1``-layer pin labels;
4. one ``(n, 4)`` rect array per layer goes through the array touch
   kernel (:mod:`repro.extract.geom`): same-layer contact merges,
   ``lic`` joins ``li``/``met1``, ``via1`` joins ``met1``/``met2``;
   crossings without a cut stay separate;
5. connected components become nets, numbered in order of their lowest
   shape id; top-level port labels bind to the li pad under them;
   geometry attached to no pin or port is flagged as floating
   (legitimate fabric is always attached by construction).

The output is a gate-level view — instances with per-pin net ids plus
port bit vectors — that :mod:`repro.extract.compare` checks against the
mapped netlist and hands to the formal LEC miter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from ..layout.gds import GdsLibrary, read_gds
from ..obs.trace import get_tracer
from ..pdk.cells import StandardCell
from ..pdk.layers import NET_DATATYPE
from ..pdk.pdks import Pdk
from .geom import Rect, components, rect_array, touching_pairs
from .identify import identify_masters, infer_top

_PORT_RE = re.compile(r"^(.+)\[(\d+)\]$")


@dataclass
class ExtractedInstance:
    """One recognized cell placement with extracted pin connectivity."""

    name: str
    cell: StandardCell
    pins: dict[str, int] = field(default_factory=dict)
    position: tuple[int, int] = (0, 0)

    def __repr__(self) -> str:
        return f"ExtractedInstance({self.name}:{self.cell.name})"


@dataclass
class ExtractionResult:
    """A netlist recovered from mask geometry alone."""

    top: str
    instances: list[ExtractedInstance] = field(default_factory=list)
    n_nets: int = 0
    #: Port base name -> net ids in bit order.
    ports: dict[str, list[int]] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    shapes: int = 0
    #: Struct name -> identified library cell (for census re-checks).
    master_map: dict[str, StandardCell] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = ("ok" if self.clean
                  else f"{len(self.mismatches)} anomalies")
        return (
            f"extracted {len(self.instances)} cells / {self.n_nets} nets "
            f"from {self.shapes} shapes ({status})"
        )


def _master_pads(
    struct, cell: StandardCell, li_layer: int, met1_layer: int,
    mismatches: list[str],
) -> list[tuple[Rect, str]]:
    """(pad rect, pin name) within one master, via its met1 pin labels."""
    rows = struct.rects
    pads = list(map(tuple, rows[
        (rows[:, 0] == li_layer) & (rows[:, 1] == NET_DATATYPE), 2:
    ].tolist()))
    labels = [
        (t.text, t.position) for t in struct.texts if t.layer == met1_layer
    ]
    resolved: list[tuple[Rect, str]] = []
    claimed: set[int] = set()
    for pin, (x, y) in labels:
        hit = None
        for index, rect in enumerate(pads):
            if rect[0] <= x <= rect[2] and rect[1] <= y <= rect[3]:
                hit = index
                break
        if hit is None:
            mismatches.append(
                f"master {struct.name!r}: pin label {pin!r} sits on no pad"
            )
            continue
        claimed.add(hit)
        resolved.append((pads[hit], pin))
    if len(claimed) != len(pads):
        mismatches.append(
            f"master {struct.name!r}: {len(pads) - len(claimed)} "
            f"unlabeled pin pads"
        )
    expected = set(cell.inputs) | ({cell.output} if cell.output else set())
    found = {pin for _, pin in resolved}
    if found != expected:
        mismatches.append(
            f"master {struct.name!r}: pins {sorted(found)} do not match "
            f"cell {cell.name} pins {sorted(expected)}"
        )
    return resolved


def extract_netlist(
    source: bytes | GdsLibrary,
    pdk: Pdk,
    top_name: str | None = None,
    tracer=None,
) -> ExtractionResult:
    """Recover a gate-level netlist from GDSII bytes (or a parsed
    library) using only the PDK as reference."""
    if tracer is None:
        tracer = get_tracer()
    library = (
        read_gds(bytes(source))
        if isinstance(source, (bytes, bytearray))
        else source
    )
    if top_name is not None:
        top = library.struct(top_name)
    else:
        top = infer_top(library)
    result = ExtractionResult(top=top.name)

    li = pdk.layers.by_name("li").gds_layer
    lic = pdk.layers.by_name("lic").gds_layer
    met1 = pdk.layers.by_name("met1").gds_layer
    via1 = pdk.layers.by_name("via1").gds_layer
    met2 = pdk.layers.by_name("met2").gds_layer
    label = pdk.layers.by_name("label").gds_layer

    with tracer.span("extract.identify") as sp:
        mapping, mismatches = identify_masters(library, top, pdk)
        result.master_map = mapping
        result.mismatches.extend(mismatches)
        if tracer.enabled:
            sp.set(masters=len(mapping), anomalies=len(mismatches))

    pads_of: dict[str, list[tuple[Rect, str]]] = {}
    for struct in library.structs:
        if struct is top or struct.name not in mapping:
            continue
        pads_of[struct.name] = _master_pads(
            struct, mapping[struct.name], li, met1, result.mismatches
        )

    # Flatten every net-purpose shape; pads remember their owner pin.
    with tracer.span("extract.flatten") as sp:
        layers = (li, lic, met1, via1, met2)
        pads: list[Rect] = []
        owner: dict[int, tuple[int, str]] = {}
        for index, sref in enumerate(top.srefs):
            if sref.struct_name not in mapping:
                result.mismatches.append(
                    f"placement #{index} references unidentified "
                    f"structure {sref.struct_name!r}"
                )
                result.instances.append(None)  # keep indexes aligned
                continue
            cell = mapping[sref.struct_name]
            result.instances.append(ExtractedInstance(
                name=f"x{index}", cell=cell, position=sref.position,
            ))
            dx, dy = sref.position
            for (x0, y0, x1, y1), pin in pads_of[sref.struct_name]:
                owner[len(pads)] = (index, pin)
                pads.append((x0 + dx, y0 + dy, x1 + dx, y1 + dy))
        # Top-level net shapes take the ids after the pads, in stream
        # order.
        rows = top.rects
        rows = rows[(rows[:, 1] == NET_DATATYPE) & np.isin(rows[:, 0], layers)]
        next_id = len(pads) + len(rows)
        top_ids = np.arange(len(pads), next_id)
        shapes = {}
        sids = {}
        for layer in layers:
            on_layer = rows[:, 0] == layer
            shapes[layer] = rows[on_layer, 2:]
            sids[layer] = top_ids[on_layer]
        shapes[li] = np.concatenate((rect_array(pads), shapes[li]))
        sids[li] = np.concatenate((np.arange(len(pads)), sids[li]))
        result.shapes = next_id
        if tracer.enabled:
            sp.set(shapes=next_id, placements=len(top.srefs))

    # Touch-graph connectivity: same-layer contact merges, and cut
    # layers join their two neighbours.  Nets are numbered in order of
    # their lowest shape id.
    with tracer.span("extract.connect") as sp:
        joins = (
            (li, li), (met1, met1), (met2, met2),
            (lic, li), (lic, met1), (via1, met1), (via1, met2),
        )
        root = components(next_id, (
            (sids[layer_a][i], sids[layer_b][j])
            for layer_a, layer_b in joins
            for i, j in touching_pairs(shapes[layer_a], shapes[layer_b])
        ))
        is_root = root == np.arange(next_id)
        net_of: list[int] = (np.cumsum(is_root) - 1)[root].tolist()
        result.n_nets = int(is_root.sum())
        if tracer.enabled:
            sp.set(nets=result.n_nets)

    # Instance pins from pad components.
    for sid, (index, pin) in owner.items():
        result.instances[index].pins[pin] = net_of[sid]
    attached: set[int] = {net_of[sid] for sid in owner}
    for index, inst in enumerate(result.instances):
        if inst is None:
            continue
        expected = set(inst.cell.inputs)
        if inst.cell.output:
            expected.add(inst.cell.output)
        missing = expected - set(inst.pins)
        if missing:
            result.mismatches.append(
                f"instance {inst.name} ({inst.cell.name}): pins "
                f"{sorted(missing)} have no extracted net"
            )

    # Port labels bind to the li pad underneath them.
    labels = []
    for text in top.texts:
        if text.layer != label:
            continue
        match = _PORT_RE.match(text.text)
        if match is not None:
            labels.append((text, match.group(1), int(match.group(2))))
    # Each label is a zero-size rect touching the li shapes under it.
    points = rect_array(text.position * 2 for text, _, _ in labels)
    hits_of: list[set[int]] = [set() for _ in labels]
    for i, j in touching_pairs(points, shapes[li]):
        for index, sid in zip(i.tolist(), sids[li][j].tolist()):
            hits_of[index].add(net_of[sid])
    port_bits: dict[str, dict[int, int]] = {}
    for (text, base, bit), hits in zip(labels, hits_of):
        if not hits:
            result.mismatches.append(
                f"port label {text.text} sits on no net geometry"
            )
            continue
        if len(hits) > 1:
            result.mismatches.append(
                f"port label {text.text} touches {len(hits)} distinct nets"
            )
            continue
        bits = port_bits.setdefault(base, {})
        if bit in bits:
            result.mismatches.append(f"duplicate port label {text.text}")
            continue
        net = hits.pop()
        bits[bit] = net
        attached.add(net)
    for base in sorted(port_bits):
        bits = port_bits[base]
        if sorted(bits) != list(range(len(bits))):
            result.mismatches.append(
                f"port {base}: non-contiguous bits {sorted(bits)}"
            )
            continue
        result.ports[base] = [bits[i] for i in range(len(bits))]

    # Anything not reachable from a pin or port is foreign geometry.
    floating_shapes = sum(
        1 for sid in range(next_id) if net_of[sid] not in attached
    )
    if floating_shapes:
        islands = len(
            {net_of[sid] for sid in range(next_id)
             if net_of[sid] not in attached}
        )
        result.mismatches.append(
            f"{floating_shapes} floating net shapes in {islands} "
            f"disconnected islands"
        )

    # Drop placeholder slots for unidentified placements.
    result.instances = [i for i in result.instances if i is not None]
    return result
