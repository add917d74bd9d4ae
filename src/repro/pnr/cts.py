"""Clock-tree synthesis: recursive geometric bisection with buffering.

Sequential cells are split recursively along the longer axis into a
balanced binary tree; each internal node sits at the centroid of its
subtree and (optionally) carries a clock buffer.  Latency per sink is the
sum of buffer delays and Elmore wire delays down its branch; the skew map
(latency differences) feeds STA, and clock wirelength/buffer count feed
the power and ablation reports.

Without buffering (the ablation case) the whole subtree capacitance loads
the root driver directly, producing visibly worse skew and latency — the
motivating example for CTS in any backend course.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.trace import get_tracer
from ..pdk.cells import Library
from ..pdk.node import ProcessNode
from .placement import Placement


@dataclass
class ClockBuffer:
    name: str
    x: float
    y: float
    level: int


@dataclass
class ClockTree:
    """CTS result: per-sink latency plus tree statistics."""

    sink_latency_ps: dict[str, float]
    buffers: list[ClockBuffer] = field(default_factory=list)
    wirelength_um: float = 0.0

    @property
    def skew_ps(self) -> float:
        if not self.sink_latency_ps:
            return 0.0
        values = self.sink_latency_ps.values()
        return max(values) - min(values)

    @property
    def max_latency_ps(self) -> float:
        return max(self.sink_latency_ps.values(), default=0.0)

    def skew_map(self) -> dict[str, float]:
        """Per-sink arrival offsets relative to the earliest sink (for STA)."""
        if not self.sink_latency_ps:
            return {}
        earliest = min(self.sink_latency_ps.values())
        return {
            name: latency - earliest
            for name, latency in self.sink_latency_ps.items()
        }

    def stats(self) -> dict[str, float]:
        return {
            "sinks": len(self.sink_latency_ps),
            "buffers": len(self.buffers),
            "wirelength_um": round(self.wirelength_um, 3),
            "skew_ps": round(self.skew_ps, 3),
            "max_latency_ps": round(self.max_latency_ps, 3),
        }


def _manhattan(a: tuple[float, float], b: tuple[float, float]) -> float:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def synthesize_clock_tree(
    placement: Placement,
    library: Library,
    node: ProcessNode,
    buffering: bool = True,
    max_sinks_per_leaf: int = 4,
    tracer=None,
) -> ClockTree:
    """Build the clock tree over all sequential cells in ``placement``.

    Only sequential cell positions are read; the tree is geometric, not
    routed (clock routing uses dedicated resources in real flows).  Each
    internal bisection is one ``cts.partition`` span on ``tracer``
    (no-op by default), so traces show the tree's level structure.
    """
    if tracer is None:
        tracer = get_tracer()
    dff_cap = library.dff.input_cap_ff
    buf = library.by_kind("BUF", 4)
    sinks = [
        (name, cell.cx, cell.cy)
        for name, cell in placement.cells.items()
        if name.split("_")[-1] == "DFF"
    ]
    tree = ClockTree(sink_latency_ps={})
    if not sinks:
        return tree

    root_x = sum(s[1] for s in sinks) / len(sinks)
    root_y = sum(s[2] for s in sinks) / len(sinks)
    _grow(tree, sinks, root_x, root_y, 0.0, 0, node, buf, dff_cap,
          buffering, max_sinks_per_leaf, tracer)
    return tree


def _wire_delay(node: ProcessNode, length_um: float, load_ff: float) -> float:
    r = length_um * node.wire_res_ohm_per_um / 1000.0  # kohm
    c = length_um * node.wire_cap_ff_per_um
    return r * (c / 2.0 + load_ff)


def _grow(tree: ClockTree, group: list, x: float, y: float, latency: float,
          level: int, node: ProcessNode, buf, dff_cap: float,
          buffering: bool, max_sinks_per_leaf: int, tracer) -> None:
    """Drive ``group`` from the tap point ``(x, y)``: directly once it is
    small enough (or unbuffered), else bisect it and recurse per half."""
    if len(group) <= max_sinks_per_leaf or not buffering:
        # Drive each sink directly from this tap point.
        drive_r = buf.resistance_kohm if buffering else (
            buf.resistance_kohm * (level + 1)
        )
        for name, sx, sy in group:
            length = _manhattan((x, y), (sx, sy))
            tree.wirelength_um += length
            delay = (
                _wire_delay(node, length, dff_cap) + drive_r * dff_cap
            )
            tree.sink_latency_ps[name] = latency + delay
        return
    # Split along the longer spread axis.  The span nests with the
    # recursion, so the trace mirrors the tree's level structure.
    with tracer.span("cts.partition", level=level, sinks=len(group)):
        xs = [s[1] for s in group]
        ys = [s[2] for s in group]
        axis = 1 if (max(xs) - min(xs)) >= (max(ys) - min(ys)) else 2
        ordered = sorted(group, key=lambda s: s[axis])
        half = len(ordered) // 2
        for part in (ordered[:half], ordered[half:]):
            px = sum(s[1] for s in part) / len(part)
            py = sum(s[2] for s in part) / len(part)
            length = _manhattan((x, y), (px, py))
            tree.wirelength_um += length
            buffer_delay = buf.intrinsic_ps + buf.resistance_kohm * (
                len(part) * dff_cap if not buffering
                else buf.input_cap_ff * 2
            )
            segment = _wire_delay(node, length, buf.input_cap_ff)
            child_latency = latency + segment + buffer_delay
            if buffering:
                tree.buffers.append(
                    ClockBuffer(f"ckbuf_{len(tree.buffers)}", px, py,
                                level + 1)
                )
            _grow(tree, part, px, py, child_latency, level + 1, node, buf,
                  dff_cap, buffering, max_sinks_per_leaf, tracer)
