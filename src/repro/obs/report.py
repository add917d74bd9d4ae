"""Trace rendering: indented timelines and self-time aggregation.

Two views of one span tree:

* :func:`render_timeline` — the run as it happened: every span indented
  under its parent, with start offset and duration, so a reader can see
  at a glance where a flow's wall time went.
* :func:`aggregate` / :func:`render_aggregate` — the flamegraph
  aggregation: per span *name*, how many times it ran, its cumulative
  time (including children) and its self time (excluding children).
  Self times partition wall time, so the column sums to the traced total
  and overlapping-step double counting is impossible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import TraceData
from .trace import Span


#: Printable units and their scale factors from span seconds.  Unknown
#: labels print unscaled — the span clock need not be wall time at all
#: (the cloud simulator traces in simulated minutes under unit="min").
_UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "min": 1.0}


def _scale(unit: str) -> float:
    return _UNIT_SCALE.get(unit, 1.0)


def _tree(spans: list[Span]):
    """Roots and a children index, both in start-time order."""
    by_id = {span.span_id: span for span in spans}
    children: dict[int, list[Span]] = {}
    roots: list[Span] = []
    for span in spans:
        parent = span.parent_id
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    order = {span.span_id: i for i, span in enumerate(spans)}
    key = lambda s: (s.start_s, order[s.span_id])
    roots.sort(key=key)
    for group in children.values():
        group.sort(key=key)
    return roots, children


def _format_attrs(attributes: dict[str, object], limit: int = 4) -> str:
    if not attributes:
        return ""
    parts = []
    for key, value in list(attributes.items())[:limit]:
        if isinstance(value, float):
            value = round(value, 3)
        parts.append(f"{key}={value}")
    if len(attributes) > limit:
        parts.append("…")
    return "  [" + " ".join(parts) + "]"


def render_timeline(spans: list[Span], unit: str = "ms") -> str:
    """The span tree as an indented text timeline.

    ``unit`` scales the printed numbers (``"ms"`` for wall-clock traces,
    ``"min"`` for the cloud platform's simulated-time traces — any label
    works, only ``"ms"`` rescales).
    """
    if not spans:
        return "(empty trace)"
    scale = _scale(unit)
    roots, children = _tree(spans)
    origin = min(span.start_s for span in spans)
    lines = [f"{'start':>10s} {'duration':>10s}  span"]
    # Depth first, children in order: pop the next span, push its
    # children last to first.
    stack = [(root, 0) for root in reversed(roots)]
    while stack:
        span, depth = stack.pop()
        start = (span.start_s - origin) * scale
        duration = span.duration_s * scale
        lines.append(
            f"{start:10.3f} {duration:10.3f}  "
            f"{'  ' * depth}{span.name}{_format_attrs(span.attributes)}"
        )
        stack.extend(
            (child, depth + 1)
            for child in reversed(children.get(span.span_id, ()))
        )
    lines.append(f"({len(spans)} spans, times in {unit})")
    return "\n".join(lines)


@dataclass
class AggregateRow:
    """Per-span-name totals (the flamegraph view)."""

    name: str
    count: int
    total_s: float  # cumulative: includes time inside child spans
    self_s: float  # exclusive: children's cumulative time subtracted

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


def aggregate(spans: list[Span]) -> list[AggregateRow]:
    """Per-name count/cumulative/self rows, sorted by self time."""
    _, children = _tree(spans)
    rows: dict[str, AggregateRow] = {}
    for span in spans:
        child_time = sum(
            child.duration_s for child in children.get(span.span_id, ())
        )
        row = rows.get(span.name)
        if row is None:
            row = rows[span.name] = AggregateRow(span.name, 0, 0.0, 0.0)
        row.count += 1
        row.total_s += span.duration_s
        row.self_s += max(0.0, span.duration_s - child_time)
    return sorted(rows.values(), key=lambda r: (-r.self_s, r.name))


def render_aggregate(spans: list[Span], unit: str = "ms") -> str:
    """The aggregation as a fixed-width text table."""
    rows = aggregate(spans)
    if not rows:
        return "(empty trace)"
    scale = _scale(unit)
    total_self = sum(row.self_s for row in rows)
    width = max(len(row.name) for row in rows)
    lines = [
        f"{'span':{width}s} {'count':>6s} {'self':>10s} "
        f"{'cum':>10s} {'self%':>6s}"
    ]
    for row in rows:
        share = 100.0 * row.self_s / total_self if total_self else 0.0
        lines.append(
            f"{row.name:{width}s} {row.count:6d} "
            f"{row.self_s * scale:10.3f} {row.total_s * scale:10.3f} "
            f"{share:6.1f}"
        )
    lines.append(
        f"{'total':{width}s} {'':6s} {total_self * scale:10.3f} "
        f"{'':10s} {'100.0':>6s}  (times in {unit})"
    )
    return "\n".join(lines)


def _render_metrics(metrics: dict[str, dict[str, object]]) -> str:
    lines = []
    for name, value in sorted(metrics.get("counters", {}).items()):
        lines.append(f"counter   {name} = {value}")
    for name, state in sorted(metrics.get("gauges", {}).items()):
        lines.append(
            f"gauge     {name} = {state.get('value')} "
            f"(min {state.get('min')}, max {state.get('max')}, "
            f"{len(state.get('series', []))} samples)"
        )
    for name, state in sorted(metrics.get("histograms", {}).items()):
        mean = state.get("mean")
        mean_text = f"{mean:.6g}" if isinstance(mean, (int, float)) else "-"
        lines.append(
            f"histogram {name}: n={state.get('count')} "
            f"sum={state.get('sum'):.6g} mean={mean_text}"
        )
    return "\n".join(lines)


def render_trace(data: TraceData, unit: str = "ms") -> str:
    """Full human-readable report for one loaded trace file."""
    sections = [
        "== timeline ==",
        render_timeline(data.spans, unit=unit),
        "",
        "== by span (self/cumulative) ==",
        render_aggregate(data.spans, unit=unit),
    ]
    if data.metrics:
        sections += ["", "== metrics ==", _render_metrics(data.metrics)]
    return "\n".join(sections)
