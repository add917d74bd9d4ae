"""Design-rule checking over GDSII layouts.

Checks the two rule classes every introductory PDK course starts with:

* **minimum width** — no rectangle thinner than the layer's rule;
* **minimum spacing** — no two disjoint rectangles on the same layer
  closer than the layer's rule (overlapping/touching shapes are treated
  as merged geometry, i.e. same-net, and are not spacing violations).

The checker flattens SREF placements, bins rectangles into a spatial grid
and only compares neighbours — the standard sweep optimisation, keeping
the check near-linear for our layout sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.trace import get_tracer
from ..pdk.layers import LayerStack
from .gds import DB_UNIT_IN_UM, GdsLibrary, GdsStruct, from_db
from .geometry import Rect, shared_bin_pairs


@dataclass(frozen=True)
class DrcViolation:
    rule: str  # "min_width" or "min_spacing"
    layer: str
    detail: str
    rect: Rect


@dataclass
class DrcReport:
    checked_rects: int
    violations: list[DrcViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts

    def summary(self) -> str:
        status = "CLEAN" if self.clean else f"{len(self.violations)} violations"
        return f"DRC {status} ({self.checked_rects} rects checked)"


def _placements(library: GdsLibrary, top_name: str):
    """``(struct, dx, dy)`` for ``top_name`` and every struct its SREFs
    place under it, depth first in SREF order, with the offsets summed
    along the path."""
    by_name = {s.name: s for s in library.structs}
    stack = [(top_name, 0.0, 0.0, 0, None)]
    while stack:
        name, dx, dy, depth, parent = stack.pop()
        if depth > 8:
            raise ValueError(
                f"SREF nesting too deep under {top_name!r} (cycle?)"
            )
        struct = by_name.get(name)
        if struct is None:
            raise ValueError(
                f"no structure {name!r} to check" if parent is None
                else f"structure {parent!r} places missing structure {name!r}"
            )
        yield struct, dx, dy
        stack.extend(
            (
                sref.struct_name,
                dx + from_db(sref.position[0]),
                dy + from_db(sref.position[1]),
                depth + 1,
                name,
            )
            for sref in reversed(struct.srefs)
        )


def flatten_rects(
    library: GdsLibrary, top_name: str, keys: list[tuple[int, int]]
) -> dict[tuple[int, int], np.ndarray]:
    """Rectangles on each (layer, datatype) of ``keys`` with SREFs
    resolved: one ``(n, 4)`` float array of x0, y0, x1, y1 in um per key.

    Rows come in placement order, and in stream order within one
    placement.  Each struct's rows on a key are selected and scaled
    once, and shifted for all of its placements in one numpy add.
    Keying by datatype keeps mask purposes apart: DRC checks a layer's
    drawing purpose without mixing in net-purpose fabric shapes.
    """
    placed: dict[str, list[int]] = {}
    structs: dict[str, GdsStruct] = {}
    shifts = []
    for ordinal, (struct, dx, dy) in enumerate(
        _placements(library, top_name)
    ):
        structs.setdefault(struct.name, struct)
        placed.setdefault(struct.name, []).append(ordinal)
        shifts.append((dx, dy, dx, dy))
    shift = np.array(shifts, dtype=np.float64).reshape(-1, 4)
    blocks = {}
    for name, struct in structs.items():
        rows = struct.rects
        blocks[name] = [
            rows[(rows[:, 0] == layer) & (rows[:, 1] == datatype), 2:]
            * DB_UNIT_IN_UM
            for layer, datatype in keys
        ]
    out = {}
    for k, key in enumerate(keys):
        count = np.zeros(len(shift), dtype=np.int64)
        for name, ordinals in placed.items():
            count[ordinals] = len(blocks[name][k])
        start = np.cumsum(count) - count
        flat = np.empty((int(count.sum()), 4))
        for name, ordinals in placed.items():
            block = blocks[name][k]
            if len(block):
                at = start[ordinals][:, None] + np.arange(len(block))
                flat[at.reshape(-1)] = (
                    block[None, :, :] + shift[ordinals][:, None, :]
                ).reshape(-1, 4)
        out[key] = flat
    return out


def check_drc(
    library: GdsLibrary,
    layers: LayerStack,
    top_name: str,
    check_layers: list[str] | None = None,
    max_violations: int = 100,
    tracer=None,
) -> DrcReport:
    """Run width and spacing checks; stops after ``max_violations``.

    Each checked layer is one ``drc.layer`` span on ``tracer`` (no-op by
    default), so traces show which layer dominates check time.
    """
    if tracer is None:
        tracer = get_tracer()
    checked = [
        layers.by_name(name) for name in check_layers or [
            l.name for l in layers.layers if l.purpose in ("routing", "via")
        ]
    ]
    with tracer.span("drc.flatten") as sp:
        coords_by_gds = flatten_rects(
            library, top_name,
            [(layer.gds_layer, layer.gds_datatype) for layer in checked],
        )
        sp.set(structs=len(library.structs))
    report = DrcReport(checked_rects=0)

    for layer in checked:
        with tracer.span("drc.layer", layer=layer.name) as sp:
            coords = coords_by_gds[(layer.gds_layer, layer.gds_datatype)]
            count = len(coords)
            report.checked_rects += count
            if count:
                _check_layer(report, layer, coords, max_violations)
            sp.set(rects=count, violations=len(report.violations))
        if len(report.violations) >= max_violations:
            break
    return report


def _spacing_candidates(
    coords: np.ndarray, spacing: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(first, second)`` row indexes of every pair of rectangles that
    share a spacing bin: each rectangle, grown by ``spacing``, covers a
    block of square bins of side ``max(8 * spacing, 1 nm)``, listed as
    :func:`repro.layout.geometry.shared_bin_pairs` lists them."""
    bin_size = max(spacing * 8.0, 1e-3)

    def bins(values: np.ndarray) -> np.ndarray:
        return np.floor_divide(values, bin_size).astype(np.int64)

    return shared_bin_pairs(
        bins(coords[:, 0] - spacing), bins(coords[:, 1] - spacing),
        bins(coords[:, 2] + spacing), bins(coords[:, 3] + spacing),
    )


def _check_layer(
    report, layer, coords: np.ndarray, max_violations: int
) -> None:
    eps = 1e-9

    def rect_at(index: int) -> Rect:
        x0, y0, x1, y1 = coords[index]
        return Rect(float(x0), float(y0), float(x1), float(y1))

    min_dims = np.minimum(
        coords[:, 2] - coords[:, 0], coords[:, 3] - coords[:, 1]
    )
    for index in np.nonzero(min_dims + eps < layer.min_width_um)[0]:
        report.violations.append(
            DrcViolation(
                "min_width",
                layer.name,
                f"{float(min_dims[index]):.4f} < {layer.min_width_um}",
                rect_at(index),
            )
        )
        if len(report.violations) >= max_violations:
            return

    spacing = layer.min_spacing_um
    if spacing <= 0 or len(coords) < 2:
        return
    first, second = _spacing_candidates(coords, spacing)
    if not len(first):
        return
    # Every float op below mirrors Rect.distance/.intersects bit for bit
    # (same operand order, and np.sqrt is correctly rounded exactly
    # like ``** 0.5``).  A pair sharing several bins appears several
    # times among the candidates but is only *emitted* once, at its
    # first occurrence.
    ra, rb = coords[first], coords[second]
    gap_x = np.maximum(
        0.0, np.maximum(ra[:, 0], rb[:, 0]) - np.minimum(ra[:, 2], rb[:, 2])
    )
    gap_y = np.maximum(
        0.0, np.maximum(ra[:, 1], rb[:, 1]) - np.minimum(ra[:, 3], rb[:, 3])
    )
    distance = np.sqrt(gap_x * gap_x + gap_y * gap_y)
    overlapping = (
        (ra[:, 0] < rb[:, 2])
        & (rb[:, 0] < ra[:, 2])
        & (ra[:, 1] < rb[:, 3])
        & (rb[:, 1] < ra[:, 3])
    )
    violating = ~overlapping & (distance > eps) & (distance < spacing - eps)
    seen_pairs: set[tuple[int, int]] = set()
    for hit in np.nonzero(violating)[0]:
        a = int(first[hit])
        b = int(second[hit])
        pair = (a, b) if a < b else (b, a)
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        report.violations.append(
            DrcViolation(
                "min_spacing",
                layer.name,
                f"{float(distance[hit]):.4f} < {spacing}",
                rect_at(a),
            )
        )
        if len(report.violations) >= max_violations:
            return
