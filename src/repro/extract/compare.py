"""Connectivity LVS v2: extracted netlist vs mapped netlist.

The census check (:mod:`repro.layout.lvs`) counts cells; this module
compares *wiring*.  Both netlists become one anonymous graph — cells as
``(master, {pin: net})``, nets as their port labels plus the multiset of
their ``(cell class, pin)`` attachments — refined by exact colour
refinement (the Weisfeiler–Lehman iteration), both sides together.
Nets start from their sorted port labels.  Each round gives every cell
a class keyed by its master, its sorted pin names and its pins' net
classes in that order, then every net a class keyed by its previous
class and its sorted attachment multiset.  Classes are dense integers
shared by the two sides: each one is looked up from an exact table of
its key, so two cells or nets share a class only when their keys are
equal, and no hash value is ever a class (verdicts cannot depend on the
interpreter's hash seed).  Refinement stops when the joint class count
stops growing, at :data:`MAX_ROUNDS`, or at the first round where the two
sides' class histograms differ: histograms that differ once differ in
every later round, so the verdict is settled there, and that round's
classes are the ones closest to the defect.  Mismatch messages list nets
in ascending example-net order and cells in netlist order.

Equal histograms mean the two netlists are attachment-by-attachment
indistinguishable; the classes then pair extracted instances with mapped
instances, which carries the mapped side's register tags and reset
values onto the extracted netlist so the formal LEC miter
(:mod:`repro.formal.lec`) can prove full GDS-vs-RTL equivalence.  Inside
a class the k-th extracted instance pairs with the k-th mapped one, each
side in netlist order — members of one class are interchangeable by
construction, and the LEC proof is over the *extracted* connectivity
either way.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from ..layout.gds import GdsLibrary, read_gds
from ..layout.lvs import LvsReport, census_check
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..pdk.pdks import Pdk
from ..synth.mapped import CellInst, MappedNetlist
from .identify import infer_top
from .netlist import ExtractedInstance, ExtractionResult, extract_netlist

#: Refinement stops when the joint class count stops growing, or here at
#: latest.
MAX_ROUNDS = 64

def _port_map(mapped: MappedNetlist) -> dict[str, int]:
    """Flat ``port[bit] -> net`` map over both port directions."""
    flat: dict[str, int] = {}
    for direction, ports in (("in", mapped.inputs), ("out", mapped.outputs)):
        for port, nets in ports.items():
            for bit, net in enumerate(nets):
                flat[f"{port}[{bit}]"] = net
    return flat


def _extracted_port_map(extraction: ExtractionResult) -> dict[str, int]:
    return {
        f"{base}[{bit}]": net
        for base, nets in extraction.ports.items()
        for bit, net in enumerate(nets)
    }


def _rank_columns(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ids of the columns of ``keys``, equal columns equal ids,
    and how many ids there are."""
    order = np.lexsort(keys)
    ordered = keys[:, order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    ranks = np.cumsum(fresh) - 1
    ids = np.empty_like(order)
    ids[order] = ranks
    return ids, (int(ranks[-1]) + 1 if len(ranks) else 0)


class _Joint:
    """Both netlists as one anonymous graph, refined together.

    Side 0 is the extracted netlist and side 1 the mapped one; each has
    its ``port[bit] -> net`` map in ``ports`` and its
    ``(master, {pin: net})`` cells in ``cells``.  Joint cells and joint
    nets number side 0's first; ``cell_split`` and ``net_split`` are
    where side 1's begin.  ``nets[side]`` holds a side's net ids in
    ascending order, so a class's first joint net on a side is that
    side's smallest net in the class.
    """

    def __init__(self, extraction: ExtractionResult, mapped: MappedNetlist):
        kinds: dict[tuple[str, tuple[str, ...]], tuple[int, list[int]]] = {}
        pin_ids: dict[str, int] = {}
        labels: dict[tuple[str, ...], int] = {}
        self.ports = (_extracted_port_map(extraction), _port_map(mapped))
        self.cells = tuple(
            [(inst.cell.name, inst.pins) for inst in instances]
            for instances in (extraction.instances, mapped.cells)
        )
        self.port_refs: list[dict[int, tuple[str, ...]]] = []
        self.nets: list[list[int]] = []
        start: list[int] = []
        kind: list[int] = []
        rows: list[list[int]] = []
        att_pin: list[int] = []
        for cells, ports in zip(self.cells, self.ports):
            refs: dict[int, list[str]] = {}
            for label, net in ports.items():
                refs.setdefault(net, []).append(label)
            port_refs = {
                net: tuple(sorted(names)) for net, names in refs.items()
            }
            nets = set(port_refs)
            for _, pins in cells:
                nets.update(pins.values())
            ordered = sorted(nets)
            joint = {net: len(start) + i for i, net in enumerate(ordered)}
            for net in ordered:
                start.append(labels.setdefault(
                    port_refs.get(net, ()), len(labels)
                ))
            for master, pins in cells:
                names = tuple(sorted(pins))
                entry = kinds.get((master, names))
                if entry is None:
                    entry = kinds[(master, names)] = (len(kinds), [
                        pin_ids.setdefault(pin, len(pin_ids))
                        for pin in names
                    ])
                kind.append(entry[0])
                att_pin.extend(entry[1])
                rows.append([joint[pins[pin]] for pin in names])
            self.port_refs.append(port_refs)
            self.nets.append(ordered)
        self.cell_split = len(self.cells[0])
        self.net_split = len(self.nets[0])
        self.start = np.array(start, dtype=np.int64)
        self.kind = np.array(kind, dtype=np.int64)
        # (pin position, cell) -> joint net; rows shorter than the widest
        # master point at one extra slot past the last net.
        n_nets = len(start)
        width = max(map(len, rows), default=0)
        self.pin_net = np.array(
            [row + [n_nets] * (width - len(row)) for row in rows],
            dtype=np.int64,
        ).reshape(len(rows), width).T
        # Attachments grouped by net.  Each round writes a net's key into
        # its own run of ``self.key``: its previous class, then its
        # sorted attachment codes.
        att_net = np.array(
            [net for row in rows for net in row], dtype=np.int64
        )
        att_cell = np.repeat(
            np.arange(len(rows), dtype=np.int64), list(map(len, rows))
        )
        order = np.argsort(att_net, kind="stable")
        self.att_net = att_net[order]
        self.att_cell = att_cell[order]
        self.att_pin = np.array(att_pin, dtype=np.int64)[order]
        self.n_pins = max(len(pin_ids), 1)
        degree = np.bincount(att_net, minlength=n_nets)
        ends = np.cumsum(degree + 1)
        self.head = ends - degree - 1
        self.body = np.arange(len(att_net)) + self.att_net + 1
        self.key = np.empty(len(att_net) + n_nets, dtype=np.int64)
        bounds = (ends * self.key.itemsize).tolist()
        self.runs = list(map(slice, [0, *bounds[:-1]], bounds))

    def refine(self) -> None:
        """Refine both sides together; stop when the joint class count
        stops growing, at :data:`MAX_ROUNDS`, or at the first round whose
        class histograms differ between the sides."""
        net_class = self.start
        count = 0
        for _ in range(MAX_ROUNDS):
            cell_class, cell_count = _rank_columns(np.vstack((
                np.append(net_class, -1)[self.pin_net], self.kind,
            )))
            # Sorting net-major keys sorts each net's codes in place.
            span = cell_count * self.n_pins
            major = self.att_net * span
            self.key[self.head] = net_class
            self.key[self.body] = np.sort(
                major + cell_class[self.att_cell] * self.n_pins
                + self.att_pin
            ) - major
            data = self.key.tobytes()
            keys = list(map(data.__getitem__, self.runs))
            table = dict(zip(dict.fromkeys(keys), itertools.count()))
            net_class = np.fromiter(
                map(table.__getitem__, keys), np.int64, len(keys)
            )
            self.cell_class, self.net_class = cell_class, net_class
            now = cell_count + len(table)
            if now == count or self.differ():
                break
            count = now

    def histograms(
        self, classes: np.ndarray, split: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-class member counts on side 0 and on side 1."""
        size = int(classes.max()) + 1 if len(classes) else 0
        return (np.bincount(classes[:split], minlength=size),
                np.bincount(classes[split:], minlength=size))

    def differ(self) -> bool:
        """Whether the current classes' histograms differ between the
        sides, for cells or for nets."""
        return any(
            not np.array_equal(*self.histograms(classes, split))
            for classes, split in ((self.cell_class, self.cell_split),
                                   (self.net_class, self.net_split))
        )

    def excess(self, classes: np.ndarray, split: int,
               side: int) -> list[tuple[int, int]]:
        """``(first member, surplus)`` for every class with more members
        on ``side`` than on the other, in order of first member (an
        index into that side)."""
        counts = self.histograms(classes, split)
        members = (classes[:split], classes[split:])[side].tolist()
        first: dict[int, int] = {}
        for index, cls in enumerate(members):
            first.setdefault(cls, index)
        return [
            (index, int(counts[side][cls] - counts[1 - side][cls]))
            for cls, index in first.items()
            if counts[side][cls] > counts[1 - side][cls]
        ]

    def describe_net(self, side: int, net: int) -> str:
        """Human-readable attachment list for mismatch messages."""
        refs = list(self.port_refs[side].get(net, ()))
        for index, (kind, pins) in enumerate(self.cells[side]):
            for pin, pin_net in pins.items():
                if pin_net == net:
                    refs.append(f"{kind}#{index}.{pin}")
        return "{" + ", ".join(sorted(refs)) + "}"


def compare_netlists(
    extraction: ExtractionResult, mapped: MappedNetlist,
    max_messages: int = 20,
) -> tuple[list[str], list[tuple[ExtractedInstance, CellInst]]]:
    """Net-by-net comparison of extracted vs mapped connectivity.

    Returns ``(mismatches, pairing)``; the pairing (one mapped instance
    per extracted instance, matched by class, in extracted order) is
    complete only when there are no mismatches.
    """
    mismatches: list[str] = []
    joint = _Joint(extraction, mapped)
    ext_ports, ref_ports = joint.ports
    for name in sorted(set(ref_ports) - set(ext_ports)):
        mismatches.append(f"port {name} missing from the layout")
    for name in sorted(set(ext_ports) - set(ref_ports)):
        mismatches.append(f"layout has unexpected port {name}")

    joint.refine()

    # Describe nets whose class sizes differ, each side.
    shown = 0
    for index, deficit in joint.excess(joint.net_class, joint.net_split, 1):
        example = joint.nets[1][index]
        mismatches.append(
            f"netlist net {example} {joint.describe_net(1, example)} "
            f"has no matching layout net ({deficit}x)"
        )
        shown += 1
        if shown >= max_messages:
            break
    for index, surplus in joint.excess(joint.net_class, joint.net_split, 0):
        example = joint.nets[0][index]
        mismatches.append(
            f"layout net {example} {joint.describe_net(0, example)} "
            f"matches no netlist net ({surplus}x)"
        )
        shown += 1
        if shown >= max_messages:
            break

    ext_cells, ref_cells = joint.histograms(joint.cell_class,
                                            joint.cell_split)
    if not np.array_equal(ext_cells, ref_cells):
        ext_kinds = Counter(
            inst.cell.name for inst in extraction.instances
        )
        ref_kinds = Counter(inst.cell.name for inst in mapped.cells)
        if ext_kinds == ref_kinds:
            mismatches.append(
                "cell census matches but cell connectivity does not "
                "(same cells, different wiring)"
            )
        shown = 0
        for index, deficit in joint.excess(
            joint.cell_class, joint.cell_split, 1
        ):
            inst = mapped.cells[index]
            mismatches.append(
                f"netlist cell {inst.name} ({inst.cell.name}) has no "
                f"connectivity-equivalent layout cell ({deficit}x)"
            )
            shown += 1
            if shown >= max_messages:
                break

    pairing: list[tuple[ExtractedInstance, CellInst]] = []
    if not mismatches:
        # Equal histograms: both sides sort into the same class sequence.
        classes = joint.cell_class
        ext_order = np.argsort(classes[:joint.cell_split], kind="stable")
        ref_order = np.argsort(classes[joint.cell_split:], kind="stable")
        partner = np.empty_like(ext_order)
        partner[ext_order] = ref_order
        pairing = [
            (inst, mapped.cells[ref])
            for inst, ref in zip(extraction.instances, partner.tolist())
        ]
    return mismatches, pairing


def to_mapped(
    extraction: ExtractionResult,
    mapped: MappedNetlist,
    pairing: list[tuple[ExtractedInstance, CellInst]],
) -> MappedNetlist:
    """The extracted netlist as a :class:`MappedNetlist` ready for LEC.

    Connectivity (pins, nets, port bindings) is purely extracted;
    register tags and reset values — names, not wiring — transfer from
    the paired mapped instances so the LEC register correspondence
    lines up.
    """
    partner = {id(ext): ref for ext, ref in pairing}
    result = MappedNetlist(mapped.name, mapped.library)
    for inst in extraction.instances:
        ref = partner[id(inst)]
        result.add_cell(
            inst.cell, inst.pins,
            reset_value=ref.reset_value, tag=ref.tag, name=inst.name,
        )
    result.n_nets = extraction.n_nets
    result.inputs = {
        port: list(extraction.ports[port]) for port in mapped.inputs
    }
    result.outputs = {
        port: list(extraction.ports[port]) for port in mapped.outputs
    }
    result.invalidate()
    return result


def run_lvs(
    source: bytes | GdsLibrary,
    mapped: MappedNetlist,
    pdk: Pdk,
    *,
    top_name: str | None = None,
    expected_pins: set[str] | None = None,
    lec: bool = True,
    max_conflicts: int = 100_000,
    tracer=None,
    metrics=None,
) -> LvsReport:
    """Connectivity LVS v2: GDSII bytes in, unified report out.

    Parses the stream, extracts the netlist from geometry alone, runs
    the census pre-check (with struct names routed through geometric
    identification), compares connectivity, and — when everything else
    is clean and ``lec`` is set — proves the extracted netlist
    equivalent to the mapped reference with the formal LEC miter.
    """
    from ..formal.lec import LecError, check_lec

    if tracer is None:
        tracer = get_tracer()
    if metrics is None:
        metrics = get_metrics()
    report = LvsReport(mode="connectivity", source=mapped.name)
    with tracer.span("extract.lvs", design=mapped.name) as sp:
        try:
            library = (
                read_gds(bytes(source))
                if isinstance(source, (bytes, bytearray))
                else source
            )
            if top_name is not None:
                top = library.struct(top_name)
            else:
                top = infer_top(library)
        except (ValueError, KeyError) as error:
            report.mismatches.append(f"unreadable GDSII stream: {error}")
            return report

        extraction = extract_netlist(library, pdk, top.name, tracer)
        metrics.counter("extract.instances").inc(len(extraction.instances))
        metrics.counter("extract.nets").inc(extraction.n_nets)
        metrics.counter("extract.shapes").inc(extraction.shapes)

        if expected_pins is None:
            expected_pins = set(_port_map(mapped))
        rename = {
            name: cell.name for name, cell in extraction.master_map.items()
        }
        census = census_check(
            library, mapped, top.name, expected_pins,
            pdk.layers.outline.gds_layer, rename=rename,
        )
        report.cells_checked = census.cells_checked
        report.pins_checked = census.pins_checked
        report.mismatches.extend(census.mismatches)
        report.mismatches.extend(extraction.mismatches)
        report.nets_checked = extraction.n_nets

        with tracer.span("extract.compare"):
            compare_mismatches, pairing = compare_netlists(extraction, mapped)
        report.mismatches.extend(compare_mismatches)
        report.cells_matched = len(pairing)

        if lec and not report.mismatches:
            with tracer.span("extract.lec"):
                extracted = to_mapped(extraction, mapped, pairing)
                try:
                    lec_result = check_lec(
                        mapped, extracted,
                        max_conflicts=max_conflicts,
                        tracer=tracer, metrics=metrics,
                    )
                except LecError as error:
                    report.mismatches.append(f"LEC refused the miter: {error}")
                else:
                    if lec_result.inconclusive:
                        report.mismatches.append(
                            "LEC inconclusive on the extracted netlist"
                        )
                    else:
                        report.lec_equivalent = lec_result.equivalent
                    if not lec_result.equivalent:
                        report.mismatches.append(
                            "extracted netlist is NOT logically equivalent "
                            "to the mapped netlist"
                        )
        metrics.counter("extract.lvs.runs").inc()
        if not report.clean:
            metrics.counter("extract.lvs.failures").inc()
        if tracer.enabled:
            sp.set(
                clean=report.clean,
                mismatches=len(report.mismatches),
                nets=report.nets_checked,
            )
    return report
