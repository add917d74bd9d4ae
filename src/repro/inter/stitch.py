"""Hierarchical shard synthesis and deterministic netlist stitching.

Each unique module is synthesized once on its stripped form (instances
removed, boundary signals promoted to pseudo ports) and memoized by
content hash.  :func:`stitch` then assembles one flat
:class:`~repro.synth.mapped.MappedNetlist` for the whole design through
the netlist mutation API:

* every instance path gets its own net-id block with power-of-two
  headroom, so net ids are a function of the *current* design shape and
  small edits keep every clean instance's ids;
* port bonds (child port net ↔ parent signal net) are resolved by
  union-find down to the smallest id in each electrical class;
* cell names are ``{path}.{local}`` and DFF tags ``{path}.{reg}[i]`` —
  identical to the names :func:`~repro.hdl.elaborate.elaborate` gives
  flat signals, so register correspondence in equivalence checking and
  the ``*_DFF`` clock-tree sink filter keep working unchanged.

Everything here is deterministic-modulo-memo: a memo hit returns the
object a recompute would rebuild, so stitching a warm session and a
cold one produce byte-identical netlists.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hdl.ir import Module
from ..obs.trace import Tracer
from ..pdk.cells import Library
from ..resil.cachekey import canonical
from ..synth.mapped import MappedNetlist
from ..synth.synthesize import synthesize
from .hashes import InterError, content_hash, strip_module

import hashlib


@dataclass
class Shard:
    """One module's synthesized stripped form plus its stats."""

    module_name: str
    mapped: MappedNetlist
    opt_stats: object
    map_stats: object
    sizing_stats: object | None


def shard_memo_key(module: Module, library: Library, preset) -> str:
    """Memo key: stripped content plus every synthesis-affecting knob."""
    payload = {
        "content": content_hash(module),
        "library": library.name,
        "objective": preset.mapping_objective,
        "opt_passes": canonical(preset.opt_passes),
        "sizing": preset.gate_sizing,
        "max_load": preset.max_load_per_drive_ff,
    }
    return hashlib.sha256(
        repr(canonical(payload)).encode("utf-8")
    ).hexdigest()[:24]


def synthesize_shard(module: Module, library: Library, preset) -> Shard:
    """Synthesize one module's stripped form.

    Runs on a private tracer: shard spans would otherwise shadow the
    flow-level ``step.*`` spans the step reports are derived from.
    """
    result = synthesize(
        strip_module(module),
        library,
        objective=preset.mapping_objective,
        opt_passes=preset.opt_passes,
        sizing=preset.gate_sizing,
        max_load_per_drive_ff=preset.max_load_per_drive_ff,
        verify=False,
        tracer=Tracer(),
    )
    return Shard(
        module_name=module.name,
        mapped=result.mapped,
        opt_stats=result.opt_stats,
        map_stats=result.map_stats,
        sizing_stats=result.sizing_stats,
    )


def instance_paths(top: Module) -> list[tuple[str, Module]]:
    """Every instance path of the design tree, parents before children.

    The top module is path ``""``; a child of ``u_cpu`` at instance name
    ``u_alu`` is ``u_cpu.u_alu``.  Raises on duplicate paths.
    """
    paths: list[tuple[str, Module]] = [("", top)]
    _add_paths(paths, {""}, "", top)
    return paths


def _add_paths(paths: list[tuple[str, Module]], seen: set[str],
               prefix: str, module: Module) -> None:
    """Append the instance paths under ``module`` (at ``prefix``),
    depth first."""
    for inst in module.instances:
        path = f"{prefix}.{inst.name}" if prefix else inst.name
        if path in seen:
            raise InterError(f"duplicate instance path {path!r}")
        seen.add(path)
        paths.append((path, inst.module))
        _add_paths(paths, seen, path, inst.module)


def _block_size(n_nets: int) -> int:
    """Power-of-two block covering ``n_nets`` ids with >=2x headroom."""
    return 1 << max(5, (2 * max(1, n_nets)).bit_length())


def stitch(
    top: Module, shards: dict[str, Shard], library: Library
) -> MappedNetlist:
    """Assemble the full-design mapped netlist from per-module shards."""
    paths = instance_paths(top)
    for _, module in paths:
        if module.name not in shards:
            raise InterError(f"no shard for module {module.name!r}")

    bases: dict[str, int] = {}
    cursor = 0
    for path, module in paths:
        bases[path] = cursor
        cursor += _block_size(shards[module.name].mapped.n_nets)

    # Union-find over preliminary global ids; the class representative
    # is the smallest id, which belongs to the earliest path in DFS
    # order (parents come first, the top's real ports win).
    parent: dict[int, int] = {}

    def find(g: int) -> int:
        root = g
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(g, g) != g:
            parent[g], g = root, parent[g]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    def port_nets(path: str, module: Module, name: str, width: int) -> list[int]:
        mapped = shards[module.name].mapped
        nets = mapped.inputs.get(name)
        if nets is None:
            nets = mapped.outputs.get(name)
        if nets is None:
            raise InterError(
                f"shard {module.name!r} exposes no port {name!r}"
            )
        if len(nets) != width:
            raise InterError(
                f"shard {module.name!r} port {name!r} is {len(nets)} bits, "
                f"expected {width}"
            )
        base = bases[path]
        return [base + net for net in nets]

    for path, module in paths:
        for inst in module.instances:
            child_path = f"{path}.{inst.name}" if path else inst.name
            child = inst.module
            port_widths = {
                p.name: p.width for p in (*child.inputs, *child.outputs)
            }
            for port_name in sorted(inst.connections):
                signal = inst.connections[port_name]
                width = port_widths.get(port_name)
                if width is None:
                    raise InterError(
                        f"{child.name!r} has no port {port_name!r}"
                    )
                if signal.width != width:
                    raise InterError(
                        f"connection {path or top.name}.{inst.name}."
                        f"{port_name}: {signal.width} bits vs {width}"
                    )
                for a, b in zip(
                    port_nets(path, module, signal.name, signal.width),
                    port_nets(child_path, child, port_name, width),
                ):
                    union(a, b)

    stitched = MappedNetlist(top.name, library)
    for path, module in paths:
        shard = shards[module.name].mapped
        prefix = f"{path}." if path else ""
        base = bases[path]
        for inst in shard.cells:
            stitched.add_cell(
                inst.cell,
                {pin: find(base + net) for pin, net in inst.pins.items()},
                reset_value=inst.reset_value,
                tag=f"{prefix}{inst.tag}" if inst.tag else "",
                name=f"{prefix}{inst.name}",
            )

    for direction, ports in (("input", top.inputs), ("output", top.outputs)):
        for sig in ports:
            stitched.set_port(
                direction,
                sig.name,
                [
                    find(net)
                    for net in port_nets("", top, sig.name, sig.width)
                ],
            )
    stitched.n_nets = cursor
    return stitched
