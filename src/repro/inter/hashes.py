"""Per-module content hashing: the dirty-set oracle for edit loops.

Each module of a hierarchical design gets two digests:

* :func:`content_hash` — a hash of the module's *own* logic only.  The
  module is stripped of its instances (connection signals become pseudo
  ports) and re-emitted as canonical Verilog, so formatting, comments
  and declaration noise never perturb it.  This is the memo key for
  per-module synthesis and the unit of "this logic changed".
* :func:`module_key` — the content hash folded with each child
  instance's name, module name and module key, recursively.  Any change
  below a module — a rename, a parameter that alters child logic, a
  port-width change — ripples up through this key, which is what the
  dirty set is diffed on.

Both reuse :func:`repro.resil.cachekey.canonical` for knob payloads so
the whole toolkit hashes values one way.
"""

from __future__ import annotations

import hashlib

from ..hdl.elaborate import _clone_expr
from ..hdl.ir import Module, Ref, Signal
from ..hdl.verilog import to_verilog
from ..resil.cachekey import canonical


class InterError(Exception):
    """A structural anomaly in the incremental engine.

    The workspace treats any of these as "fall back to a full rebuild";
    they are never user errors.
    """


def module_table(top: Module) -> dict[str, Module]:
    """Unique modules of the design tree, keyed by name.

    Raises :class:`InterError` when two distinct module objects share a
    name — the hierarchy would be ambiguous to rebuild.
    """
    table: dict[str, Module] = {}
    _add_modules(table, top)
    return table


def _add_modules(table: dict[str, Module], module: Module) -> None:
    """Add ``module`` and its submodules to ``table``, depth first."""
    seen = table.get(module.name)
    if seen is module:
        return
    if seen is not None:
        raise InterError(
            f"two different modules are both named {module.name!r}"
        )
    table[module.name] = module
    for inst in module.instances:
        _add_modules(table, inst.module)


def strip_module(module: Module) -> Module:
    """A clone of ``module`` with its instances removed.

    Connection signals are promoted to pseudo ports so the stripped
    module stays a valid, synthesizable unit whose mapped shard exposes
    every boundary net:

    * a signal *driven by* a child instance becomes an input (demoting a
      real output if necessary — the stitcher re-exports it);
    * a signal the parent drives *into* a child becomes an output
      (unless it already is a port).

    The result is a pure function of the module's own logic plus its
    boundary shape, which is exactly what per-module synthesis may
    depend on.
    """
    instance_driven: set[Signal] = set()
    child_fed: set[Signal] = set()
    for inst in module.instances:
        child = inst.module
        child_inputs = {port.name for port in child.inputs}
        for port_name, signal in inst.connections.items():
            if port_name in child_inputs:
                child_fed.add(signal)
            else:
                instance_driven.add(signal)

    stripped = Module(module.name)
    mapping: dict[Signal, Signal] = {}
    for sig in module.signals:  # declaration order: deterministic
        if sig in instance_driven:
            mapping[sig] = stripped.add_input(sig.name, sig.width)
        elif sig in module.inputs:
            mapping[sig] = stripped.add_input(sig.name, sig.width)
        elif sig in module.outputs or sig in child_fed:
            mapping[sig] = stripped.add_output(sig.name, sig.width)
        else:
            mapping[sig] = stripped.add_wire(sig.name, sig.width)

    for target, expr in module.assigns.items():
        stripped.assign(mapping[target], _clone_expr(expr, mapping))
    for reg in module.registers:
        stripped.registers.append(
            type(reg)(
                mapping[reg.signal],
                _clone_expr(reg.next, mapping),
                reg.reset_value,
            )
        )
    return stripped


def content_hash(module: Module) -> str:
    """Digest of the module's own logic, canonicalized.

    Parsing the edited text into IR and re-emitting it collapses
    comments, whitespace and declaration ordering noise, so an edit that
    does not change the logic hashes identically.
    """
    text = to_verilog(strip_module(module))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def module_keys(top: Module) -> dict[str, str]:
    """Ripple-aware digest per module name (see module docstring)."""
    keys: dict[str, str] = {}
    _module_key(keys, top)
    return keys


def _module_key(keys: dict[str, str], module: Module) -> str:
    """``module``'s ripple-aware key, computing (and recording in
    ``keys``) its submodules' keys first."""
    cached = keys.get(module.name)
    if cached is not None:
        return cached
    payload = {
        "content": content_hash(module),
        "children": [
            [inst.name, inst.module.name, _module_key(keys, inst.module)]
            for inst in module.instances
        ],
    }
    digest = hashlib.sha256(
        repr(canonical(payload)).encode("utf-8")
    ).hexdigest()[:24]
    keys[module.name] = digest
    return digest


def dirty_modules(
    old_keys: dict[str, str], new_keys: dict[str, str]
) -> set[str]:
    """Module names whose ripple-aware key changed (or appeared)."""
    return {
        name
        for name, key in new_keys.items()
        if old_keys.get(name) != key
    }
