"""The Workspace session API: sub-second edit → re-verify loops.

:meth:`Workspace.open` runs one full flow over a design and keeps the
per-module content keys, the warm :class:`~repro.inter.session.EcoSession`
memos and the last :class:`~repro.core.flow.FlowResult`.
:meth:`Workspace.edit` then takes one module's new RTL text and:

1. parses it against the known module table and rebuilds the design
   tree, cloning only the ancestors of the edited module;
2. diffs the ripple-aware module keys (:mod:`repro.inter.hashes`) into
   a dirty set — a comment or formatting edit canonicalizes to an
   empty dirty set and returns the previous result untouched;
3. re-runs the flow through the warm session: clean modules hit the
   synthesis memo, the stitched netlist patches only the dirty shards'
   net blocks, untouched regions keep seed-stable placements, and the
   verified-replay router substitutes every recorded path whose cost
   landscape provably did not change;
4. proves the patch with a cone-limited LEC miter over the *dirty
   cones* — the forward taint closure of the dirty shards' cells.  The
   shard boundary makes the taint sound: a shard sees its children's
   signals as symbolic pseudo inputs, so per-shard synthesis can never
   optimize a cross-module dependency away, and the stitched netlist's
   structural dependencies are a superset of the design's functional
   ones.  Register state is a cut (correspondence is always checked in
   full), so taint stops at DFFs and dirty flops contribute their
   ``next(...)`` cones instead.

Any structural anomaly — an :class:`~repro.inter.hashes.InterError`
from the stitcher, a failed flow, a refuted or inconclusive cone proof
— falls back to a full rebuild on a fresh session, with a full LEC.
Because every eco engine is deterministic-modulo-memo, the incremental
result and the fallback rebuild are byte-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.flow import FlowError, FlowResult, run_flow
from ..core.options import FlowOptions
from ..formal.lec import LecResult, check_lec
from ..hdl.elaborate import _clone_expr
from ..hdl.ir import Module, Register, Signal
from ..hdl.verilog_parser import parse_verilog
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import Tracer, get_tracer
from ..pdk.pdks import Pdk
from ..pnr.hier import cell_region
from ..synth.mapped import MappedNetlist
from .hashes import InterError, dirty_modules, module_keys, module_table
from .session import EcoSession
from .stitch import instance_paths


@dataclass
class EditReport:
    """What one :meth:`Workspace.edit` call did and produced."""

    #: The module name the edit targeted.
    module: str
    #: Module names whose ripple-aware key changed (sorted).
    dirty: tuple[str, ...]
    #: True when the edit canonicalized to no logic change at all; the
    #: previous result is returned untouched and nothing re-ran.
    clean: bool
    result: FlowResult
    #: Cone-limited proof of the patch (None for clean edits).
    lec: LecResult | None
    #: Cone names the LEC miter actually proved.
    cones: tuple[str, ...] = ()
    #: Why the incremental path was abandoned (None when it held).
    fallback: str | None = None


def substitute_module(
    top: Module, target: str, replacement: Module
) -> Module:
    """The design tree with module ``target`` swapped for ``replacement``.

    Only ancestors of the target are cloned; every untouched subtree is
    shared with the old tree, so clean modules keep identical objects
    (and identical memo keys).
    """
    return _rebuild(top, target, replacement, {})


def _rebuild(module: Module, target: str, replacement: Module,
             memo: dict[str, Module]) -> Module:
    """``module`` with ``target`` swapped for ``replacement`` below it;
    ``memo`` holds the result per module name already rebuilt."""
    if module.name == target:
        return replacement
    cached = memo.get(module.name)
    if cached is not None:
        return cached
    children = [
        (inst, _rebuild(inst.module, target, replacement, memo))
        for inst in module.instances
    ]
    if all(new is inst.module for inst, new in children):
        memo[module.name] = module
        return module
    clone = Module(module.name)
    mapping: dict[Signal, Signal] = {}
    for sig in module.inputs:
        mapping[sig] = clone.add_input(sig.name, sig.width)
    for sig in module.outputs:
        mapping[sig] = clone.add_output(sig.name, sig.width)
    for sig in module.wires:
        mapping[sig] = clone.add_wire(sig.name, sig.width)
    for sig, expr in module.assigns.items():
        clone.assign(mapping[sig], _clone_expr(expr, mapping))
    for reg in module.registers:
        clone.registers.append(
            Register(
                mapping[reg.signal],
                _clone_expr(reg.next, mapping),
                reg.reset_value,
            )
        )
    for inst, new_child in children:
        clone.add_instance(
            inst.name,
            new_child,
            {p: mapping[s] for p, s in inst.connections.items()},
        )
    memo[module.name] = clone
    return clone


def dirty_cones(
    top: Module, mapped: MappedNetlist, dirty: set[str]
) -> set[str]:
    """LEC cone names affected by the dirty modules (taint closure).

    Seeds are the combinational cells of every dirty instance's shard;
    taint propagates forward through combinational cells and stops at
    flops.  Affected cones: output ports whose nets are tainted, plus
    ``next(...)`` of every flop that sits in a dirty shard or whose
    input pins read a tainted net.
    """
    dirty_paths = {
        path
        for path, module in instance_paths(top)
        if module.name in dirty
    }
    dirty_cells = {
        inst.name
        for inst in mapped.cells
        if cell_region(inst.name) in dirty_paths
    }

    driver = mapped.net_driver()
    loads = mapped.net_loads()
    driven_by: dict[str, list[int]] = {}
    for net, inst in driver.items():
        driven_by.setdefault(inst.name, []).append(net)

    tainted: set[int] = set()
    work: list[int] = []
    for inst in mapped.comb_cells:
        if inst.name in dirty_cells:
            for net in driven_by.get(inst.name, ()):
                if net not in tainted:
                    tainted.add(net)
                    work.append(net)
    while work:
        net = work.pop()
        for sink, _pin in loads.get(net, ()):
            if sink.cell.is_sequential:
                continue
            for out_net in driven_by.get(sink.name, ()):
                if out_net not in tainted:
                    tainted.add(out_net)
                    work.append(out_net)

    cones: set[str] = set()
    for name, nets in mapped.outputs.items():
        if any(net in tainted for net in nets):
            cones.add(name)
    for inst in mapped.seq_cells:
        if inst.name in dirty_cells or any(
            inst.pins[pin] in tainted for pin in inst.cell.inputs
        ):
            cones.add(f"next({inst.tag.rpartition('[')[0]})")
    return cones


class Workspace:
    """One open design under interactive editing.  Use :meth:`open`."""

    def __init__(
        self,
        design: Module,
        pdk: Pdk,
        opts: FlowOptions,
        session: EcoSession,
        result: FlowResult,
        cache=None,
        cache_hit: bool = False,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.pdk = pdk
        self.opts = opts
        self.cache = cache
        #: Whether :meth:`open` was served from the campaign result cache.
        self.cache_hit = cache_hit
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = metrics if metrics is not None else get_metrics()
        self._session = session
        self._top = design
        self._table = module_table(design)
        self._keys = module_keys(design)
        self._result = result
        self.edits = 0
        self.fallbacks = 0

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(
        cls,
        design: Module,
        pdk: Pdk,
        options: FlowOptions | None = None,
        cache=None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "Workspace":
        """Run one full flow over ``design`` and keep the session warm.

        ``options`` is a :class:`FlowOptions`, or ``None`` for
        ``FlowOptions()``, as for :func:`~repro.core.flow.run_flow`; the
        preset's placer is overridden to the region-stable ``"hier"``
        placer, which both incremental and fallback rebuilds share.
        ``cache`` (a :class:`~repro.resil.store.Store`) serves the
        opening flow from the campaign's memo when it already holds an
        identical request.
        """
        opts = options if options is not None else FlowOptions()
        if not isinstance(opts, FlowOptions):
            raise TypeError(f"options must be FlowOptions, got {type(opts)!r}")
        if opts.formal_lec:
            raise ValueError(
                "Workspace cannot run formal_lec flows: eco synthesis "
                "produces no flat gate netlist; edits are proved by the "
                "workspace's own cone-limited LEC instead"
            )
        if opts.eco is not None:
            raise ValueError("options already carry an eco session")
        tracer = tracer if tracer is not None else get_tracer()
        metrics = metrics if metrics is not None else get_metrics()
        session = EcoSession(metrics)
        opts = opts.replace(
            preset=replace(opts.preset, placer="hier"), eco=session
        )

        with tracer.span("inter.open", design=design.name) as sp:
            cache_key = None
            result = None
            cache_hit = False
            if cache is not None:
                from ..campaign.cache import result_cache_key

                cache_key = result_cache_key(design, pdk.name, opts)
                result = cache.get(cache_key)
                cache_hit = result is not None
            if result is None:
                result = run_flow(
                    design, pdk, options=opts, tracer=tracer,
                    metrics=metrics,
                )
                if cache is not None and cache_key is not None:
                    cache.put(cache_key, result)
            if tracer.enabled:
                sp.set(cache_hit=cache_hit, ok=result.ok)
        metrics.counter("inter.opens").inc()
        return cls(
            design, pdk, opts, session, result,
            cache=cache, cache_hit=cache_hit,
            tracer=tracer, metrics=metrics,
        )

    @property
    def result(self) -> FlowResult:
        """The last committed flow result."""
        return self._result

    @property
    def design(self) -> Module:
        """The current design tree."""
        return self._top

    def rtl_of(self, module_name: str) -> str:
        """Canonical Verilog of one current module (instances included)."""
        from ..hdl.verilog import to_verilog

        return to_verilog(self._table[module_name])

    # -- the edit loop -------------------------------------------------------

    def edit(self, module_name: str, new_rtl: str) -> EditReport:
        """Apply one module's new RTL text; returns the re-verified result.

        ``new_rtl`` may reference any other module of the design by name
        (they are pre-registered with the parser); it may also rename
        the module, which dirties every instantiating parent.
        """
        if module_name not in self._table:
            raise KeyError(
                f"no module named {module_name!r} in design "
                f"{self._top.name!r}"
            )
        known = {
            name: module
            for name, module in self._table.items()
            if name != module_name
        }
        edited = parse_verilog(new_rtl, known=known)
        self.edits += 1
        self.metrics.counter("inter.edits").inc()

        with self.tracer.span(
            "inter.edit", design=self._top.name, module=module_name
        ) as sp:
            new_top = substitute_module(self._top, module_name, edited)
            with self.tracer.span("inter.dirty_set") as dirty_sp:
                new_keys = module_keys(new_top)
                dirty = dirty_modules(self._keys, new_keys)
                if self.tracer.enabled:
                    dirty_sp.set(dirty=len(dirty))
            if not dirty:
                if self.tracer.enabled:
                    sp.set(clean=True, dirty=0)
                return EditReport(
                    module=module_name, dirty=(), clean=True,
                    result=self._result, lec=None,
                )

            try:
                result = run_flow(
                    new_top, self.pdk, options=self.opts,
                    tracer=self.tracer, metrics=self.metrics,
                )
                if result.synthesis is None:
                    raise InterError("incremental flow produced no netlist")
                cones = dirty_cones(new_top, result.synthesis.mapped, dirty)
                with self.tracer.span(
                    "inter.lec", cones=len(cones)
                ) as lec_sp:
                    lec = check_lec(
                        new_top, result.synthesis.mapped, cones=cones,
                        tracer=self.tracer, metrics=self.metrics,
                    )
                    if self.tracer.enabled:
                        lec_sp.set(equivalent=lec.equivalent)
                if not lec.equivalent or lec.inconclusive:
                    raise InterError(
                        "cone-limited LEC did not prove the patch: "
                        + "; ".join(
                            str(cx) for cx in lec.counterexamples[:2]
                        )
                    )
            except (InterError, FlowError) as exc:
                return self._fallback(
                    new_top, new_keys, module_name, dirty, str(exc), sp
                )

            self._commit(new_top, new_keys, result)
            if self.tracer.enabled:
                sp.set(clean=False, dirty=len(dirty), cones=len(cones))
            return EditReport(
                module=module_name,
                dirty=tuple(sorted(dirty)),
                clean=False,
                result=result,
                lec=lec,
                cones=tuple(sorted(cones)),
            )

    # -- internals -----------------------------------------------------------

    def _fallback(
        self,
        new_top: Module,
        new_keys: dict[str, str],
        module_name: str,
        dirty: set[str],
        reason: str,
        edit_span,
    ) -> EditReport:
        """Full rebuild on a fresh session, with an unrestricted LEC."""
        self.fallbacks += 1
        self.metrics.counter("inter.fallbacks").inc()
        with self.tracer.span("inter.fallback", module=module_name) as sp:
            session = EcoSession(self.metrics)
            opts = self.opts.replace(eco=session)
            result = run_flow(
                new_top, self.pdk, options=opts,
                tracer=self.tracer, metrics=self.metrics,
            )
            lec = None
            if result.synthesis is not None:
                lec = check_lec(
                    new_top, result.synthesis.mapped,
                    tracer=self.tracer, metrics=self.metrics,
                )
                if not lec.equivalent:
                    raise FlowError(
                        f"full LEC failed after fallback rebuild of "
                        f"{new_top.name!r}: "
                        + "; ".join(
                            str(cx) for cx in lec.counterexamples[:2]
                        )
                    )
            self._session = session
            self.opts = opts
            self._commit(new_top, new_keys, result)
            if self.tracer.enabled:
                sp.set(reason=reason[:200])
        if self.tracer.enabled:
            edit_span.set(clean=False, dirty=len(dirty), fallback=True)
        return EditReport(
            module=module_name,
            dirty=tuple(sorted(dirty)),
            clean=False,
            result=result,
            lec=lec,
            fallback=reason,
        )

    def _commit(
        self, new_top: Module, new_keys: dict[str, str], result: FlowResult
    ) -> None:
        self._top = new_top
        self._table = module_table(new_top)
        self._keys = new_keys
        self._result = result
