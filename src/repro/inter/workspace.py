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
4. proves the stitched netlist against the edited design with one full
   LEC miter over every output, register and reset cone.  Both designs
   go into one structurally hashed AIG, so a cone whose two sides hash
   the same folds to one literal without a SAT call; on the catalogue
   soc every cone of every benchmark edit does.

Any structural anomaly — an :class:`~repro.inter.hashes.InterError`
from the stitcher, a failed flow, a refuted or inconclusive proof —
falls back to a full rebuild on a fresh session, proved by the same full
LEC.  Because every eco engine is deterministic-modulo-memo, the
incremental result and the fallback rebuild are byte-identical either
way.
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
from .hashes import InterError, dirty_modules, module_keys, module_table
from .session import EcoSession


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
    #: Full LEC of the committed netlist against the edited design
    #: (None for clean edits).
    lec: LecResult | None
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


class Workspace:
    """One open design under interactive editing.  Use :meth:`open`."""

    def __init__(
        self,
        design: Module,
        pdk: Pdk,
        opts: FlowOptions,
        result: FlowResult,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.pdk = pdk
        self.opts = opts
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = metrics if metrics is not None else get_metrics()
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
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "Workspace":
        """Run one full flow over ``design`` and keep the session warm.

        ``options`` is a :class:`FlowOptions`, or ``None`` for
        ``FlowOptions()``, as for :func:`~repro.core.flow.run_flow`; the
        preset's placer is overridden to the region-stable ``"hier"``
        placer, which both incremental and fallback rebuilds share.
        """
        opts = options if options is not None else FlowOptions()
        if not isinstance(opts, FlowOptions):
            raise TypeError(f"options must be FlowOptions, got {type(opts)!r}")
        if opts.formal_lec:
            raise ValueError(
                "Workspace cannot run formal_lec flows: eco synthesis "
                "produces no flat gate netlist; edits are proved by the "
                "workspace's own full LEC instead"
            )
        if opts.eco is not None:
            raise ValueError("options already carry an eco session")
        tracer = tracer if tracer is not None else get_tracer()
        metrics = metrics if metrics is not None else get_metrics()
        opts = opts.replace(
            preset=replace(opts.preset, placer="hier"),
            eco=EcoSession(metrics),
        )

        with tracer.span("inter.open", design=design.name) as sp:
            result = run_flow(
                design, pdk, options=opts, tracer=tracer, metrics=metrics,
            )
            if tracer.enabled:
                sp.set(ok=result.ok)
        metrics.counter("inter.opens").inc()
        return cls(design, pdk, opts, result, tracer=tracer, metrics=metrics)

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

            fallback = None
            try:
                result, lec = self._prove(new_top, self.opts)
            except (InterError, FlowError) as exc:
                fallback = str(exc)
                result, lec = self._fallback(new_top, module_name, fallback)

            self._top = new_top
            self._table = module_table(new_top)
            self._keys = new_keys
            self._result = result
            if self.tracer.enabled:
                sp.set(clean=False, dirty=len(dirty),
                       fallback=fallback is not None)
            return EditReport(
                module=module_name,
                dirty=tuple(sorted(dirty)),
                clean=False,
                result=result,
                lec=lec,
                fallback=fallback,
            )

    # -- internals -----------------------------------------------------------

    def _prove(
        self, new_top: Module, opts: FlowOptions
    ) -> tuple[FlowResult, LecResult]:
        """Run the flow over ``new_top`` and prove its mapped netlist
        against ``new_top`` with one full LEC.  Raises
        :class:`InterError` when there is no netlist or no proof."""
        result = run_flow(
            new_top, self.pdk, options=opts,
            tracer=self.tracer, metrics=self.metrics,
        )
        if result.synthesis is None:
            raise InterError("flow produced no netlist")
        lec = check_lec(
            new_top, result.synthesis.mapped,
            tracer=self.tracer, metrics=self.metrics,
        )
        if not lec.equivalent:
            raise InterError(
                "LEC did not prove the edit: " + lec.summary() + "".join(
                    f"; {cx}" for cx in lec.counterexamples[:2]
                )
            )
        return result, lec

    def _fallback(
        self, new_top: Module, module_name: str, reason: str
    ) -> tuple[FlowResult, LecResult]:
        """Full rebuild on a fresh session, proved as an edit is; the
        session replaces the old one only once the proof holds."""
        self.fallbacks += 1
        self.metrics.counter("inter.fallbacks").inc()
        opts = self.opts.replace(eco=EcoSession(self.metrics))
        with self.tracer.span(
            "inter.fallback", module=module_name, reason=reason[:200]
        ):
            try:
                built = self._prove(new_top, opts)
            except InterError as exc:
                raise FlowError(
                    f"fallback rebuild of {new_top.name!r} failed: {exc}"
                ) from exc
        self.opts = opts
        return built
