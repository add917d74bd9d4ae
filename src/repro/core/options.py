"""The flow request object: every knob of one RTL→GDSII run.

``run_flow`` grew nine-and-counting keyword knobs (preset, clock, DRC
strictness, seed, lint waivers, …) and each caller — the hub, the CLI,
the shuttle tape-out path — re-declared its own subset.  A frozen
:class:`FlowOptions` consolidates them: one value-typed request that can
be stored on a job record, hashed into a checkpoint key, copied with
overrides and forwarded verbatim across layers.

Dependency injection stays *out* of the request: ``tracer=`` and
``metrics=`` remain explicit parameters on the entry points (see
DESIGN.md "Dependency-injection convention"), because observability
backends are ambient infrastructure, not part of what is being asked
for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..lint import Waiver
from ..resil.faults import FaultInjector
from ..resil.store import Store
from .presets import OPEN, FlowPreset, get_preset


@dataclass(frozen=True)
class FlowOptions:
    """Everything one flow run can be asked to do.

    ``preset`` accepts either a :class:`FlowPreset` or its registry name
    (``"open"`` / ``"commercial"``).  The resilience knobs:

    * ``continue_on_error`` — a failing stage records a structured
      :class:`~repro.resil.failure.FlowFailure` instead of raising, and
      every downstream stage that can still run does (partial results
      for students, not stack traces);
    * ``checkpoints`` / ``resume`` — per-stage checkpointing keyed by a
      content hash of (RTL, PDK, preset, seed); a resumed flow skips
      completed stages and reproduces the cold run byte-for-byte;
    * ``inject`` — a deterministic fault drill for testing degradation
      and resume paths.
    """

    preset: FlowPreset = OPEN
    clock_period_ps: float = 5_000.0
    strict_drc: bool = True
    seed: int = 1
    lint_waivers: tuple[Waiver, ...] = ()
    strict_lint: bool = False
    #: Run SAT-based logic equivalence checking (repro.formal) after
    #: synthesis: RTL vs lowered, optimized and mapped netlists.  A
    #: counterexample fails the flow at stage ``formal_lec``.
    formal_lec: bool = False
    #: Run GDS-in signoff (repro.extract) after GDS export: re-extract
    #: the netlist from the stream bytes, compare connectivity against
    #: the mapped netlist and prove equivalence with the LEC miter.  Any
    #: mismatch fails the flow at stage ``extract_lvs``.
    extract_lvs: bool = False
    # -- resilience ---------------------------------------------------------
    continue_on_error: bool = False
    checkpoints: Store | None = field(
        default=None, compare=False, repr=False
    )
    resume: bool = True
    inject: FaultInjector | None = field(
        default=None, compare=False, repr=False
    )
    #: Incremental-compilation engine session (:mod:`repro.inter`).  Like
    #: ``checkpoints``/``inject`` this is injected machinery, not part of
    #: the request identity: the flow consults it for memoized per-module
    #: synthesis/lint and verified-replay routing, and every engine is
    #: deterministic-modulo-memo, so a warm session and a cold one produce
    #: byte-identical results for the same design.
    eco: object | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if isinstance(self.preset, str):
            object.__setattr__(self, "preset", get_preset(self.preset))
        object.__setattr__(self, "lint_waivers", tuple(self.lint_waivers))
        if self.clock_period_ps <= 0:
            raise ValueError("clock period must be positive")

    def replace(self, **kwargs) -> "FlowOptions":
        """A copy with selected knobs changed (mirrors
        :func:`dataclasses.replace`)."""
        return replace(self, **kwargs)
