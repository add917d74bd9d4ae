"""Outside-in layer timing for the traced run.

Each layer's public entry point is wrapped where its caller looks it up
(a module global such as ``repro.core.flow.build_chip_gds``, or a class
attribute such as ``TimingAnalyzer.analyze``), so the program under test
runs unmodified.  Spans stay in memory — name, start, end, parent and
job id — until the run writes them out, and :meth:`Recorder.restore`
puts every original back.

A span's self time is its duration minus the durations of the wrapped
calls nested directly inside it.  Full garbage collections get spans of
their own (``python.gc``): a pause lands in whichever call happens to
allocate, and would otherwise count as that layer's work.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

#: (module, attribute path, layer).  A function imported into several
#: modules is listed once per module that calls it.
TARGETS = (
    ("repro.core.hub", "EnablementHub.run_campaign", "campaign"),
    ("repro.campaign.executor", "run_flow", "core.flow"),
    ("repro.inter.workspace", "run_flow", "core.flow"),
    ("repro.core.flow", "run_flow", "core.flow"),
    ("repro.resil.checkpoint", "StageCheckpointer.load", "resil"),
    ("repro.resil.checkpoint", "StageCheckpointer.save", "resil"),
    ("repro.core.flow", "lint_module", "lint"),
    ("repro.core.flow", "lint_mapped", "lint"),
    ("repro.inter.session", "EcoSession.lint_rtl", "lint"),
    ("repro.core.flow", "synthesize", "synth"),
    ("repro.synth.synthesize", "synthesize", "synth"),
    ("repro.inter.session", "EcoSession.synthesize", "synth"),
    ("repro.synth.synthesize", "check_equivalence", "sim"),
    ("repro.synth.verify", "check_equivalence", "sim"),
    ("repro.inter.session", "check_equivalence", "sim"),
    ("repro.ip.base", "IpBlock.verify", "sim"),
    ("repro.synth.dft", "simulate_faults", "sim"),
    ("repro.formal.lec", "replay_counterexamples", "sim"),
    ("repro.core.flow", "lec_flow", "formal"),
    ("repro.formal.lec", "check_lec", "formal"),
    ("repro.formal.lec", "mutate_netlist", "formal"),
    ("repro.inter.workspace", "check_lec", "formal"),
    ("repro.core.flow", "implement", "pnr"),
    ("repro.pnr.physical", "make_floorplan", "pnr.floorplan"),
    ("repro.pnr.physical", "place", "pnr.place"),
    ("repro.pnr.physical", "hier_place", "pnr.place"),
    ("repro.pnr.physical", "synthesize_clock_tree", "pnr.cts"),
    ("repro.pnr.physical", "route", "pnr.route"),
    ("repro.inter.session", "EcoSession.route", "pnr.route"),
    ("repro.sta.engine", "TimingAnalyzer.__init__", "sta"),
    ("repro.sta.engine", "TimingAnalyzer.analyze", "sta"),
    ("repro.power.engine", "PowerAnalyzer.__init__", "power"),
    ("repro.power.engine", "PowerAnalyzer.analyze", "power"),
    ("repro.core.flow", "build_chip_gds", "layout.build"),
    ("repro.core.flow", "check_drc", "layout.drc"),
    ("repro.core.flow", "write_gds", "layout.gds_write"),
    ("repro.extract", "run_lvs", "extract.lvs"),
    ("repro.extract.compare", "read_gds", "layout.gds_read"),
    ("repro.extract.netlist", "read_gds", "layout.gds_read"),
    ("repro.extract.compare", "extract_netlist", "extract.netlist"),
    ("repro.extract.compare", "compare_netlists", "extract.compare"),
    ("repro.inter.workspace", "Workspace.edit", "inter.edit"),
    ("repro.inter.workspace", "Workspace.open", "inter.open"),
)

#: The span the benchmark opens around each job's entry-point call; its
#: self time is the job time no layer claims.
JOB_SPAN = "bench.job"
GC_SPAN = "python.gc"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    error: str | None = None


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}.{path} is gone: update TARGETS")
    return owner, attr


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        #: Job id stamped on every span opened from now on (None: set-up).
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.job)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            parent = self._stack[-1] if self._stack else None
            self._stack.append(len(self.spans))
            self.spans.append(
                Span(GC_SPAN, time.perf_counter(), 0.0, parent, self.job)
            )
        else:
            self.spans[self._stack.pop()].end = time.perf_counter()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, path, layer in targets:
            owner, attr = _resolve(module_name, path)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(original.__func__, layer))
            else:
                wrapped = self._wrap(original, layer)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        while self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name, over the spans opened inside
        jobs (set-up spans are left out)."""
        nested = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                nested[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans, nested):
            if span.job is not None:
                totals[span.name] += span.end - span.start - inner
        return dict(totals)

    def durations(self, name: str, job: bool) -> list[float]:
        """Durations of the spans called ``name`` opened inside (``job``)
        or outside jobs."""
        return [s.end - s.start for s in self.spans
                if s.name == name and (s.job is not None) == job]

    def rows(self):
        for span in self.spans:
            yield asdict(span)
