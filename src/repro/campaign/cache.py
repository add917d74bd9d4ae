"""Global content-hash result cache: the key and signature of a result.

A campaign memoizes whole :class:`~repro.core.flow.FlowResult` objects
in a :class:`~repro.resil.store.Store`, the store checkpoints use too.
This module holds what is specific to results.  The key
(:func:`result_cache_key`) is the *same*
:func:`~repro.resil.cachekey.flow_cache_key` the checkpointer uses —
one implementation, no drift — extended with every remaining
compared field of :class:`~repro.core.options.FlowOptions` (clock
period, DRC/lint strictness, formal LEC, GDS-in LVS, …).  At classroom
scale most submissions are byte-identical (the same assignment,
the same starter code), so a campaign's second copy of a design costs
one hash and one store read instead of a flow run.

``FlowResult`` is read-only downstream of ``run_flow``: a
:class:`~repro.resil.store.MemoryStore` keeps the producer's own
instance and hands every hit that same object, while a
:class:`~repro.resil.store.DirectoryStore` unpickles a private copy
per read.  :func:`result_signature` digests what a run produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from ..core.options import FlowOptions
from ..resil.cachekey import canonical, flow_cache_key

#: Compared FlowOptions fields the result key leaves out: ``preset`` and
#: ``seed`` are already in the base key, and ``resume`` changes how a
#: run executes, never what it produces.  Injected machinery
#: (``checkpoints``, ``inject``, ``eco``) is ``compare=False`` and never
#: keyed.
UNKEYED_FIELDS = frozenset({"preset", "seed", "resume"})


def result_cache_key(module, pdk_name: str, options: FlowOptions) -> str:
    """Content hash of one memoizable flow request.

    Base payload identical to the checkpoint key (RTL, PDK, preset,
    seed); every other compared ``FlowOptions`` field, except those in
    :data:`UNKEYED_FIELDS`, folds in through the shared key function's
    ``extra`` channel, so a knob added to ``FlowOptions`` is keyed
    unless it is named exempt.
    """
    extra = {
        f.name: getattr(options, f.name)
        for f in dataclasses.fields(FlowOptions)
        if f.compare and f.name not in UNKEYED_FIELDS
    }
    return flow_cache_key(
        module, pdk_name, options.preset, options.seed, extra=extra
    )


def result_signature(result) -> str:
    """Deterministic digest of what a flow run *produced*.

    Covers the artifacts (GDS bytes, PPA numbers, step verdicts, lint
    and failure counts) and excludes everything wall-clock (runtimes,
    spans), so serial and process-pool executions of the same request
    must produce the same signature — the bench's divergence gate.
    """
    payload = {
        "design": result.design_name,
        "pdk": result.pdk_name,
        "preset": canonical(result.preset),
        "clock_period_ps": result.clock_period_ps,
        "steps": [[s.step.value, s.ok] for s in result.steps],
        "gds": (
            hashlib.sha256(result.gds_bytes).hexdigest()
            if result.gds_bytes is not None else None
        ),
        "ppa": result.ppa.as_row() if result.ppa is not None else None,
        "lint": (
            [len(result.lint.errors), len(result.lint.warnings)]
            if result.lint is not None else None
        ),
        "failures": [[f.stage, f.kind] for f in result.failures],
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]
