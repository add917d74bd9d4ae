"""Interactive edit loops: incremental recompilation for the full flow.

The paper's enablement gap is as much about *iteration latency* as about
access: a student who waits minutes per edit runs out of lab time long
before running out of ideas.  This package closes the loop to sub-second
scale without giving up any signoff guarantee:

* :mod:`~repro.inter.hashes` — per-module content hashing and the
  ripple-aware dirty set;
* :mod:`~repro.inter.stitch` — memoized per-module synthesis and the
  deterministic netlist stitcher;
* :mod:`~repro.inter.replay` — verified-replay routing (recorded maze
  paths substituted only when provably unaffected);
* :mod:`~repro.inter.session` — the :class:`EcoSession` engine bundle
  injected into :func:`~repro.core.run_flow` via ``FlowOptions.eco``;
* :mod:`~repro.inter.workspace` — the :class:`Workspace` session API:
  ``open`` once, ``edit`` in a loop, every patch proved by a full LEC
  miter with a full-rebuild fallback.

Everything is deterministic-modulo-memo: an incremental run and a
from-scratch rebuild of the same design produce byte-identical flow
results and GDS.
"""

from .hashes import (
    InterError,
    content_hash,
    dirty_modules,
    module_keys,
    module_table,
    strip_module,
)
from .replay import ReplayRouter, RouteBaseline
from .session import EcoSession
from .stitch import Shard, instance_paths, shard_memo_key, stitch, \
    synthesize_shard
from .workspace import EditReport, Workspace, substitute_module

__all__ = [
    "EcoSession",
    "EditReport",
    "InterError",
    "ReplayRouter",
    "RouteBaseline",
    "Shard",
    "Workspace",
    "content_hash",
    "dirty_modules",
    "instance_paths",
    "module_keys",
    "module_table",
    "shard_memo_key",
    "stitch",
    "strip_module",
    "substitute_module",
    "synthesize_shard",
]
