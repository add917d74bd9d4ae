"""repro.resil — fault tolerance for the enablement platform.

Real shared university compute (the paper's Recommendation 7
infrastructure) has preempted jobs, failed nodes and course deadlines.
This package is the robustness layer threaded through the cloud
simulator and the flow runner:

* :mod:`~repro.resil.faults` — seeded :class:`FaultModel` (MTBF/MTTR,
  preemption, transient vs fatal) for the discrete-event simulator, and
  the deterministic :class:`FaultInjector` drill for flow stages;
* :mod:`~repro.resil.retry` — pluggable :class:`RetryPolicy` with
  :class:`ExponentialBackoff` (jitter, caps, deadline-aware give-up),
  budgeted in simulated minutes;
* :mod:`~repro.resil.store` — the one content-addressed :class:`Store`
  (:class:`MemoryStore`, :class:`DirectoryStore`, LRU-bounded) behind
  both checkpoints and the campaign result cache;
* :mod:`~repro.resil.checkpoint` — content-hash-keyed per-stage flow
  checkpoints so a retried or resumed flow skips completed stages;
* :mod:`~repro.resil.failure` — structured :class:`FlowFailure` records
  for graceful degradation and the :class:`InjectedFault` drill
  exception.

Nothing here imports :mod:`repro.core`; the core engines import this
package, never the other way around.
"""

from .cachekey import canonical, flow_cache_key
from .checkpoint import StageCheckpointer
from .failure import FAILURE_KINDS, FlowFailure, InjectedFault
from .faults import FaultInjector, FaultModel, FaultSampler
from .retry import ExponentialBackoff, RetryPolicy
from .store import DirectoryStore, MemoryStore, Store

__all__ = [
    "DirectoryStore",
    "ExponentialBackoff",
    "FAILURE_KINDS",
    "FaultInjector",
    "FaultModel",
    "FaultSampler",
    "FlowFailure",
    "InjectedFault",
    "MemoryStore",
    "RetryPolicy",
    "StageCheckpointer",
    "Store",
    "canonical",
    "flow_cache_key",
]
