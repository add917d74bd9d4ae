"""repro.campaign — the distributed multi-design campaign engine.

The paper's Recommendation 7 asks for centralized cloud execution of
university design flows; this package is the scheduler-and-cache layer
that turns the single-flow :class:`~repro.core.hub.EnablementHub` into
a multi-tenant campaign service:

* :mod:`~repro.campaign.queue` — :class:`CampaignJob` submissions with
  tenant, priority, deadline and an estimated service time;
* :mod:`~repro.campaign.sched` — :class:`FairShareScheduler`
  (fair-share across tenants, EDF tie-breaks, deterministic under a
  seed), the :class:`FifoScheduler` baseline, and the simulated-minutes
  schedule evaluator;
* :mod:`~repro.campaign.cache` — the key and signature of the global
  content-hash result cache, built on the *same*
  :func:`~repro.resil.cachekey.flow_cache_key` the checkpointer uses;
  results live in a :class:`~repro.resil.store.Store`;
* :mod:`~repro.campaign.executor` — serial or process-pool execution
  with in-flight dedup of identical submissions;
* :mod:`~repro.campaign.report` — throughput, cache hit rate and p95
  queue latency through the :mod:`repro.obs` metrics registry;
* :mod:`~repro.campaign.engine` — :class:`Campaign`, the composition.

This package imports :mod:`repro.core` submodules (flow, options), so
:mod:`repro.core` must only import it lazily (the hub does).
"""

from ..obs.metrics import nearest_rank_p95
from .cache import result_cache_key, result_signature
from .engine import Campaign, CampaignError
from .executor import CampaignExecutor
from .queue import CampaignJob, CampaignQueue, estimate_flow_minutes
from .report import CampaignReport, build_report
from .sched import (
    FairShareScheduler,
    FifoScheduler,
    Scheduler,
    SimSchedule,
    evaluate_schedule,
)

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignExecutor",
    "CampaignJob",
    "CampaignQueue",
    "CampaignReport",
    "FairShareScheduler",
    "FifoScheduler",
    "Scheduler",
    "SimSchedule",
    "build_report",
    "estimate_flow_minutes",
    "evaluate_schedule",
    "nearest_rank_p95",
    "result_cache_key",
    "result_signature",
]
