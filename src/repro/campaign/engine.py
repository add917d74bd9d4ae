"""The campaign engine: queue + scheduler + cache + executor, composed.

:class:`Campaign` is the multi-tenant front end the ROADMAP's first
open item asks for — the layer that turns the hub's one-flow-at-a-time
``run_design`` into a classroom-scale service.  Usage::

    campaign = Campaign(workers=4, seed=7)
    for student, module in submissions:
        campaign.submit(student, module, "edu130")
    report = campaign.run()
    print(report.render())

``run`` is a pure function of the submissions, the seed and the cache
contents: the scheduler's dispatch order, every cache hit/miss and the
simulated latency numbers reproduce exactly, while wall-clock
throughput reflects the machine it ran on.
"""

from __future__ import annotations

from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import Tracer, get_tracer
from ..resil.store import MemoryStore, Store
from .cache import result_cache_key
from .executor import CampaignExecutor
from .queue import CampaignJob, CampaignQueue
from .report import CampaignReport, build_report
from .sched import FairShareScheduler, Scheduler, evaluate_schedule


class CampaignError(Exception):
    """Raised on invalid campaign configuration or usage."""


class Campaign:
    """One schedulable batch of multi-tenant flow jobs.

    ``workers=0`` (or 1) executes serially in-process; higher values
    fan cache misses out to a process pool of that size.  ``cache``
    defaults to a fresh :class:`~repro.resil.store.MemoryStore` — pass a
    shared :class:`~repro.resil.store.DirectoryStore` (or the hub's
    store) to memoize across campaigns.  ``cache_hit_minutes`` is the
    simulated service time a cache hit is billed in the latency model
    (serving a stored result is not free, but it is not a flow run).
    """

    def __init__(self, scheduler: Scheduler | None = None,
                 cache: Store | None = None, workers: int = 0,
                 seed: int = 1, cache_hit_minutes: float = 0.05,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None):
        if cache_hit_minutes < 0:
            raise CampaignError("cache_hit_minutes must be non-negative")
        self.scheduler = (
            scheduler if scheduler is not None else FairShareScheduler()
        )
        self.cache = cache if cache is not None else MemoryStore()
        self.workers = workers
        self.seed = seed
        self.cache_hit_minutes = cache_hit_minutes
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics = metrics if metrics is not None else get_metrics()
        self.queue = CampaignQueue()

    def submit(self, tenant: str, module, pdk_name: str = "edu130",
               options=None, priority: int = 0,
               deadline_min: float | None = None,
               est_minutes: float | None = None) -> CampaignJob:
        """Enqueue one design for this campaign."""
        return self.queue.submit(
            tenant, module, pdk_name, options=options, priority=priority,
            deadline_min=deadline_min, est_minutes=est_minutes,
        )

    def run(self) -> CampaignReport:
        """Schedule, execute and report every pending job."""
        pending = self.queue.pending()
        if not pending:
            raise CampaignError("campaign has no pending jobs")
        for job in pending:
            job.key = result_cache_key(job.module, job.pdk_name, job.options)

        with self.tracer.span(
            "campaign.run", jobs=len(pending),
            scheduler=self.scheduler.name, workers=self.workers,
            seed=self.seed,
        ) as span:
            ordered = self.scheduler.order(pending, seed=self.seed)
            for position, job in enumerate(ordered):
                job.order = position
            executor = CampaignExecutor(self.workers, metrics=self.metrics)
            elapsed = executor.run(ordered, self.cache)
            # The latency model replays the dispatch order with the
            # *observed* hit pattern, so memoization shows up in the
            # simulated p95 exactly where it saved a flow run.
            sim = evaluate_schedule(
                ordered, max(1, self.workers),
                cache_hit_minutes=self.cache_hit_minutes,
            )
            span.set(
                cache_hits=sum(1 for j in ordered if j.cache_hit),
                failed=sum(1 for j in ordered if j.status == "failed"),
            )
        return build_report(
            ordered, sim, self.scheduler.name, self.workers, self.seed,
            elapsed, self.metrics,
        )
