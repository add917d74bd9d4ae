"""Campaign scheduling policies: fair-share across tenants, EDF within.

The scheduler turns the pending set into a *dispatch order* — the
sequence the executor consumes.  Two policies ship:

* :class:`FifoScheduler` — global submission order, the baseline every
  fairness and deadline claim is measured against;
* :class:`FairShareScheduler` — repeatedly grants the next slot to the
  tenant with the least scheduled service time so far (weighted
  fair-share), breaking ties by the earliest deadline at the head of
  each tenant's queue and finally by a seeded per-tenant jitter, so the
  order is deterministic under a seed.  Within one tenant, jobs run
  earliest-deadline-first (EDF), then by priority, then submission
  order.

:func:`evaluate_schedule` replays a dispatch order through a
list-scheduling simulation over *simulated minutes* (the same clock the
cloud platform uses), yielding per-job start/finish times, queue waits
and deadline misses — the deterministic latency model the report and CI
diff against, independent of wall-clock noise.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from ..obs.metrics import nearest_rank_p95
from .queue import CampaignJob

_NO_DEADLINE = float("inf")


def _edf_key(job: CampaignJob) -> tuple:
    deadline = job.deadline_min if job.deadline_min is not None else _NO_DEADLINE
    return (deadline, job.priority, job.job_id)


class Scheduler:
    """Order the pending jobs of one campaign into a dispatch sequence."""

    name = "base"

    def order(self, jobs: list[CampaignJob], seed: int = 0) -> list[CampaignJob]:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class FifoScheduler(Scheduler):
    """Global first-come-first-served: submission order, nothing else."""

    name = "fifo"

    def order(self, jobs, seed=0):
        return sorted(jobs, key=lambda j: j.job_id)


class FairShareScheduler(Scheduler):
    """Fair-share across tenants with deadline-aware tie-breaking.

    Each grant goes to the tenant whose scheduled service time divided
    by its weight is smallest, so a tenant submitting 300 jobs cannot
    starve one submitting 3 — the small tenant's queue drains at the
    same *share* rate.  ``weights`` raises a tenant's share (weight 2.0
    receives twice the service time of weight 1.0).
    """

    name = "fair_share"

    def __init__(self, weights: dict[str, float] | None = None):
        self.weights = dict(weights or {})
        for tenant, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(f"weight for {tenant!r} must be positive")

    def order(self, jobs, seed=0):
        rng = random.Random(seed)
        queues: dict[str, list[CampaignJob]] = {}
        for job in sorted(jobs, key=lambda j: j.job_id):
            queues.setdefault(job.tenant, []).append(job)
        for tenant_jobs in queues.values():
            tenant_jobs.sort(key=_edf_key)
        # Seeded jitter is the *last* tie-break: it only matters when two
        # tenants have identical consumed share and identical head
        # deadlines, and it makes that coin-flip reproducible.
        jitter = {tenant: rng.random() for tenant in sorted(queues)}
        consumed = {tenant: 0.0 for tenant in queues}
        heads = {tenant: 0 for tenant in queues}
        ordered: list[CampaignJob] = []

        def grant_key(tenant: str) -> tuple:
            head = queues[tenant][heads[tenant]]
            deadline = (
                head.deadline_min if head.deadline_min is not None
                else _NO_DEADLINE
            )
            share = consumed[tenant] / self.weights.get(tenant, 1.0)
            return (share, deadline, jitter[tenant], tenant)

        live = set(queues)
        while live:
            tenant = min(live, key=grant_key)
            job = queues[tenant][heads[tenant]]
            ordered.append(job)
            consumed[tenant] += job.est_minutes
            heads[tenant] += 1
            if heads[tenant] == len(queues[tenant]):
                live.discard(tenant)
        return ordered


@dataclass
class SimSchedule:
    """Deterministic replay of a dispatch order over simulated minutes."""

    workers: int
    makespan_min: float
    mean_wait_min: float
    p95_wait_min: float
    deadline_misses: int
    #: Per-tenant fairness view: jobs, scheduled service minutes, waits.
    per_tenant: dict[str, dict[str, float]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "makespan_min": self.makespan_min,
            "mean_wait_min": self.mean_wait_min,
            "p95_wait_min": self.p95_wait_min,
            "deadline_misses": self.deadline_misses,
            "per_tenant": self.per_tenant,
        }


def evaluate_schedule(ordered: list[CampaignJob], workers: int,
                      cache_hit_minutes: float | None = None) -> SimSchedule:
    """List-schedule ``ordered`` onto ``workers`` identical servers.

    Every job is present at t=0 (a classroom submits a burst, not a
    trickle); the next job in the dispatch order starts on the earliest
    free worker.  A job's service time is its ``est_minutes`` — unless
    ``cache_hit_minutes`` is given and the job was a cache hit, in which
    case the hit cost applies, so the evaluated latency reflects what
    memoization actually saved.  Writes ``sim_start_min`` /
    ``sim_finish_min`` onto each job and returns the aggregate view.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    free_at = [0.0] * workers
    heapq.heapify(free_at)
    for job in ordered:
        minutes = job.est_minutes
        if cache_hit_minutes is not None and job.cache_hit:
            minutes = cache_hit_minutes
        start = heapq.heappop(free_at)
        job.sim_start_min = round(start, 6)
        job.sim_finish_min = round(start + minutes, 6)
        heapq.heappush(free_at, start + minutes)

    waits = [job.sim_wait_min for job in ordered]
    makespan = max((j.sim_finish_min for j in ordered), default=0.0)
    per_tenant: dict[str, dict[str, float]] = {}
    for job in ordered:
        row = per_tenant.setdefault(
            job.tenant, {"jobs": 0, "service_min": 0.0, "waits": []}
        )
        row["jobs"] += 1
        row["service_min"] += job.sim_finish_min - job.sim_start_min
        row["waits"].append(job.sim_wait_min)
    for row in per_tenant.values():
        row_waits = row.pop("waits")
        row["mean_wait_min"] = round(sum(row_waits) / len(row_waits), 3)
        row["max_wait_min"] = round(max(row_waits), 3)
        row["service_min"] = round(row["service_min"], 3)
    return SimSchedule(
        workers=workers,
        makespan_min=round(makespan, 3),
        mean_wait_min=round(sum(waits) / len(waits), 3) if waits else 0.0,
        p95_wait_min=round(nearest_rank_p95(waits), 3),
        deadline_misses=sum(1 for j in ordered if j.missed_deadline),
        per_tenant=per_tenant,
    )
