"""Campaign reporting: throughput, cache economics, queue latency.

One :class:`CampaignReport` per campaign run, in two halves:

* **deterministic** — dispatch order, cache hit/miss counts, the
  simulated-schedule latency numbers (p95 queue wait, makespan,
  deadline misses, per-tenant fairness).  ``render()`` prints exactly
  this half, so CI can diff two seeded runs byte-for-byte;
* **wall-clock** — elapsed seconds and jobs/second throughput, the
  numbers the BENCH trajectory tracks.  These live only in
  :meth:`as_dict` / :meth:`to_json`.

Everything is also pushed through the :mod:`repro.obs` metrics
registry (``campaign.*`` counters, the queue-wait histogram, the
throughput gauge), so a campaign shows up in the same observability
plane as individual flows and the cloud simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry
from .queue import CampaignJob
from .sched import SimSchedule

#: Simulated queue-wait histogram bucket bounds (minutes).
_WAIT_BUCKETS = (0.5, 1, 2, 5, 10, 20, 60, 120, 480, 2400)


@dataclass
class CampaignReport:
    """Aggregate outcome of one campaign run."""

    scheduler: str
    workers: int
    seed: int
    jobs: int
    completed: int
    failed: int
    unique_designs: int
    cache_hits: int
    cache_misses: int
    sim: SimSchedule
    #: Wall-clock half (excluded from the deterministic render).
    elapsed_s: float = 0.0
    throughput_jobs_per_s: float = 0.0
    tenants: list[str] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "workers": self.workers,
            "seed": self.seed,
            "jobs": self.jobs,
            "completed": self.completed,
            "failed": self.failed,
            "unique_designs": self.unique_designs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.hit_rate, 4),
            "tenants": self.tenants,
            "sim": self.sim.as_dict(),
            "elapsed_s": round(self.elapsed_s, 3),
            "throughput_jobs_per_s": round(self.throughput_jobs_per_s, 2),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """The deterministic summary block (no wall-clock numbers)."""
        lines = [
            f"campaign: {self.jobs} job(s), {len(self.tenants)} tenant(s), "
            f"scheduler={self.scheduler} workers={self.workers} "
            f"seed={self.seed}",
            f"results: completed={self.completed} failed={self.failed} "
            f"unique={self.unique_designs}",
            f"cache: hits={self.cache_hits} misses={self.cache_misses} "
            f"hit_rate={self.hit_rate:.4f}",
            f"latency(sim): p95_wait_min={self.sim.p95_wait_min:.3f} "
            f"mean_wait_min={self.sim.mean_wait_min:.3f} "
            f"makespan_min={self.sim.makespan_min:.3f} "
            f"deadline_misses={self.sim.deadline_misses}",
        ]
        for tenant in self.tenants:
            row = self.sim.per_tenant.get(tenant)
            if row is None:
                continue
            lines.append(
                f"tenant {tenant}: jobs={row['jobs']} "
                f"service_min={row['service_min']:.3f} "
                f"mean_wait_min={row['mean_wait_min']:.3f} "
                f"max_wait_min={row['max_wait_min']:.3f}"
            )
        return "\n".join(lines)


def build_report(jobs: list[CampaignJob], sim: SimSchedule, scheduler: str,
                 workers: int, seed: int, elapsed_s: float,
                 metrics: MetricsRegistry) -> CampaignReport:
    """Assemble the report and emit it through the metrics registry."""
    completed = sum(1 for j in jobs if j.status == "done")
    failed = sum(1 for j in jobs if j.status == "failed")
    hits = sum(1 for j in jobs if j.cache_hit)
    misses = len(jobs) - hits
    unique = len({j.key for j in jobs if j.key is not None})
    tenants: dict[str, None] = {}
    for job in jobs:
        tenants.setdefault(job.tenant, None)

    wait_hist = metrics.histogram(
        "campaign.queue_wait_min", buckets=_WAIT_BUCKETS
    )
    for job in jobs:
        wait_hist.observe(job.sim_wait_min)
    throughput = len(jobs) / elapsed_s if elapsed_s > 0 else 0.0
    metrics.gauge("campaign.throughput_jobs_per_s").set(round(throughput, 2))
    metrics.gauge("campaign.cache_hit_rate").set(
        round(hits / len(jobs), 4) if jobs else 0.0
    )
    metrics.counter("campaign.deadline_misses").inc(sim.deadline_misses)
    metrics.counter("campaign.runs").inc()

    return CampaignReport(
        scheduler=scheduler,
        workers=workers,
        seed=seed,
        jobs=len(jobs),
        completed=completed,
        failed=failed,
        unique_designs=unique,
        cache_hits=hits,
        cache_misses=misses,
        sim=sim,
        elapsed_s=elapsed_s,
        throughput_jobs_per_s=throughput,
        tenants=list(tenants),
    )
