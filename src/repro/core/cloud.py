"""Cloud execution platform: a discrete-event job-queue simulator.

Recommendation 7: centralized, cloud-based enablement infrastructure with
"scalable computing resources for chip design tasks".  This simulator
answers the capacity-planning questions such a platform raises: queueing
delay vs number of servers, utilization, and deadline risk for course
assignments — numbers the E6/E8 benchmarks report.

Real shared academic compute also *fails*: a seeded
:class:`~repro.resil.faults.FaultModel` injects server faults (MTBF /
MTTR), job preemptions and fatal errors, and failed jobs re-enter the
queue under a pluggable :class:`~repro.resil.retry.RetryPolicy`
(exponential backoff with jitter, budgeted in simulated minutes,
deadline-aware give-up).  The same seed always yields the same schedule,
so "how many servers do we need to hit the assignment deadline at p95
given 2% node failures" is a reproducible number, not an anecdote.

The simulator is observable (:mod:`repro.obs`): each completed job
becomes a ``cloud.job`` span over *simulated* minutes (with a nested
``cloud.job.run`` span for its service time), fault windows become
``cloud.job.fault`` spans and backoff waits ``resil.retry`` spans, and
queue depth / instantaneous utilization are recorded as gauge series
keyed by simulated time, so a trace renders the platform's congestion
*and* failure history.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry, nearest_rank_p95
from ..obs.trace import Tracer, get_tracer
from ..resil.faults import FaultModel
from ..resil.retry import ExponentialBackoff, RetryPolicy

#: Wait-time histogram bucket bounds (simulated minutes).
_WAIT_BUCKETS = (0.5, 1, 2, 5, 10, 20, 60, 120, 480)


@dataclass
class CloudJob:
    """One flow execution request."""

    job_id: int
    user: str
    #: Nominal compute time in minutes (e.g. from design size).
    duration_min: float
    submit_min: float
    priority: int = 0  # lower runs first among queued jobs
    #: Absolute simulated minute the results are needed by, if any.
    deadline_min: float | None = None
    #: Start of the successful execution attempt.
    start_min: float | None = None
    finish_min: float | None = None
    #: Execution attempts started (1 for a fault-free job).
    attempts: int = 0
    #: Times the job re-entered the queue after a transient fault.
    retries: int = 0
    preemptions: int = 0
    #: ``pending`` → ``done`` | ``failed`` (fatal fault) | ``gave_up``
    #: (retry budget or deadline exhausted).
    outcome: str = "pending"

    @property
    def completed(self) -> bool:
        return self.outcome == "done"

    @property
    def missed_deadline(self) -> bool:
        """Deadline set, and either never finished or finished late."""
        if self.deadline_min is None:
            return False
        if not self.completed:
            return True
        return self.finish_min > self.deadline_min

    @property
    def wait_min(self) -> float:
        if self.start_min is None:
            return 0.0
        return self.start_min - self.submit_min

    @property
    def turnaround_min(self) -> float:
        if self.finish_min is None:
            return 0.0
        return self.finish_min - self.submit_min


@dataclass
class CloudStats:
    jobs: int
    mean_wait_min: float
    p95_wait_min: float
    mean_turnaround_min: float
    utilization: float
    makespan_min: float
    #: Fault-tolerance outcomes (all zero on a fault-free platform).
    retries: int = 0
    preemptions: int = 0
    faults: int = 0
    failed: int = 0
    deadline_misses: int = 0
    #: Per-user fairness view over finished jobs: ``{user: {"jobs": n,
    #: "mean_wait_min": w, "service_min": s}}`` — the numbers a
    #: fair-share campaign is judged against.
    by_user: dict = field(default_factory=dict)


class CloudPlatform:
    """Fixed pool of identical servers, priority-FIFO dispatch.

    ``fault_model`` switches on failure injection; ``retry_policy``
    (default :class:`~repro.resil.retry.ExponentialBackoff`) schedules
    re-queued jobs after transient faults and preemptions.
    """

    def __init__(self, servers: int = 4, tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 fault_model: FaultModel | None = None,
                 retry_policy: RetryPolicy | None = None):
        if servers < 1:
            raise ValueError("need at least one server")
        self.servers = servers
        self.tracer = tracer if tracer is not None else get_tracer()
        #: Platform metrics (queue depth / utilization gauges over
        #: simulated minutes, completion counters) — always collected.
        #: Unlike wall-clock engines, the default registry is *private*:
        #: two simulated platforms must not interleave their series.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.fault_model = fault_model
        self.retry_policy = (
            retry_policy if retry_policy is not None else ExponentialBackoff()
        )
        self._jobs: list[CloudJob] = []

    def submit(self, user: str, duration_min: float, submit_min: float,
               priority: int = 0,
               deadline_min: float | None = None) -> CloudJob:
        if duration_min <= 0:
            raise ValueError("job duration must be positive")
        job = CloudJob(
            job_id=len(self._jobs),
            user=user,
            duration_min=duration_min,
            submit_min=submit_min,
            priority=priority,
            deadline_min=deadline_min,
        )
        self._jobs.append(job)
        return job

    def jobs(self) -> list[CloudJob]:
        """The submitted jobs, in submission order."""
        return list(self._jobs)

    def run(self) -> CloudStats:
        """Simulate to completion and return queueing + fault statistics."""
        sampler = (
            self.fault_model.sampler() if self.fault_model is not None
            else None
        )
        policy = self.retry_policy
        seq = itertools.count()
        # Future queue entries: initial submissions plus retry re-entries.
        arrivals: list[tuple[float, int, int]] = []
        for job in self._jobs:
            heapq.heappush(arrivals, (job.submit_min, next(seq), job.job_id))
        # Min-heap of server-free times, one entry per server.
        free_at = [0.0] * self.servers
        heapq.heapify(free_at)
        queued: list[tuple[int, float, int]] = []  # (priority, submit, id)
        by_id = {j.job_id: j for j in self._jobs}
        now = 0.0
        busy_total = 0.0
        busy_end = 0.0  # last instant any server was executing
        retries = preemptions = faults = 0
        queue_depth = self.metrics.gauge("cloud.queue_depth")
        utilization = self.metrics.gauge("cloud.utilization")

        while arrivals or queued:
            # Advance to the next dispatch opportunity: a free server if
            # work is queued, else the next arrival.
            if queued:
                now = max(now, free_at[0])
            else:
                now = max(now, arrivals[0][0])
            while arrivals and arrivals[0][0] <= now:
                _, _, job_id = heapq.heappop(arrivals)
                job = by_id[job_id]
                heapq.heappush(queued, (job.priority, job.submit_min, job_id))
            queue_depth.set(len(queued), at=now)
            if not queued:
                continue
            server_free = heapq.heappop(free_at)
            _, _, job_id = heapq.heappop(queued)
            job = by_id[job_id]
            exec_start = max(server_free, now)
            job.attempts += 1
            kind, fraction = (
                sampler.draw(job.duration_min) if sampler else ("ok", 1.0)
            )

            if kind == "ok":
                job.start_min = exec_start
                job.finish_min = exec_start + job.duration_min
                job.outcome = "done"
                busy_total += job.duration_min
                busy_end = max(busy_end, job.finish_min)
                heapq.heappush(free_at, job.finish_min)
                # Servers busy the instant this job starts: every pool slot
                # whose free time lies beyond the start is still running.
                busy_now = sum(1 for t in free_at if t > job.start_min)
                utilization.set(busy_now / self.servers, at=job.start_min)
                self._trace_job(job)
                self.metrics.counter("cloud.jobs_completed").inc()
                self.metrics.histogram(
                    "cloud.wait_min", buckets=_WAIT_BUCKETS
                ).observe(job.wait_min)
                continue

            # Fault path: the attempt dies part-way through.
            fault_at = exec_start + fraction * job.duration_min
            busy_total += fraction * job.duration_min
            busy_end = max(busy_end, fault_at)
            faults += 1
            self.metrics.counter(f"cloud.faults.{kind}").inc()
            self._trace_fault(job, exec_start, fault_at, kind)
            if kind == "preempt":
                # Resource reclaimed: the server itself is fine.
                job.preemptions += 1
                preemptions += 1
                heapq.heappush(free_at, fault_at)
            else:
                # Server fault: down for the repair window.
                heapq.heappush(free_at, fault_at + self.fault_model.mttr_min)

            if kind == "fatal":
                job.outcome = "failed"
                self.metrics.counter("cloud.jobs_failed").inc()
                continue
            if policy.gives_up(job.attempts):
                job.outcome = "gave_up"
                self.metrics.counter("cloud.jobs_failed").inc()
                continue
            delay = policy.backoff_min(
                job.attempts, sampler.rng if sampler else None
            )
            eligible = fault_at + delay
            if (policy.deadline_aware and job.deadline_min is not None
                    and eligible + job.duration_min > job.deadline_min):
                # Retrying cannot beat the deadline; stop burning servers.
                job.outcome = "gave_up"
                self.metrics.counter("cloud.jobs_failed").inc()
                continue
            job.retries += 1
            retries += 1
            self.metrics.counter("cloud.retries").inc()
            self._trace_retry(job, fault_at, eligible, delay)
            heapq.heappush(arrivals, (eligible, next(seq), job.job_id))

        return self._stats(busy_total, busy_end, retries, preemptions, faults)

    def _stats(self, busy_total: float, busy_end: float, retries: int,
               preemptions: int, faults: int) -> CloudStats:
        finished = [j for j in self._jobs if j.completed]
        failed = sum(
            1 for j in self._jobs if j.outcome in ("failed", "gave_up")
        )
        deadline_misses = sum(1 for j in self._jobs if j.missed_deadline)
        if not finished:
            return CloudStats(
                0, 0.0, 0.0, 0.0, 0.0, 0.0,
                retries=retries, preemptions=preemptions, faults=faults,
                failed=failed, deadline_misses=deadline_misses,
            )
        waits = sorted(j.wait_min for j in finished)
        makespan = max(j.finish_min for j in finished)
        # Utilization over the interval servers could actually have been
        # busy: first submission to the last execution event.  Measuring
        # from t=0 overstated idle capacity whenever the first job
        # arrived late.
        first_submit = min(j.submit_min for j in self._jobs)
        window = (max(busy_end, makespan) - first_submit) * self.servers
        by_user: dict[str, dict[str, float]] = {}
        for job in finished:
            row = by_user.setdefault(
                job.user, {"jobs": 0, "mean_wait_min": 0.0, "service_min": 0.0}
            )
            row["jobs"] += 1
            row["mean_wait_min"] += job.wait_min
            row["service_min"] += job.duration_min
        for row in by_user.values():
            row["mean_wait_min"] = round(row["mean_wait_min"] / row["jobs"], 3)
            row["service_min"] = round(row["service_min"], 3)
        return CloudStats(
            jobs=len(finished),
            mean_wait_min=round(sum(waits) / len(waits), 3),
            p95_wait_min=round(nearest_rank_p95(waits), 3),
            mean_turnaround_min=round(
                sum(j.turnaround_min for j in finished) / len(finished), 3
            ),
            utilization=round(busy_total / window if window > 0 else 0.0, 4),
            makespan_min=round(makespan, 3),
            retries=retries,
            preemptions=preemptions,
            faults=faults,
            failed=failed,
            deadline_misses=deadline_misses,
            by_user=by_user,
        )

    def _trace_job(self, job: CloudJob) -> None:
        """One span per job over simulated minutes: submit→finish, with
        the service interval (start→finish) as a child span."""
        if not self.tracer.enabled:
            return
        parent = self.tracer.add_span(
            "cloud.job",
            job.submit_min,
            job.finish_min,
            user=job.user,
            job_id=job.job_id,
            priority=job.priority,
            wait_min=round(job.wait_min, 3),
            attempts=job.attempts,
        )
        self.tracer.add_span(
            "cloud.job.run",
            job.start_min,
            job.finish_min,
            parent_id=parent.span_id,
            duration_min=job.duration_min,
        )

    def _trace_fault(self, job: CloudJob, exec_start: float, fault_at: float,
                     kind: str) -> None:
        """The doomed execution attempt, as a simulated-minutes span."""
        if not self.tracer.enabled:
            return
        self.tracer.add_span(
            "cloud.job.fault",
            exec_start,
            fault_at,
            user=job.user,
            job_id=job.job_id,
            kind=kind,
            attempt=job.attempts,
        )

    def _trace_retry(self, job: CloudJob, fault_at: float, eligible: float,
                     delay: float) -> None:
        """The backoff wait between a fault and the re-queue."""
        if not self.tracer.enabled:
            return
        self.tracer.add_span(
            "resil.retry",
            fault_at,
            eligible,
            job_id=job.job_id,
            attempt=job.attempts,
            backoff_min=round(delay, 3),
        )


def estimate_job_minutes(cell_count: int) -> float:
    """Nominal flow runtime from design size (calibrated to small EDA
    jobs: ~15 min base plus ~1 min per 100 cells)."""
    return 15.0 + cell_count / 100.0
