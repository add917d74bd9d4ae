"""Campaign execution: serial in-process or a ProcessPoolExecutor.

The executor consumes the scheduler's dispatch order and settles every
job against the result cache:

* a key already in the cache is a **hit** — the job gets the memoized
  :class:`~repro.core.flow.FlowResult` (the one shared, read-only
  instance from a memory store; a private copy from a directory store);
* a key already *in flight* (an identical design running right now in
  the pool) makes the job a **follower**: it waits for that execution
  and then reads the cache, so duplicate submissions never run twice
  even when they arrive faster than flows finish;
* everything else is a **miss** and runs :func:`~repro.core.flow.run_flow`
  — in-process when ``workers <= 1`` (the test-friendly serial mode),
  else on the process pool.

Accounting is mode-invariant by construction: a follower only counts
its cache hit after the owning execution completes, and a follower of a
*failed* execution is promoted to run (and count a miss) itself —
exactly the sequence the serial loop produces.  ``FlowOptions`` is
threaded through to ``run_flow`` unchanged.  At the process-pool
boundary its ``checkpoints`` store behaves by backend (DESIGN.md
"Campaign architecture"): a :class:`~repro.resil.store.MemoryStore`
pickles as an empty store, so a worker starts cold and its writes stay
in the worker, while a :class:`~repro.resil.store.DirectoryStore` is
shared through the file system.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from ..core.flow import run_flow
from ..obs.metrics import MetricsRegistry, get_metrics
from ..pdk.pdks import get_pdk
from ..resil.store import Store
from .queue import CampaignJob

#: Execution-latency histogram bucket bounds (wall seconds).
_EXEC_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


def _run_one(payload):
    """Pool worker: run one flow and report its wall time.

    Top-level (picklable) so it works under any multiprocessing start
    method; the PDK travels by name and is resolved from the worker's
    own registry.
    """
    module, pdk_name, options = payload
    start = time.perf_counter()
    result = run_flow(module, get_pdk(pdk_name), options)
    return result, time.perf_counter() - start


class CampaignExecutor:
    """Runs a dispatch order against a result cache.

    ``workers <= 1`` executes serially in-process (deterministic,
    debuggable, no pickling); ``workers >= 2`` fans misses out to a
    ``ProcessPoolExecutor`` of that size.
    """

    def __init__(self, workers: int = 0,
                 metrics: MetricsRegistry | None = None):
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = workers
        self.metrics = metrics if metrics is not None else get_metrics()

    @property
    def serial(self) -> bool:
        return self.workers <= 1

    def run(self, ordered: list[CampaignJob], cache: Store) -> float:
        """Execute every job; returns elapsed wall seconds."""
        start = time.perf_counter()
        if self.serial:
            self._run_serial(ordered, cache)
        else:
            self._run_pool(ordered, cache)
        elapsed = time.perf_counter() - start
        for job in ordered:
            self.metrics.counter("campaign.jobs").inc()
            if job.status == "failed":
                self.metrics.counter("campaign.failures").inc()
            if job.cache_hit:
                self.metrics.counter("campaign.cache.hits").inc()
            else:
                self.metrics.counter("campaign.cache.misses").inc()
        return elapsed

    # -- shared settle helpers ----------------------------------------------

    def _settle_hit(self, job: CampaignJob, result) -> None:
        job.status = "done"
        job.cache_hit = True
        job.result = result

    def _settle_run(self, job: CampaignJob, cache: Store,
                    result, exec_s: float) -> None:
        cache.put(job.key, result)
        job.status = "done"
        job.result = result
        self.metrics.histogram(
            "campaign.exec_seconds", buckets=_EXEC_BUCKETS
        ).observe(exec_s)

    def _settle_failure(self, job: CampaignJob, exc: BaseException) -> None:
        job.status = "failed"
        job.error = str(exc)

    # -- serial mode ---------------------------------------------------------

    def _run_serial(self, ordered, cache):
        for job in ordered:
            cached = cache.get(job.key)
            if cached is not None:
                self._settle_hit(job, cached)
                continue
            try:
                result, exec_s = _run_one(
                    (job.module, job.pdk_name, job.options)
                )
            except Exception as exc:  # FlowError, HdlError, ...
                self._settle_failure(job, exc)
                continue
            self._settle_run(job, cache, result, exec_s)

    # -- process-pool mode ----------------------------------------------------

    def _run_pool(self, ordered, cache):
        inflight: dict[str, object] = {}   # key -> Future
        owner_of: dict[object, CampaignJob] = {}
        followers: dict[str, deque[CampaignJob]] = {}

        with ProcessPoolExecutor(max_workers=self.workers) as pool:

            def submit_owner(job: CampaignJob) -> None:
                future = pool.submit(
                    _run_one, (job.module, job.pdk_name, job.options)
                )
                inflight[job.key] = future
                owner_of[future] = job

            for job in ordered:
                if job.key in inflight:
                    followers.setdefault(job.key, deque()).append(job)
                    continue
                cached = cache.get(job.key)
                if cached is not None:
                    self._settle_hit(job, cached)
                else:
                    submit_owner(job)

            while inflight:
                done, _ = wait(
                    set(inflight.values()), return_when=FIRST_COMPLETED
                )
                for future in done:
                    owner = owner_of.pop(future)
                    key = owner.key
                    del inflight[key]
                    waiting = followers.pop(key, deque())
                    try:
                        result, exec_s = future.result()
                    except Exception as exc:
                        self._settle_failure(owner, exc)
                        # A deterministic flow fails again if re-run, but
                        # the serial loop *does* re-run each duplicate (a
                        # failure is never cached) — promote the next
                        # follower so both modes count the same misses.
                        if waiting:
                            successor = waiting.popleft()
                            cached = cache.get(successor.key)
                            if cached is not None:
                                self._settle_hit(successor, cached)
                                for follower in waiting:
                                    self._settle_hit(
                                        follower, cache.get(key)
                                    )
                            else:
                                submit_owner(successor)
                                if waiting:
                                    followers[key] = waiting
                        continue
                    self._settle_run(owner, cache, result, exec_s)
                    for follower in waiting:
                        self._settle_hit(follower, cache.get(key))
