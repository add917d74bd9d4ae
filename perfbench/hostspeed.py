"""Host-speed probe: how fast this host runs a fixed kernel, right now.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes while the program's work stays the same.  The timed phase
of a run therefore interleaves a fixed kernel (``probe``) with its jobs
and measures the host factor around each job: the probe's median time
there over ``PROBE_REF_S``, so 1 is a host as fast as the one the
reference was measured on.  ``adjust`` divides a job's wall time by the
factor raised to the workload's sensitivity, how much of the probe's
slow-down its jobs suffer (chosen per workload from runs across the
host's phases).  That is a control variate: it takes out the part of
the spread between runs that the probe predicts, and since the kernel
is the benchmark's own code and never calls into ``repro``, a change to
the program still moves the adjusted times in full.

The kernel has two halves of about equal time, interpreter work (integer
arithmetic and a dict) and numpy work (sorts and uniques on a small
array), the two kinds of work the program's layers are made of.  Of the
objects it allocates only its one small dict is tracked by the garbage
collector, so it barely shifts the program's collections.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Median seconds of one ``probe()`` on the 2-core x86 VM (Python 3.11,
#: numpy 2) the benchmark was tuned on.  Only a scale: it cancels out of
#: every comparison between runs of one benchmark version.
PROBE_REF_S = 0.0090
#: One probe per this many seconds of job time, run between jobs.
PROBE_EVERY_S = 0.25
#: A job's factor is the median of the probes within this many seconds
#: of its start or end.
NEAR_S = 1.0

_PY_ITERS = 20_000
_NP_ROUNDS = 3
_ARRAY = np.random.default_rng(0).random((200, 200))


def probe() -> float:
    """Seconds one run of the fixed kernel takes."""
    t0 = time.perf_counter()
    total = 0
    table = {}
    for i in range(_PY_ITERS):
        total += i * i % 7
        table[i & 1023] = total
    x = _ARRAY
    for _ in range(_NP_ROUNDS):
        x = np.sort(x, axis=1) + 0.5
        np.unique((x * 100).astype(np.int64))
    return time.perf_counter() - t0


class Probes:
    """Probe samples taken between the jobs of one timed phase."""

    def __init__(self):
        #: (time the probe ended, its seconds), in time order.
        self.samples: list[tuple[float, float]] = []
        self._owed = 0.0
        probe()  # first call: numpy's lazy set-up, not the host's speed

    def burst(self, count: int) -> None:
        for _ in range(count):
            seconds = probe()
            self.samples.append((time.perf_counter(), seconds))

    def between(self, job_seconds: float) -> None:
        """Probe after a job: one sample per ``PROBE_EVERY_S`` of job time
        since the last sample."""
        self._owed += job_seconds / PROBE_EVERY_S
        count = int(self._owed)
        self._owed -= count
        self.burst(count)

    def factor(self) -> float:
        """The host factor over every sample."""
        return statistics.median(s for _, s in self.samples) / PROBE_REF_S

    def factor_near(self, start: float, end: float) -> float:
        """Host factor from the probes within ``NEAR_S`` of a job that ran
        from ``start`` to ``end``; the nearest probe on each side counts
        even when farther away."""
        ends = [t for t, _ in self.samples]
        lo = bisect.bisect_left(ends, start - NEAR_S)
        hi = bisect.bisect_right(ends, end + NEAR_S)
        before = bisect.bisect_right(ends, start)
        lo = min(lo, max(before - 1, 0))
        hi = max(hi, min(before + 1, len(ends)))
        near = [s for _, s in self.samples[lo:hi]]
        return statistics.median(near) / PROBE_REF_S


def adjust(seconds: float, factor: float, sensitivity: float) -> float:
    """Wall ``seconds`` taken at host ``factor``, as a host at the
    reference speed would take them."""
    return seconds / factor**sensitivity
