"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Complements tracing (:mod:`repro.obs.trace`): spans answer *where did
this run spend its time*, metrics answer *how much / how many* across a
run or a whole process — flows executed, step latencies, cloud queue
depth over simulated time.  A :class:`MetricsRegistry` owns named
instruments; :meth:`~MetricsRegistry.snapshot` returns a plain-data dict
(JSON-serializable, written into trace files by :mod:`repro.obs.events`)
and :meth:`~MetricsRegistry.reset` zeroes values while keeping the
registered instruments.

All instruments are thread-safe under the registry's lock and cheap
enough to leave permanently enabled.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

#: Default histogram buckets for sub-second engine timings (seconds).
DEFAULT_TIME_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0
)


class Counter:
    """Monotonically increasing count."""

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount

    def state(self) -> float:
        return self.value

    def reset(self) -> None:
        self.value = 0.0


class Gauge:
    """Last-written value plus its history as a (time, value) series.

    The series makes gauges useful over *simulated* time too: the cloud
    platform records queue depth and utilization at each dispatch event
    with ``set(value, at=sim_minutes)``.
    """

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self.value: float | None = None
        self.series: list[tuple[float, float]] = []

    def set(self, value: float, at: float | None = None) -> None:
        with self._lock:
            self.value = value
            self.series.append(
                (float(at) if at is not None else float(len(self.series)),
                 float(value))
            )

    def state(self) -> dict[str, object]:
        values = [v for _, v in self.series]
        return {
            "value": self.value,
            "min": min(values) if values else None,
            "max": max(values) if values else None,
            # Lists, not tuples, so a snapshot JSON round-trips unchanged.
            "series": [[t, v] for t, v in self.series],
        }

    def reset(self) -> None:
        self.value = None
        self.series.clear()


class Histogram:
    """Fixed upper-bound buckets; observation ``v`` lands in the first
    bucket whose bound satisfies ``v <= bound`` (one overflow bucket past
    the last bound)."""

    def __init__(self, name: str, buckets, lock: threading.Lock):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self._lock = lock
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value

    def state(self) -> dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count if self.count else None,
        }

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0


class MetricsRegistry:
    """Named instruments, created on first use and stable thereafter."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(
                    name, Counter(name, self._lock)
                )
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name, self._lock))
        return gauge

    def histogram(self, name: str, buckets=DEFAULT_TIME_BUCKETS) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name, buckets, self._lock)
                )
        return histogram

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Plain-data view of every instrument (JSON-serializable)."""
        with self._lock:
            return {
                "counters": {n: c.state() for n, c in self._counters.items()},
                "gauges": {n: g.state() for n, g in self._gauges.items()},
                "histograms": {
                    n: h.state() for n, h in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Zero all values; registered instruments survive."""
        with self._lock:
            for group in (self._counters, self._gauges, self._histograms):
                for instrument in group.values():
                    instrument.reset()


#: Process-wide default registry (always real: metrics are cheap).
_default_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the default; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def nearest_rank_p95(values: list[float]) -> float:
    """The ceil(0.95 n)-th smallest value (0.0 for an empty list).

    Nearest rank: n=1 yields the only sample and n=20 the 19th.
    """
    if not values:
        return 0.0
    ranked = sorted(values)
    rank = math.ceil(0.95 * len(ranked))
    return ranked[min(len(ranked) - 1, rank - 1)]
