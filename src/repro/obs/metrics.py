"""Thread-safe metrics substrate: counters, gauges, fixed-bucket histograms.

Every layer of the system (serving, adaptation, federation, the kernel
profiler, the lock monitor) previously kept its own ad-hoc counters.
This module is the shared substrate they migrate onto:

- :class:`Counter` — monotone accumulator (float increments allowed, so
  second-totals from the kernel profiler fit);
- :class:`Gauge` — a high-water mark, raised by ``update_max``;
- :class:`Histogram` — **fixed-bucket** distribution, O(buckets)
  memory however much traffic it records.  Percentiles are *exact
  within buckets*: the reported quantile lies in the same bucket as the
  true nearest-rank sample, and never below it — the property the
  hypothesis tests in ``tests/test_obs.py`` pin down;

- :class:`MetricsRegistry` — the named, labeled factory-and-directory
  for all of the above.

Locking: each metric guards its own state with a private lock; the
registry lock covers only the name→metric directory.  No metric method
calls back into the registry, so the order registry→metric is the only
one that occurs and the hierarchy is trivially cycle-free.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSummary",
    "MetricsRegistry",
]

# Default histogram bounds for latencies in seconds: roughly exponential
# from 100 µs to one minute, with an overflow bucket above.  18 buckets
# keeps snapshots small while the <2.5x bucket ratio bounds the
# percentile quantization error.
DEFAULT_LATENCY_BOUNDS: "tuple[float, ...]" = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

class Counter:
    """Monotone accumulator.  ``inc`` rejects negative amounts."""

    kind = "counter"

    def __init__(self, name: str, labels: "dict[str, str]"):
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def inc(self, amount: "float | int" = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "kind": self.kind,
                "name": self.name,
                "labels": dict(self.labels),
                "value": self._value,
            }


class Gauge:
    """A running high-water mark, raised by ``update_max``."""

    kind = "gauge"

    def __init__(self, name: str, labels: "dict[str, str]"):
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def update_max(self, value: "float | int") -> None:
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "kind": self.kind,
                "name": self.name,
                "labels": dict(self.labels),
                "value": self._value,
            }


@dataclass(frozen=True)
class HistogramSummary:
    """Frozen view of one histogram: exact count/sum/min/max, bucketed
    percentiles (see :meth:`Histogram.percentile` for the guarantee)."""

    count: int
    sum: float
    min: float
    max: float
    p50: float
    p95: float
    p99: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Histogram:
    """Fixed-bucket histogram; memory is O(buckets), never O(samples).

    A sample ``v`` lands in the first bucket whose upper bound is
    ``>= v``; samples above the last bound land in the overflow bucket.
    ``count``/``sum``/``min``/``max`` are tracked exactly, so means are
    exact and only percentiles are quantized.

    **Percentile guarantee** (exact within buckets): ``percentile(q)``
    returns a value in the same bucket as the true nearest-rank sample,
    and never smaller than it — the bucket's upper bound, clipped to the
    observed maximum.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: "dict[str, str]",
        bounds: "tuple[float, ...]" = DEFAULT_LATENCY_BOUNDS,
    ):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError(f"histogram {name!r}: empty bounds")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r}: bounds must strictly increase")
        self.name = name
        self.labels = dict(labels)
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # guarded-by: _lock  (last = overflow)
        self._count = 0  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._min = math.inf  # guarded-by: _lock
        self._max = -math.inf  # guarded-by: _lock

    def observe(self, value: "float | int") -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r}: NaN observation")
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> "list[int]":
        with self._lock:
            return list(self._counts)

    def percentile(self, q: float) -> "float | None":
        """Nearest-rank percentile, exact within buckets (None if empty)."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> "float | None":  # holds: _lock
        if self._count == 0:
            return None
        rank = max(1, math.ceil(q / 100.0 * self._count))
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index == len(self.bounds):
                    return self._max  # overflow bucket: max is the only bound
                return min(self.bounds[index], self._max)
        return self._max

    def summary(self) -> "HistogramSummary | None":
        with self._lock:
            if self._count == 0:
                return None
            return HistogramSummary(
                count=self._count,
                sum=self._sum,
                min=self._min,
                max=self._max,
                p50=self._percentile_locked(50.0),
                p95=self._percentile_locked(95.0),
                p99=self._percentile_locked(99.0),
            )

    def to_dict(self) -> dict:
        with self._lock:
            empty = self._count == 0
            return {
                "kind": self.kind,
                "name": self.name,
                "labels": dict(self.labels),
                "count": self._count,
                "sum": self._sum,
                "min": None if empty else self._min,
                "max": None if empty else self._max,
                "p50": self._percentile_locked(50.0),
                "p95": self._percentile_locked(95.0),
                "p99": self._percentile_locked(99.0),
                "bounds": list(self.bounds),
                "bucket_counts": list(self._counts),
            }


def _label_key(labels: "dict[str, str] | None") -> "tuple[tuple[str, str], ...]":
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Named, labeled directory of metrics; get-or-create semantics.

    The same ``(name, labels)`` pair always returns the same metric
    object, so call sites never cache handles defensively.  Asking for
    an existing name with a different metric kind (or histogram bounds)
    is a programming error and raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: "dict[tuple, object]" = {}  # guarded-by: _lock

    def _get_or_create(self, cls, name: str, labels: "dict[str, str] | None", **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, dict(labels or {}), **kwargs)
                self._metrics[key] = metric
                return metric
        if not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, not {cls.kind}"
            )
        bounds = kwargs.get("bounds")
        if bounds is not None and tuple(float(b) for b in bounds) != metric.bounds:
            raise ValueError(f"histogram {name!r} already registered with other bounds")
        return metric

    def counter(self, name: str, labels: "dict[str, str] | None" = None) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, labels: "dict[str, str] | None" = None) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: "dict[str, str] | None" = None,
        bounds: "tuple[float, ...]" = DEFAULT_LATENCY_BOUNDS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, bounds=bounds)

    def metrics(self) -> "list[object]":
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> "list[dict]":
        """JSON-able dump of every metric, sorted by (name, labels)."""
        entries = [metric.to_dict() for metric in self.metrics()]
        entries.sort(key=lambda e: (e["name"], sorted(e["labels"].items())))
        return entries
