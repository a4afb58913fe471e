"""Per-request instrumentation of the optimizer service.

:class:`ServiceStats` is the live, thread-safe recorder of one service;
:meth:`ServiceStats.snapshot` freezes it into a :class:`ServingReport`,
which ``repro.eval.reporting.format_serving_report`` renders in the
repo's table style.

It is a thin facade over a :class:`repro.obs.MetricsRegistry`, the one
store of every serving, feedback and adaptation count: each is a named
registry metric labeled with the owning service instance, and the
feedback collector and training rounds of a service record through its
``note_*`` methods.  Latency lives in a **fixed-bucket histogram**
(memory O(buckets) regardless of traffic), so ``ServingReport.latency``
percentiles are exact within buckets — see
:class:`repro.obs.metrics.Histogram`.  Passing a shared
registry (via ``OptimizerService(..., telemetry=...)``) makes the same
numbers visible to the fleet-wide snapshot with no second accounting
path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..obs.metrics import HistogramSummary, MetricsRegistry
from .cache import CacheStats

__all__ = ["ServiceStats", "ServingReport"]

# TrainRound gate outcomes, the ``verdict`` label of ``adapt.gate``.
_VERDICTS = ("accept", "reject", "unvalidated")
# Why the drain worker closed a batching window, the ``reason`` label of
# ``serve.batch_close``: ``max_batch_size`` queued, every caller the last
# batch released came back, or ``max_wait_ms`` passed (or a stop()).
_CLOSE_REASONS = ("full", "callers", "window")


@dataclass
class ServingReport:
    """Frozen view of a service's counters at one instant."""

    completed: int
    rejected: int
    failed: int
    cache_hits: int
    cache_misses: int
    coalesced: int
    batches: int
    batched_requests: int
    model_calls: int          # queries actually sent through the model
    max_batch: int
    swaps: int                # live model hot-swaps performed
    queue_depth: int
    cache_entries: int
    elapsed_s: float
    latency: "HistogramSummary | None"
    # A timed-out waiter found its response already computed when it
    # marked itself abandoned; the response was returned, not discarded.
    timeout_near_misses: int = 0
    # Online-adaptation counters (0 unless a feedback collector or a
    # training round records for this service; see repro.serve.feedback
    # and repro.serve.adaptation).
    feedback_collected: int = 0   # experiences added to the buffer
    feedback_deduped: int = 0     # submissions dropped as already-seen
    # Executions skipped or shed, by reason (over_limit, queue_full, ...).
    feedback_rejections: "dict[str, int]" = field(default_factory=dict)
    # Batching windows closed, by reason (full, callers, window).
    batch_closes: "dict[str, int]" = field(default_factory=dict)
    retrains: int = 0             # training rounds that fine-tuned
    swaps_accepted: int = 0       # candidates that passed the gate + swapped
    swaps_rejected: int = 0       # candidates blocked by the regression gate
    gates_unvalidated: int = 0    # candidates kept out: nothing to validate on
    adaptation_failures: int = 0  # worker cycles that crashed before a verdict
    busy_s: float = 0.0           # wall-clock the drain worker spent on batches
    # cache_hits/cache_misses above cover the *current* cache epoch only;
    # swap_model resets the cache counters and retires the old epoch's
    # totals here, so lifetime lookups are current + retired while
    # cache_hit_rate never blends numbers across a swap.
    retired_cache_hits: int = 0
    retired_cache_misses: int = 0

    @property
    def throughput_qps(self) -> float:
        """Completed requests per second of serving wall-clock."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed / self.elapsed_s

    @property
    def mean_batch_size(self) -> float:
        """Mean requests drained per batch (coalescing included)."""
        if self.batches == 0:
            return 0.0
        return self.batched_requests / self.batches

    @property
    def cache_hit_rate(self) -> float:
        """Hit rate of the *current* cache epoch (since the last swap)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def feedback_rejected(self) -> int:
        """Feedback executions skipped or shed, all reasons."""
        return sum(self.feedback_rejections.values())

    # A 1-tuple under this name because benchmarks/ledger reads
    # ``replica_utilization[0]``.
    @property
    def replica_utilization(self) -> "tuple[float]":
        """Fraction of serving wall-clock the drain worker spent on batches."""
        return (self.busy_s / self.elapsed_s if self.elapsed_s > 0 else 0.0,)


class ServiceStats:
    """Thread-safe counters; one instance per service.

    Each metric is its own registry entry with its own lock, so writers
    on different counters never contend; ``_lock`` here guards only the
    first/last-activity timestamps.  No metric is ever recorded while
    holding ``_lock`` — nor may a caller record through a ``note_*``
    method while holding a lock of its own (the analyzer's
    ``obs-discipline`` rule).
    """

    def __init__(self, registry: MetricsRegistry, labels: "dict[str, str]"):
        self.registry = registry
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._first_request_at: float | None = None  # guarded-by: _lock
        self._last_done_at: float | None = None  # guarded-by: _lock
        counter = self.registry.counter
        self._completed = counter("serve.completed", labels=self.labels)
        self._rejected = counter("serve.rejected", labels=self.labels)
        self._failed = counter("serve.failed", labels=self.labels)
        self._coalesced = counter("serve.coalesced", labels=self.labels)
        self._batches = counter("serve.batches", labels=self.labels)
        self._batched_requests = counter("serve.batched_requests", labels=self.labels)
        self._model_calls = counter("serve.model_calls", labels=self.labels)
        self._swaps = counter("serve.swaps", labels=self.labels)
        self._near_misses = counter("serve.timeout_near_misses", labels=self.labels)
        self._retired_hits = counter("serve.retired_cache_hits", labels=self.labels)
        self._retired_misses = counter("serve.retired_cache_misses", labels=self.labels)
        self._max_batch = self.registry.gauge("serve.max_batch", labels=self.labels)
        self._latency = self.registry.histogram("serve.latency_s", labels=self.labels)
        self._busy = self.registry.histogram("serve.busy_s", labels=self.labels)
        self._closes = {
            reason: counter("serve.batch_close", labels={**self.labels, "reason": reason})
            for reason in _CLOSE_REASONS
        }
        self._deduped = counter("feedback.deduped", labels=self.labels)
        self._retrains = counter("adapt.retrains", labels=self.labels)
        self._gates = {
            verdict: counter("adapt.gate", labels={**self.labels, "verdict": verdict})
            for verdict in _VERDICTS
        }
        self._adaptation_failures = counter("adapt.failures", labels=self.labels)

    # -- writers (service-internal) ------------------------------------
    def note_request(self) -> float:
        now = time.perf_counter()
        with self._lock:
            if self._first_request_at is None:
                self._first_request_at = now
        return now

    def note_completed(self, started_at: float) -> float:
        """Count a served request; returns its latency in seconds."""
        now = time.perf_counter()
        latency = now - started_at
        with self._lock:
            self._last_done_at = now
        self._completed.inc()
        self._latency.observe(latency)
        return latency

    def note_failed(self) -> None:
        now = time.perf_counter()
        with self._lock:
            self._last_done_at = now
        self._failed.inc()

    def note_rejected(self) -> None:
        self._rejected.inc()

    def note_swap(self, retired: "CacheStats | None" = None) -> None:
        """Count a hot swap; ``retired`` is the pre-swap cache epoch's
        stats (from ``PlanCache.clear(reset_stats=True)``), accumulated
        so lifetime lookup totals survive the counter reset."""
        self._swaps.inc()
        if retired is not None:
            self._retired_hits.inc(retired.hits)
            self._retired_misses.inc(retired.misses)

    def note_timeout_near_miss(self) -> None:
        self._near_misses.inc()

    def note_batch(self, num_requests: int, num_model_queries: int, num_coalesced: int) -> None:
        self._batches.inc()
        self._batched_requests.inc(num_requests)
        self._model_calls.inc(num_model_queries)
        self._coalesced.inc(num_coalesced)
        self._max_batch.update_max(num_requests)

    def note_batch_close(self, reason: str) -> None:
        """Why a batching window closed: ``full``, ``callers`` or ``window``."""
        self._closes[reason].inc()

    def note_busy(self, busy_s: float) -> None:
        """Wall-clock the drain worker spent processing a batch (the
        utilization numerator; recorded even when the batch failed)."""
        self._busy.observe(busy_s)

    # -- writers (feedback collector, training rounds) -------------------
    def note_feedback_dedup(self) -> None:
        """A feedback submission dropped: its signature is already
        buffered, queued, or recently rejected."""
        self._deduped.inc()

    def note_feedback_rejected(self, reason: str) -> None:
        """A feedback execution skipped (over limit, disconnected, error)
        or a submission shed (``queue_full``)."""
        self.registry.counter("feedback.rejected", labels={**self.labels, "reason": reason}).inc()

    def note_retrain(self) -> None:
        self._retrains.inc()

    def note_gate(self, verdict: str) -> None:
        """One regression-gate outcome: ``accept``, ``reject`` or ``unvalidated``."""
        self._gates[verdict].inc()

    def note_adaptation_failure(self) -> None:
        self._adaptation_failures.inc()

    # ------------------------------------------------------------------
    def _feedback_rejections(self) -> "dict[str, int]":
        rejections = {}
        for metric in self.registry.metrics():
            labels = dict(metric.labels)
            reason = labels.pop("reason", None)
            if metric.name == "feedback.rejected" and labels == self.labels:
                rejections[reason] = int(metric.value)
        return rejections

    def snapshot(
        self, queue_depth: int = 0, cache: "object | None" = None, collected: int = 0
    ) -> ServingReport:
        """Freeze the counters (plus the cache's, if one is passed, and
        ``collected``, the feedback buffer's ``added`` cursor)."""
        # Snapshot the cache *before* taking our own lock: CacheStats is
        # captured atomically under the cache's lock, and never nesting
        # the two locks keeps the ordering trivially cycle-free.
        cache_stats = cache.stats() if cache is not None else CacheStats(0, 0, 0)
        with self._lock:
            if self._first_request_at is None:
                elapsed = 0.0
            else:
                end = self._last_done_at or time.perf_counter()
                elapsed = max(end - self._first_request_at, 0.0)
        gates = {verdict: int(counter.value) for verdict, counter in self._gates.items()}
        return ServingReport(
            completed=int(self._completed.value),
            rejected=int(self._rejected.value),
            failed=int(self._failed.value),
            cache_hits=cache_stats.hits,
            cache_misses=cache_stats.misses,
            coalesced=int(self._coalesced.value),
            batches=int(self._batches.value),
            batched_requests=int(self._batched_requests.value),
            model_calls=int(self._model_calls.value),
            max_batch=int(self._max_batch.value),
            swaps=int(self._swaps.value),
            timeout_near_misses=int(self._near_misses.value),
            queue_depth=queue_depth,
            cache_entries=cache_stats.size,
            elapsed_s=elapsed,
            latency=self._latency.summary(),
            feedback_collected=collected,
            feedback_deduped=int(self._deduped.value),
            feedback_rejections=self._feedback_rejections(),
            batch_closes={
                reason: int(counter.value)
                for reason, counter in self._closes.items()
                if counter.value
            },
            retrains=int(self._retrains.value),
            swaps_accepted=gates["accept"],
            swaps_rejected=gates["reject"],
            gates_unvalidated=gates["unvalidated"],
            adaptation_failures=int(self._adaptation_failures.value),
            busy_s=self._busy.sum,
            retired_cache_hits=int(self._retired_hits.value),
            retired_cache_misses=int(self._retired_misses.value),
        )
