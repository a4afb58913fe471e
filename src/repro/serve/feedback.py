"""Execution feedback: served join orders become training experience.

The paper's training data (E(P), Card, Cost, P_t) is harvested from
*executed* plans — which is exactly what a serving optimizer produces
all day.  This module closes that loop:

- :class:`ExperienceBuffer` — a bounded, query-signature-deduped store
  of :class:`LabeledQuery` experience (FIFO eviction past the bound, so
  memory stays flat under unbounded traffic);
- :class:`FeedbackCollector` — a background worker the service forwards
  served ``(query, order)`` pairs to (``OptimizerService.attach_feedback``).
  Off the request path, it executes the served order through
  :mod:`repro.engine` (bounded by the labeler's
  ``max_intermediate_rows``), converts the execution into labeled
  experience via :meth:`QueryLabeler.label_with_order` — per-node true
  cardinalities, cumulative sub-plan costs, and (for small-enough
  queries) the ECQO optimal-order label — and appends it to the buffer.

Submission is cheap and non-blocking by design: a signature already in
the buffer (or already queued) is deduped without touching the engine,
and a full work queue sheds load instead of stalling a client thread.
Dedups are counted (``feedback.deduped``) and skipped executions are
counted *by reason* (``feedback.rejected{reason=…}``: over limit,
disconnected — see the labeler's skip accounting — error, queue_full)
in the service's registry, so they surface in
:class:`repro.serve.ServingReport` and every telemetry snapshot.

The :class:`repro.serve.adaptation.AdaptationWorker` consumes the buffer
to fine-tune and hot-swap the serving model.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

from ..core.serializer import query_signature
from ..obs.metrics import MetricsRegistry
from ..obs.trace import maybe_span
from ..workload.labeler import LabeledQuery, QueryLabeler
from .stats import ServiceStats

__all__ = ["ExperienceBuffer", "FeedbackConfig", "FeedbackCollector"]

# Bound of the collector's pending-work queue: submissions beyond it are
# shed (counted as ``queue_full``) instead of blocking the request path.
_QUEUE_DEPTH = 256
# Skip the ECQO optimal-order label (which JoinSel fine-tunes on) above
# this table count; CardEst/CostEst train without it.
_MAX_OPTIMAL_TABLES = 8
# How long a rejected signature is remembered before its query may be
# executed again: a hot pathological query must not saturate the worker,
# while a later regime change (a hot-swap now serving an executable
# order) is retried after the window.
_REJECTED_RETRY_S = 60.0


class ExperienceBuffer:
    """Bounded, signature-deduped store of feedback experience.

    Thread-safe.  ``added`` counts unique experiences ever accepted
    (monotonic, survives eviction) — the adaptation worker uses it to
    detect fresh experience without draining the buffer.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, LabeledQuery]" = OrderedDict()  # guarded-by: _lock
        self.added = 0      # guarded-by: _lock — unique experiences accepted (monotonic)

    def seen(self, signature: tuple) -> bool:
        with self._lock:
            return signature in self._entries

    def add(self, signature: tuple, labeled: LabeledQuery) -> bool:
        """Insert unless the signature is already buffered; FIFO-evict."""
        with self._lock:
            if signature in self._entries:
                return False
            self._entries[signature] = labeled
            self.added += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return True

    def snapshot(self) -> list[LabeledQuery]:
        """The buffered experience, oldest first."""
        with self._lock:
            return list(self._entries.values())

    def snapshot_with_added(self) -> "tuple[list[LabeledQuery], int]":
        """Atomic ``(snapshot, added)`` pair.

        The adaptation worker marks experience consumed against the
        ``added`` value observed *with* the snapshot — an item landing
        concurrently after the snapshot stays pending for the next
        cycle instead of being marked consumed without ever being
        trained on.
        """
        with self._lock:
            return list(self._entries.values()), self.added

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, signature: tuple) -> bool:
        return self.seen(signature)


@dataclass
class FeedbackConfig:
    """Knobs of :class:`FeedbackCollector`.

    Attributes
    ----------
    buffer_capacity:
        Bound of the experience buffer (FIFO eviction beyond it).
    max_intermediate_rows:
        Execution bound (None, or >= 1) for served orders *and* the
        optimal-order oracle — a runaway order is rejected
        (reason-counted), never executed to completion; None executes
        without a bound.
    """

    buffer_capacity: int = 256
    max_intermediate_rows: int | None = 2_000_000

    def __post_init__(self):
        if self.buffer_capacity < 1:
            raise ValueError(f"buffer_capacity must be >= 1, got {self.buffer_capacity}")
        # Below 1 every non-empty execution runs over the cap, so all
        # feedback is rejected as over_limit and adaptation starves.
        if self.max_intermediate_rows is not None and self.max_intermediate_rows < 1:
            raise ValueError(
                f"max_intermediate_rows must be None or >= 1, got {self.max_intermediate_rows}"
            )


class FeedbackCollector:
    """Executes served orders in the background; fills the buffer.

    Use as a context manager (or :meth:`start` / :meth:`stop`)::

        collector = FeedbackCollector(db)
        with collector:
            service.attach_feedback(collector)
            ...

    ``submit`` is safe from any thread and never blocks on engine work.
    """

    def __init__(self, db, config: FeedbackConfig | None = None, telemetry=None):
        self.config = config or FeedbackConfig()
        self.db = db
        # Optional repro.obs.Telemetry; inherited from the service on
        # attach_feedback when not set here.  Labeling spans land on the
        # trace of the request that produced the experience.
        self.telemetry = telemetry
        # Where dedups and rejections are counted: a private registry
        # until OptimizerService.attach_feedback hands over the
        # service's own ServiceStats.
        self.stats = ServiceStats(MetricsRegistry(), {"service": db.name})
        self.labeler = QueryLabeler(
            db,
            max_optimal_tables=_MAX_OPTIMAL_TABLES,
            max_intermediate_rows=self.config.max_intermediate_rows,
        )
        self.buffer = ExperienceBuffer(self.config.buffer_capacity)
        self._queue: "deque[tuple[tuple, LabeledQuery, list[str], int]]" = deque()  # guarded-by: _mutex
        self._pending: set[tuple] = set()   # guarded-by: _mutex — signatures queued or in flight
        # Signatures whose execution was recently rejected (over limit,
        # disconnected, error) mapped to the rejection time: a hot
        # pathological query must not make the worker re-execute a
        # doomed order on every request.  Entries expire after
        # ``_REJECTED_RETRY_S`` and the map is FIFO-bounded so it can
        # never grow past the recent-rejection working set.
        self._recent_rejected: "OrderedDict[tuple, float]" = OrderedDict()  # guarded-by: _mutex
        self._recent_rejected_bound = max(self.config.buffer_capacity, 64)
        self._mutex = threading.Lock()
        self._wakeup = threading.Condition(self._mutex)
        self._idle = threading.Condition(self._mutex)
        self._busy = False  # guarded-by: _mutex
        self._running = False  # guarded-by: _mutex
        self._worker: threading.Thread | None = None  # guarded-by: _mutex

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "FeedbackCollector":
        with self._mutex:
            if self._running:
                raise RuntimeError("feedback collector already running")
            self._running = True
            self._worker = threading.Thread(
                target=self._run, name=f"feedback-{self.db.name}", daemon=True
            )
            self._worker.start()
        return self

    def stop(self) -> None:
        """Stop accepting work, finish what is queued, join the thread."""
        with self._wakeup:
            if not self._running:
                return
            self._running = False
            self._wakeup.notify_all()
            worker = self._worker
        worker.join()
        with self._mutex:
            self._worker = None

    def __enter__(self) -> "FeedbackCollector":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- submission path (called from request threads) -----------------
    def submit(self, labeled: LabeledQuery, order: list[str], trace_id: int = 0) -> bool:
        """Offer a served order for collection; never blocks on execution.

        Returns True when the pair was queued, False when it was deduped
        (signature already buffered or already queued), shed (queue
        full), or the collector is stopped.  ``trace_id`` (when the
        submitting request was traced) links the eventual labeling span
        back to the request's trace.
        """
        signature = query_signature(labeled.query)
        if self.buffer.seen(signature):
            self.stats.note_feedback_dedup()
            return False
        with self._wakeup:
            if not self._running:
                return False
            duplicate = signature in self._pending or self._rejected_recently_locked(signature)
            if not duplicate and len(self._queue) < _QUEUE_DEPTH:
                self._pending.add(signature)
                self._queue.append((signature, labeled, order, trace_id))
                self._wakeup.notify_all()
                return True
        if duplicate:
            self.stats.note_feedback_dedup()
        else:
            self.stats.note_feedback_rejected("queue_full")
        return False

    # -- worker --------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and self._running:
                    self._wakeup.wait()
                if not self._queue:
                    return  # stopped and fully drained
                signature, labeled, order, trace_id = self._queue.popleft()
                self._busy = True
            try:
                self._collect(signature, labeled, order, trace_id)
            except BaseException:
                # Never die: a dead collector would silently stop all
                # experience flow.  The failed pair is dropped (counted).
                self._reject(signature, "error")
            finally:
                with self._idle:
                    self._pending.discard(signature)
                    self._busy = False
                    self._idle.notify_all()

    def _reject(self, signature: tuple, reason: str) -> None:
        with self._mutex:
            self._recent_rejected[signature] = time.monotonic()
            self._recent_rejected.move_to_end(signature)
            while len(self._recent_rejected) > self._recent_rejected_bound:
                self._recent_rejected.popitem(last=False)
        self.stats.note_feedback_rejected(reason)

    def _rejected_recently_locked(self, signature: tuple) -> bool:
        rejected_at = self._recent_rejected.get(signature)
        if rejected_at is None:
            return False
        if time.monotonic() - rejected_at >= _REJECTED_RETRY_S:
            del self._recent_rejected[signature]  # window over: retry
            return False
        return True

    def _collect(
        self, signature: tuple, labeled: LabeledQuery, order: list[str], trace_id: int = 0
    ) -> None:
        with maybe_span(self.telemetry, trace_id, "feedback.label") as span:
            item = self.labeler.label_with_order(labeled.query, order, with_optimal_order=True)
            span.set("collected", item is not None)
        if item is None:
            self._reject(signature, self.labeler.last_skip_reason or "unknown")
            return
        item.extras["source"] = "feedback"
        item.extras["initial_plan_ms"] = labeled.total_time_ms
        if not self.buffer.add(signature, item):
            self.stats.note_feedback_dedup()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the work queue is empty and the worker idle."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._queue or self._busy:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True
