"""The micro-batching optimizer service.

:class:`OptimizerService` is the repo's first always-on layer: callers
submit *single* queries via :meth:`optimize`, and one drain worker
coalesces concurrent requests into the batched
:meth:`MTMLFQO.predict_join_orders` path (one Trans_Share forward plus
lockstep beam decode per batch) that PR 1 built but nothing served.

Request lifecycle::

    optimize(q) ── cache hit ──────────────────────────► return order
        │ miss
        ▼
    bounded queue ── full ──► ServiceOverloadedError (backpressure)
        │
        ▼  (drain worker: hold the batch open until max_batch_size are
        │   queued, every caller the last batch released has queued its
        │   next request, or max_wait_ms has passed — whichever first)
    note the batch's callers ► coalesce by structural key ► plan cache
    recheck ► one batched predict_join_orders ► fill cache ► wake every
    waiter

One model, one worker: every inference entry point of a model
serializes on that model's ``_infer_lock``, and at this model size
decode time is Python dispatch under the GIL, so more drain threads
only split batches (DESIGN.md section 5 has the measurement).

Because the batched decode path emits the same candidates as
per-query calls (DESIGN.md section 2) and the cache key is the full structural
query/plan signature plus the serving model's version — one number per
model state, unique in the process, so a hot swap or a retrain can never
hit a stale entry — orders returned through the service are identical
to direct ``predict_join_orders`` calls — the parity suite
(``tests/test_serve.py``) asserts this at every beam width 1-8.

Every decode runs through the service's
:class:`repro.core.InferenceSession`, whose calls run under
``nn.no_grad()`` — so the layer bodies take the ndarray kernels
(DESIGN.md section 11); those kernels are the autograd ops' own
forwards, so none of the parity guarantees above are weakened.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict, deque

from ..core.beam import require_connected
from ..core.serializer import plan_signature, query_signature
from ..obs import Telemetry
from ..workload.labeler import LabeledQuery
from .cache import PlanCache
from .config import ServeConfig
from .stats import ServiceStats, ServingReport

# Distinguishes the metrics of multiple service instances sharing one
# telemetry registry (e.g. sequential benchmark runs, fleet tenants on
# one database name): counters are monotone per instance, so reusing a
# label set across instances would resurrect a dead service's totals.
_INSTANCE_IDS = itertools.count()

__all__ = [
    "OptimizerService",
    "ServiceOverloadedError",
    "ServiceStoppedError",
    "ServiceTimeoutError",
]


class ServiceOverloadedError(RuntimeError):
    """The request queue is full; the caller should back off and retry."""


class ServiceStoppedError(RuntimeError):
    """The service is not running (not started, or already stopped)."""


class ServiceTimeoutError(RuntimeError):
    """The per-request wait bound elapsed before a response arrived."""


# optimize()'s "no timeout argument given" sentinel: None must remain a
# real value (wait forever), distinct from "use the config default".
_DEFAULT_TIMEOUT = object()


class _Request:
    """One in-flight optimize() call, fulfilled by the drain thread."""

    __slots__ = (
        "labeled", "key", "done", "result", "error", "abandoned",
        "trace_id", "enqueued_at", "caller",
    )

    def __init__(self, labeled: LabeledQuery, key: tuple, trace_id: int = 0, enqueued_at: float = 0.0):
        self.labeled = labeled
        self.key = key
        self.done = threading.Event()
        self.result: list[str] | None = None
        self.error: BaseException | None = None
        # Set when the waiter gave up (timeout): the drain loop skips
        # abandoned requests instead of decoding answers nobody reads —
        # under sustained overload that work would starve live requests.
        self.abandoned = False
        # Telemetry: the request's trace ID (0 = untraced) and its
        # enqueue timestamp, carried across the queue so the drain
        # worker can reconstruct the queue-wait span on the right trace.
        self.trace_id = trace_id
        self.enqueued_at = enqueued_at
        # The thread that called optimize(): it blocks until answered,
        # so it has at most one request in flight.  A Thread object, not
        # an ident: the OS reuses the idents of finished threads.
        self.caller = threading.current_thread()

    def fulfill(self, order: list[str]) -> None:
        self.result = list(order)
        self.done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done.set()


class OptimizerService:
    """Micro-batching join-order service over one ``(model, database)``.

    Use as a context manager (or call :meth:`start` / :meth:`stop`)::

        with OptimizerService(model, db.name, ServeConfig()) as service:
            order = service.optimize(labeled_query)

    ``optimize`` is safe to call from many threads; all model work runs
    on the one drain thread through a reusable
    :class:`repro.core.InferenceSession`.
    """

    def __init__(self, model, db_name: str, config: ServeConfig | None = None, telemetry=None):
        self.config = config or ServeConfig()
        self.db_name = db_name
        # A shared repro.obs.Telemetry bundle, or (None) a private
        # disabled one: every touchpoint below is the tracer's one-int
        # gate, never a None check.
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        # The name this service's request latencies are recorded under
        # in the SLO tracker; federation overrides it with the tenant
        # name (repro.federation.node.TenantNode).
        self.slo_name = db_name
        self.session = model.inference_session(db_name)  # guarded-by: _mutex
        self.cache = PlanCache(self.config.plan_cache_size)
        self.stats = ServiceStats(
            self.telemetry.registry, {"service": f"{db_name}/{next(_INSTANCE_IDS)}"}
        )
        self._queue: "deque[_Request]" = deque()  # guarded-by: _mutex
        self._mutex = threading.Lock()
        self._nonempty = threading.Condition(self._mutex)
        self._running = False  # guarded-by: _mutex
        self._drainer: "threading.Thread | None" = None  # guarded-by: _mutex
        # Early close of the batching window: the callers the last
        # batch held and has released or will release.  Each one's next
        # enqueue removes it; once the set is empty, waiting longer could
        # only coalesce requests from other callers.  None (no batch
        # since start(), or none of its callers still waiting): wait
        # out max_wait_ms.
        self._awaited: "set[threading.Thread] | None" = None  # guarded-by: _mutex
        # Optional FeedbackCollector served orders are forwarded to
        # (attach_feedback); report() reads its buffer's cursor.
        self.feedback = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "OptimizerService":
        with self._mutex:
            if self._running:
                raise RuntimeError("service already running")
            self._running = True
            self._awaited = None
            # Publish the (started) worker before releasing the lock so
            # a concurrent stop() always finds a joinable thread.
            self._drainer = threading.Thread(
                target=self._drain_loop,
                name=f"optimizer-serve-{self.db_name}",
                daemon=True,
            )
            self._drainer.start()
        return self

    def stop(self) -> None:
        """Stop accepting requests, drain what is queued, join the worker."""
        with self._nonempty:
            if not self._running:
                return
            self._running = False
            self._nonempty.notify_all()
            drainer = self._drainer
            self._drainer = None
        drainer.join()

    def __enter__(self) -> "OptimizerService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def queue_depth(self) -> int:
        with self._mutex:
            return len(self._queue)

    def report(self) -> ServingReport:
        """Freeze the live counters into a :class:`ServingReport`.

        Every count is read from the registry, where the feedback
        collector and training rounds of this service record too; only
        the queue depth, the cache stats and the feedback buffer's
        ``added`` cursor are read from their owners.
        """
        collected = self.feedback.buffer.added if self.feedback is not None else 0
        return self.stats.snapshot(
            queue_depth=self.queue_depth, cache=self.cache, collected=collected
        )

    # -- online adaptation ----------------------------------------------
    def attach_feedback(self, collector):
        """Enable the execution-feedback path.

        Every successfully served ``(query, order)`` pair — computed or
        answered from the plan cache — is submitted to ``collector``
        (a :class:`repro.serve.feedback.FeedbackCollector`), which
        executes the served order in the background and turns the result
        into training experience.  Submission is non-blocking: the
        collector dedups by query signature and sheds load when its own
        queue is full, so the request path never waits on an execution.

        The collector inherits this service's telemetry handle (unless
        it already has one), so feedback-labeling spans land on the
        originating request's trace, and records its dedups and
        rejections through this service's stats.
        """
        if getattr(collector, "telemetry", None) is None:
            collector.telemetry = self.telemetry
        collector.stats = self.stats
        self.feedback = collector
        return collector

    def _offer_feedback(self, labeled: LabeledQuery, order: list[str], trace_id: int = 0) -> None:
        if self.feedback is not None:
            self.feedback.submit(labeled, order, trace_id=trace_id)

    def _note_served(self, trace_id: int, started_at: float, latency: float) -> None:
        """Telemetry for one served request (outside every service lock):
        the request-level span plus the tenant's SLO outcome."""
        tel = self.telemetry
        if not tel.on:
            return
        tel.slo.record(self.slo_name, latency)
        tel.tracer.record(trace_id, "request", started_at, started_at + latency)

    # -- model lifecycle -----------------------------------------------
    def swap_model(self, model_or_path, databases=None):
        """Hot-swap the serving model without stopping the service.

        ``model_or_path`` is either a ready :class:`MTMLFQO` (with a
        featurizer attached for this service's database) or a checkpoint
        path, loaded via :func:`repro.core.checkpoint.load_checkpoint`
        (``databases`` defaults to every database the currently serving
        model holds a featurizer for — checkpoints of multi-database
        models hot-swap without re-supplying handles, as long as the
        current model already knows those databases).

        Protocol (DESIGN.md "Model lifecycle"): the replacement session
        is built and validated *before* the switch; the switch itself is
        one atomic update of ``session`` under the service mutex.  A
        batch already formed finishes on the session it was formed with
        — the drain worker reads the session at batch formation — so no
        queued or in-flight request is lost or duplicated; batches
        formed after the switch decode on the new model.  Cache keys
        carry the serving model's :attr:`MTMLFQO.version`, which no
        other model state in the process shares, so a post-swap request
        can never be answered from the pre-swap cache.  Returns the new
        serving model.
        """
        if isinstance(model_or_path, (str, os.PathLike)):
            from ..core.checkpoint import load_checkpoint

            if databases is None:
                # Read the serving model under the mutex, then take the
                # database map through MTMLFQO.databases() (atomic under
                # the model's inference lock): a concurrent swap or
                # attach_featurizer cannot race either read.
                databases = self.live_model.databases()
            new_model = load_checkpoint(model_or_path, databases=databases)
        else:
            new_model = model_or_path
        # Validates the featurizer before the switch;
        # a bad replacement raises here and the old model keeps serving.
        new_session = new_model.inference_session(self.db_name)
        with self._mutex:
            self.session = new_session
        # Pre-swap entries are unreachable (their keys carry the old
        # model's version); dropping them returns the LRU's full
        # capacity to the new model while it is coldest, and resetting
        # the hit/miss counters starts a fresh accounting epoch (the
        # retired epoch's totals are preserved in the stats, not blended
        # into the new hit rate).  An in-flight pre-swap batch may
        # re-insert a few old-version entries after this — dead weight
        # bounded by one batch, evicted by normal churn — and only under
        # the version of the model that decoded them (see _process_batch).
        retired = self.cache.clear(reset_stats=True)
        self.stats.note_swap(retired)
        return new_model

    # -- request path --------------------------------------------------
    @property
    def live_model(self):
        """The model currently serving (the one swap_model last installed)."""
        with self._mutex:
            return self.session.model

    def request_key(self, labeled: LabeledQuery) -> tuple:
        """The structural identity of a request (the plan-cache key).

        Combines the query signature (tables, joins, filters) with the
        initial plan's signature — ``predict_join_orders`` encodes the
        initial plan, so two requests may only share a cached order when
        *both* halves match — plus the service's decode policy and the
        serving model's :attr:`version` (unique in the process, renewed
        by ``attach_featurizer`` and the trainers), so orders decoded
        with superseded weights can never be served after the model
        changes or is hot-swapped.

        Both signatures are computed once per object and kept on it, so
        a resubmitted request is keyed without re-signing; a copy does
        not carry them and signs itself afresh.  A signed ``Query`` /
        ``PlanNode`` is treated as immutable: a tier-1 test fails any
        writer under ``src/`` but ``CostModel.node_cost``'s fills of
        unset operators, which are never part of a kept signature.
        """
        return (
            self.live_model.version,
            self.db_name,
            query_signature(labeled.query),
            plan_signature(labeled.plan),
            self.config.beam_width,
            self.config.enforce_legality,
            self.config.rerank_with_cost,
        )

    def optimize(self, labeled: LabeledQuery, timeout=_DEFAULT_TIMEOUT) -> list[str]:
        """Join order for one query; blocks until served (or rejected).

        Raises :class:`ServiceOverloadedError` when the queue is full,
        :class:`ServiceTimeoutError` when ``timeout`` (defaults to
        ``config.request_timeout_s``; pass ``None`` explicitly to wait
        forever) elapses, and re-raises any model error for *this*
        request (e.g. ``ValueError`` for a disconnected join graph)
        without affecting the rest of its batch.
        """
        # Fast-fail before any accounting — but read the flag under the
        # mutex it is guarded by (an unsynchronized read here raced with
        # start/stop and violated the attribute's locking contract; the
        # authoritative recheck below still closes the window between
        # this check and the enqueue).
        with self._mutex:
            running = self._running
        if not running:
            raise ServiceStoppedError("optimizer service is not running")
        tracer = self.telemetry.tracer
        trace_id = tracer.new_trace()
        started_at = self.stats.note_request()
        key = self.request_key(labeled)
        cached = self.cache.get(key)
        if cached is not None:
            latency = self.stats.note_completed(started_at)
            if trace_id:
                tracer.event(trace_id, "cache.hit")
            self._note_served(trace_id, started_at, latency)
            self._offer_feedback(labeled, cached, trace_id)
            return cached
        if trace_id:
            tracer.event(trace_id, "enqueue")
        request = _Request(labeled, key, trace_id=trace_id, enqueued_at=started_at)
        with self._nonempty:
            if not self._running:
                raise ServiceStoppedError("optimizer service is not running")
            full = len(self._queue) >= self.config.max_queue_depth
            if not full:
                self._queue.append(request)
                if self._awaited:
                    self._awaited.discard(request.caller)
                self._nonempty.notify_all()
        if full:
            self.stats.note_rejected()
            raise ServiceOverloadedError(
                f"request queue full ({self.config.max_queue_depth} pending)"
            )
        if timeout is _DEFAULT_TIMEOUT:
            timeout = self.config.request_timeout_s
        if not request.done.wait(timeout):
            # Mark abandoned first, then recheck: the drain thread may
            # have fulfilled this request between wait() timing out and
            # the mark.  Without the recheck the computed order was
            # discarded and a timeout raised anyway — a lost response.
            request.abandoned = True
            if request.done.is_set():
                # Fulfilled in the window: only count the near-miss when
                # an actual response came back (a fail() in the same
                # window is accounted as the failure it is, below).
                if request.error is None:
                    self.stats.note_timeout_near_miss()
            else:
                self.stats.note_failed()
                raise ServiceTimeoutError(f"no response within {timeout} s")
        if request.error is not None:
            self.stats.note_failed()
            raise request.error
        latency = self.stats.note_completed(started_at)
        self._note_served(trace_id, started_at, latency)
        assert request.result is not None
        self._offer_feedback(labeled, request.result, trace_id)
        return request.result

    # -- drain worker --------------------------------------------------
    def _drain_loop(self) -> None:
        max_wait_s = self.config.max_wait_ms / 1000.0
        while True:
            with self._nonempty:
                while not self._queue and self._running:
                    self._nonempty.wait()
                if not self._queue:
                    return  # stopped and fully drained
                # Hold the batch open briefly: concurrent arrivals
                # coalesce into one model call instead of many.  The
                # window ends when the batch is full, when every caller
                # the last batch released is back, or at max_wait_ms (or
                # a stop(), counted as "window").
                deadline = time.perf_counter() + max_wait_s
                reason = "window"
                while self._running:
                    if len(self._queue) >= self.config.max_batch_size:
                        reason = "full"
                        break
                    if self._awaited is not None and not self._awaited:
                        reason = "callers"
                        break
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._nonempty.wait(remaining)
                take = min(self.config.max_batch_size, len(self._queue))
                batch = [self._queue.popleft() for _ in range(take)]
                # Each of these callers waits until this batch releases
                # it, so none can have queued its next request yet; a
                # request queued meanwhile by anyone else is backlog.
                self._awaited = {
                    request.caller for request in batch if not request.abandoned
                } or None
                # Pin the session at batch formation: a swap_model
                # landing while the batch decodes must not move it to
                # the new model mid-flight.
                session = self.session
            self.stats.note_batch_close(reason)
            decode_started = time.perf_counter()
            try:
                self._process_batch(batch, session, formed_at=decode_started)
            except BaseException as error:
                # The drain worker must survive anything — a dead worker
                # would leave a zombie service that accepts requests and
                # never answers.  Fail the batch's waiters and carry on.
                for request in batch:
                    if not request.done.is_set():
                        request.fail(error)
            finally:
                self.stats.note_busy(time.perf_counter() - decode_started)

    def _process_batch(self, batch: list[_Request], session=None, formed_at=None) -> None:
        if session is None:
            with self._mutex:
                session = self.session
        if formed_at is None:
            formed_at = time.perf_counter()
        # Span recording happens on this worker thread, outside every
        # service lock, onto the trace IDs the requests carried across
        # the queue.  One int check when telemetry is off.
        tracer = self.telemetry.tracer
        tracing = tracer.on
        # 0. Drop requests whose waiter already timed out and left.
        batch = [request for request in batch if not request.abandoned]
        if not batch:
            return

        # 1. Coalesce structurally identical requests onto one model slot.
        groups: "OrderedDict[tuple, list[_Request]]" = OrderedDict()
        for request in batch:
            groups.setdefault(request.key, []).append(request)

        # 2. Recheck the cache: an earlier batch (or the fast path of a
        #    racing thread) may have filled a key after this request
        #    missed and enqueued.
        pending: list[tuple[tuple, list[_Request]]] = []
        for key, requests in groups.items():
            cached = self.cache.get(key, count_miss=False)
            if cached is not None:
                for request in requests:
                    request.fulfill(cached)
                    if tracing and request.trace_id:
                        tracer.record(
                            request.trace_id, "queue_wait", request.enqueued_at, formed_at
                        )
                        tracer.event(request.trace_id, "cache.hit")
            else:
                pending.append((key, requests))

        # 3. Validate per request what predict_join_orders would reject
        #    for the whole batch: one disconnected query must fail alone.
        runnable: list[tuple[tuple, list[_Request]]] = []
        for key, requests in pending:
            if self.config.enforce_legality:
                query = requests[0].labeled.query
                try:
                    require_connected(query.adjacency_matrix(), query.tables)
                except Exception as error:  # any malformed request fails alone
                    for request in requests:
                        request.fail(error)
                    continue
            runnable.append((key, requests))

        # Coalesced = in-batch duplicates that shared another identical
        # request's slot (whatever that slot's outcome); model calls =
        # distinct queries actually decoded this batch.
        self.stats.note_batch(
            num_requests=len(batch),
            num_model_queries=len(runnable),
            num_coalesced=len(batch) - len(groups),
        )
        if not runnable:
            return

        # 4. One coalesced batched decode for every distinct survivor.
        items = [requests[0].labeled for _, requests in runnable]
        decode_started = time.perf_counter()
        try:
            orders = session.predict_join_orders(items, **self.config.decode_kwargs())
        except BaseException:
            self._serve_individually(runnable, session)
            return
        decode_ended = time.perf_counter() if tracing else 0.0
        # Fill only keys of the model that decoded.  A request is keyed
        # under the model serving when it was submitted, but decoded on
        # the session pinned when its batch formed — a later model if a
        # swap landed in between.  Swapping back to the first model
        # makes its keys live again, so the later model's order answers
        # its own requests and is not cached.
        version = session.model.version
        for (key, requests), order in zip(runnable, orders):
            filled = key[0] == version
            if filled:
                self.cache.put(key, order)
            for request in requests:
                request.fulfill(order)
                if tracing and request.trace_id:
                    trace_id = request.trace_id
                    tracer.record(trace_id, "queue_wait", request.enqueued_at, formed_at)
                    tracer.record(
                        trace_id,
                        "batch",
                        formed_at,
                        decode_started,
                        {"requests": len(batch)},
                    )
                    tracer.record(
                        trace_id,
                        "decode",
                        decode_started,
                        decode_ended,
                        {"queries": len(runnable)},
                    )
                    if filled:
                        tracer.event(trace_id, "cache.fill")

    def _serve_individually(self, runnable: list[tuple[tuple, list[_Request]]], session) -> None:
        """Fallback after a failed batch: isolate the offending request.

        Each distinct query is retried solo so an error poisons only its
        own requesters; the healthy rest of the batch still gets orders.
        """
        for key, requests in runnable:
            try:
                order = session.predict_join_orders(
                    [requests[0].labeled], **self.config.decode_kwargs()
                )[0]
            except BaseException as error:
                for request in requests:
                    request.fail(error)
                continue
            if key[0] == session.model.version:  # see _process_batch
                self.cache.put(key, order)
            for request in requests:
                request.fulfill(order)
