"""Guarded online adaptation: retrain on feedback, swap only if safe.

:class:`AdaptationWorker` turns the experience gathered by
:class:`repro.serve.feedback.FeedbackCollector` into live model updates
without ever taking the service down — the paper's "keeps learning from
the DBMS it serves" promise as a production loop:

1. **collect** — wait until the buffer holds at least
   ``min_new_experience`` experiences that were not seen at the last
   retrain;
2. **retrain** — warm-start a :class:`JointTrainer` from the latest
   accepted checkpoint (model weights *and* Adam moments, so each cycle
   continues the previous run) and fine-tune on the buffered
   experience.  Training happens on a private model instance loaded
   from disk: the serving model's weights are never touched;
3. **gate** — decode join orders for a held-out validation slice with
   both the live and the candidate model and execute them through
   :mod:`repro.engine` (over-limit orders charged the shared timeout
   penalty).  The candidate is accepted only if its join-order regret —
   total simulated latency above the slice's best-known orders — does
   not worsen the live model's;
4. **swap** — on acceptance, persist a checkpoint (the next cycle's
   warm-start point) and install the candidate via
   :meth:`OptimizerService.swap_model`; the service's swap epoch retires
   every cached pre-swap plan, so mid-adaptation traffic can never be
   answered with a stale order.  On rejection the candidate (and its
   checkpoint lineage) is discarded and the live model keeps serving.

``retrains`` / ``swaps_accepted`` / ``swaps_rejected`` surface through
:meth:`OptimizerService.report` and
:func:`repro.eval.reporting.format_serving_report`.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from dataclasses import dataclass

from ..core.trainer import JointTrainer
from ..eval.experiments import join_order_execution_time
from ..obs.trace import maybe_span
from ..optimizer.selectivity import HistogramEstimator
from ..workload.labeler import LabeledQuery
from .feedback import ExperienceBuffer

__all__ = [
    "AdaptationConfig",
    "AdaptationWorker",
    "GateResult",
    "evaluate_regret_gate",
    "split_experience",
]


@dataclass
class AdaptationConfig:
    """Knobs of :class:`AdaptationWorker`.

    Attributes
    ----------
    min_new_experience:
        Unseen-experience threshold that triggers a retrain cycle.
    fine_tune_epochs / batch_size / learning_rate / seed:
        Passed to the warm-started :class:`JointTrainer` (``None``
        learning rate keeps the checkpointed one).
    validation_fraction:
        Share of the experience snapshot (most recent entries, at least
        one) held out from fine-tuning and used by the regression gate.
    regret_tolerance_ms:
        Slack the gate allows the candidate over the live model.  0 is
        the strict "must not worsen" rule.
    max_intermediate_rows:
        Execution bound when the gate replays validation orders.
    poll_interval_s:
        How often the background loop rechecks the buffer.
    checkpoint_dir:
        Where warm-start checkpoints live; a private temp dir (removed
        on ``stop``) when None.
    """

    min_new_experience: int = 8
    fine_tune_epochs: int = 4
    batch_size: int = 8
    learning_rate: float | None = None
    seed: int = 0
    validation_fraction: float = 0.25
    regret_tolerance_ms: float = 0.0
    max_intermediate_rows: int = 2_000_000
    poll_interval_s: float = 0.25
    checkpoint_dir: str | None = None

    def __post_init__(self):
        if self.min_new_experience < 1:
            raise ValueError(f"min_new_experience must be >= 1, got {self.min_new_experience}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )
        if self.regret_tolerance_ms < 0:
            raise ValueError(f"regret_tolerance_ms must be >= 0, got {self.regret_tolerance_ms}")


@dataclass
class GateResult:
    """Outcome of one regression-gate evaluation."""

    accepted: bool
    validation_count: int
    live_ms: float
    candidate_ms: float
    best_ms: float

    @property
    def live_regret_ms(self) -> float:
        return self.live_ms - self.best_ms

    @property
    def candidate_regret_ms(self) -> float:
        return self.candidate_ms - self.best_ms


def split_experience(
    experience: list[LabeledQuery], validation_fraction: float
) -> tuple[list[LabeledQuery], list[LabeledQuery]]:
    """Deterministic (train, validation) split of an experience snapshot.

    A buffer's insertion order depends on traffic arrival (thread
    scheduling), so the snapshot is first sorted by the query's SQL
    text: given the same experience *set*, every retrain fine-tunes and
    gates on exactly the same slices no matter how requests interleaved.
    When there is too little experience to hold anything out, the gate
    runs on the training slice (better than no gate at all).
    """
    experience = sorted(experience, key=lambda item: item.query.to_sql())
    k = max(1, round(len(experience) * validation_fraction))
    if k >= len(experience):
        return list(experience), list(experience)
    return experience[:-k], experience[-k:]


def evaluate_regret_gate(
    db,
    live,
    candidate,
    val_slice: list[LabeledQuery],
    *,
    decode: dict | None = None,
    estimator: HistogramEstimator | None = None,
    tolerance_ms: float = 0.0,
    max_intermediate_rows: int = 2_000_000,
) -> GateResult:
    """Join-order regret of ``candidate`` vs ``live`` on a held-out slice.

    Both models decode the slice under the same policy (``decode`` is
    the ``predict_join_orders`` keyword set — pass the serving config's
    beam width / legality / rerank so the gate measures exactly what
    each model would serve) and the decoded orders are *executed*
    through :mod:`repro.engine` (over-limit orders charged the shared
    timeout penalty).  Regret is measured against the slice's best-known
    orders: the ECQO optimal where the experience derived one, else the
    experience's own recorded execution.  Both regrets share one
    baseline, so acceptance reduces to "candidate total simulated
    latency must not exceed the live model's (plus ``tolerance_ms``)" —
    but the regret numbers are what reports show.
    """
    if not val_slice:
        raise ValueError("cannot gate on an empty validation slice")
    estimator = estimator or HistogramEstimator(db)
    decode = dict(decode or {})

    def total_ms(orders: list[list[str]]) -> float:
        total = 0.0
        for item, order in zip(val_slice, orders):
            total += join_order_execution_time(
                db, item, order, estimator, max_intermediate_rows=max_intermediate_rows
            )
        return total

    live_ms = total_ms(live.predict_join_orders(db.name, val_slice, **decode))
    candidate_ms = total_ms(candidate.predict_join_orders(db.name, val_slice, **decode))
    best_ms = 0.0
    for item in val_slice:
        if item.optimal_order is not None:
            best_ms += join_order_execution_time(
                db, item, item.optimal_order, estimator,
                max_intermediate_rows=max_intermediate_rows,
            )
        else:
            best_ms += item.total_time_ms
    return GateResult(
        accepted=candidate_ms <= live_ms + tolerance_ms,
        validation_count=len(val_slice),
        live_ms=live_ms,
        candidate_ms=candidate_ms,
        best_ms=best_ms,
    )


class AdaptationWorker:
    """Background collect → retrain → gate → swap loop over one service.

    Use as a context manager (or :meth:`start` / :meth:`stop`) for the
    autonomous loop, or call :meth:`run_once` directly for a
    deterministic, synchronous cycle (tests, notebooks)::

        worker = AdaptationWorker(service, db, collector.buffer, config)
        with collector, worker:
            ... serve traffic; the model adapts in the background ...
    """

    def __init__(self, service, db, buffer: ExperienceBuffer, config: AdaptationConfig | None = None,
                 databases: dict | None = None):
        self.service = service
        self.db = db
        self.buffer = buffer
        self.config = config or AdaptationConfig()
        # Databases handed to checkpoint load: the serving model may hold
        # featurizers for more databases than the one being served.
        # Copied: the served database is added without mutating the
        # caller's mapping.
        self.databases = dict(databases) if databases else {}
        self.databases.setdefault(db.name, db)
        self._estimator = HistogramEstimator(db)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._consumed = 0              # guarded-by: _lock — buffer.added seen at last retrain
        self._latest_checkpoint: str | None = None  # guarded-by: _lock
        self._own_checkpoint_dir: str | None = None
        self.retrains = 0  # guarded-by: _lock
        self.swaps_accepted = 0  # guarded-by: _lock
        self.swaps_rejected = 0  # guarded-by: _lock
        # Cycles that died on infrastructure (load/training error), NOT
        # gate rejections — kept apart so `swaps_rejected` keeps meaning
        # "the regression gate blocked a candidate".
        self.cycles_failed = 0  # guarded-by: _lock
        self.last_gate: GateResult | None = None  # guarded-by: _lock
        # Surface this worker's counters through service.report().
        service.adaptation = self

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "AdaptationWorker":
        if self._thread is not None:
            raise RuntimeError("adaptation worker already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name=f"adaptation-{self.db.name}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Signal the loop, join the thread, drop a private temp dir."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._own_checkpoint_dir is not None:
            shutil.rmtree(self._own_checkpoint_dir, ignore_errors=True)
            self._own_checkpoint_dir = None
            with self._lock:
                self._latest_checkpoint = None

    def __enter__(self) -> "AdaptationWorker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- loop ----------------------------------------------------------
    def pending_experience(self) -> int:
        """Unique experiences added since the last retrain cycle."""
        with self._lock:
            consumed = self._consumed
        return self.buffer.added - consumed

    def _loop(self) -> None:
        while not self._stop.is_set():
            if self.pending_experience() >= self.config.min_new_experience:
                try:
                    self.run_once()
                except BaseException:
                    # The loop must survive anything (a failed load, a
                    # transient training error).  run_once only marks
                    # experience consumed on completion, so the trigger
                    # credit is preserved and the retry trains on the
                    # same data — with a backoff so a persistent failure
                    # (unwritable checkpoint dir) cannot hot-spin
                    # training cycles.
                    with self._lock:
                        self.cycles_failed += 1
                    self._stop.wait(max(1.0, 20 * self.config.poll_interval_s))
            else:
                self._stop.wait(self.config.poll_interval_s)

    # -- one adaptation cycle ------------------------------------------
    def _checkpoint_dir(self) -> str:
        if self.config.checkpoint_dir is not None:
            os.makedirs(self.config.checkpoint_dir, exist_ok=True)
            return self.config.checkpoint_dir
        if self._own_checkpoint_dir is None:
            self._own_checkpoint_dir = tempfile.mkdtemp(prefix="repro-adapt-")
        return self._own_checkpoint_dir

    def _base_checkpoint(self) -> str:
        """The warm-start point: latest accepted, else the live model."""
        with self._lock:
            latest = self._latest_checkpoint
        if latest is None:
            live = self.service._serving_state()[0].model
            path = os.path.join(self._checkpoint_dir(), "base")
            # JointTrainer(live) only builds an Adam over the live
            # parameters (fresh moments); it never steps them here.
            # Saved outside _lock: checkpointing is disk I/O.
            latest = JointTrainer(live).save_checkpoint(path)
            with self._lock:
                self._latest_checkpoint = latest
        return latest

    def run_once(self) -> bool:
        """One collect → retrain → gate → swap cycle; True iff swapped.

        When the service carries telemetry, the cycle is one trace:
        ``adapt.retrain`` → ``adapt.gate`` → a ``gate.accept`` /
        ``gate.reject`` verdict event → (on accept) ``adapt.swap``.
        """
        experience, added_at_snapshot = self.buffer.snapshot_with_added()
        if not experience:
            return False
        telemetry = getattr(self.service, "telemetry", None)
        tracer = telemetry.tracer if telemetry is not None else None
        cycle_id = tracer.new_trace() if tracer is not None else 0
        train_slice, val_slice = split_experience(experience, self.config.validation_fraction)
        live = self.service._serving_state()[0].model

        trainer = JointTrainer.warm_start(
            self._base_checkpoint(), self.databases, learning_rate=self.config.learning_rate
        )
        with self._lock:
            self.retrains += 1
            retrain_index = self.retrains
        # Seed varies per cycle: a retry after a gate rejection (with
        # more experience) explores a different batch order instead of
        # replaying the rejected run's schedule.
        with maybe_span(telemetry, cycle_id, "adapt.retrain") as span:
            span.set("experience", len(train_slice)).set("cycle", retrain_index)
            trainer.train(
                [(self.db.name, item) for item in train_slice],
                epochs=self.config.fine_tune_epochs,
                batch_size=self.config.batch_size,
                seed=self.config.seed + retrain_index - 1,
            )
        candidate = trainer.model

        with maybe_span(telemetry, cycle_id, "adapt.gate") as span:
            # Gated under the *service's* decode policy: the gate must
            # measure exactly what each model would serve.
            gate = evaluate_regret_gate(
                self.db,
                live,
                candidate,
                val_slice,
                decode=self.service.config.decode_kwargs(),
                estimator=self._estimator,
                tolerance_ms=self.config.regret_tolerance_ms,
                max_intermediate_rows=self.config.max_intermediate_rows,
            )
            span.set("validation", gate.validation_count)
        if tracer is not None:
            tracer.event(
                cycle_id,
                "gate.accept" if gate.accepted else "gate.reject",
                {
                    "live_regret_ms": round(gate.live_regret_ms, 3),
                    "candidate_regret_ms": round(gate.candidate_regret_ms, 3),
                },
            )
        if not gate.accepted:
            # Experience is marked consumed only when a cycle completes
            # (here, and after a successful install below): a crash at
            # any earlier — or later — point leaves the trigger credit
            # intact, so the retry trains on the same data.
            with self._lock:
                self.last_gate = gate
                self._consumed = max(self._consumed, added_at_snapshot)
                self.swaps_rejected += 1
            return False
        # Persist, install, and only then advance the warm-start lineage:
        # swap_model validates the candidate's session before the atomic
        # (session, epoch) switch (retiring every pre-swap cache entry),
        # and if that validation raises, the saved checkpoint must not
        # become the next cycle's base — only installed models join the
        # lineage.
        path = trainer.save_checkpoint(
            os.path.join(self._checkpoint_dir(), f"adapt-{retrain_index:04d}")
        )
        with maybe_span(telemetry, cycle_id, "adapt.swap"):
            self.service.swap_model(candidate)
        with self._lock:
            self.last_gate = gate
            self._latest_checkpoint = path
            self._consumed = max(self._consumed, added_at_snapshot)
            self.swaps_accepted += 1
        return True

    # -- reporting -----------------------------------------------------
    def counters(self) -> dict:
        """The adaptation fields this worker contributes to reports."""
        with self._lock:
            return {
                "retrains": self.retrains,
                "swaps_accepted": self.swaps_accepted,
                "swaps_rejected": self.swaps_rejected,
                "adaptation_failures": self.cycles_failed,
            }
