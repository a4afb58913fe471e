"""Guarded online adaptation: retrain on feedback, swap only if safe.

The paper's "keeps learning from the DBMS it serves" promise as a
production loop, written once.  :class:`TrainRound` is one database's
training round — the only place a candidate model is decided on and
deployed:

1. **fine-tune** — snapshot the experience buffer, split it
   (:func:`split_experience`), and fine-tune a private trainer
   (:meth:`TrainRound.private_trainer`: a clone of the live model, so
   the serving weights are never touched, resuming the Adam moments the
   scheduler carries) on the training slice;
2. **gate and install** — decode join orders for the held-out slice
   with both the live and the candidate model and execute them through
   :mod:`repro.engine` (:func:`evaluate_regret_gate`).  The candidate
   is installed via :meth:`OptimizerService.swap_model` only if its
   join-order regret does not worsen the live model's; the plan cache
   keys on the serving model's process-unique version, so
   mid-adaptation traffic can never be answered with a stale order.
   On rejection the candidate is discarded and the live model keeps
   serving.

Two schedulers drive it, both configured by one :class:`RoundConfig`.
:class:`AdaptationWorker` (here) runs the phases back to back,
continuing in memory the trajectory of the model it last installed; it
is the one always-on loop (monitor → decide → act): its background
thread polls for fresh experience and fires a cycle.
:class:`repro.federation.TenantNode` runs the phases either side of a
FedAvg merge, when its coordinator's ``run_round()`` is called.  The
worker and the coordinator write checkpoints under one
:class:`CheckpointDir` rule, and neither reads one back.

A round counts its fine-tunes and gate verdicts in the service's
registry (``adapt.retrains``, ``adapt.gate{verdict=…}``), so
``retrains`` / ``swaps_accepted`` / ``swaps_rejected`` surface through
:meth:`OptimizerService.report`,
:func:`repro.eval.reporting.format_serving_report` and every telemetry
snapshot.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from dataclasses import dataclass

from ..core.trainer import JointTrainer
from ..eval.experiments import join_order_execution_time
from ..optimizer.selectivity import HistogramEstimator
from ..workload.labeler import LabeledQuery
from .feedback import ExperienceBuffer

__all__ = [
    "AdaptationConfig",
    "AdaptationWorker",
    "CheckpointDir",
    "GateResult",
    "RoundConfig",
    "TrainRound",
    "evaluate_regret_gate",
    "split_experience",
]


@dataclass
class RoundConfig:
    """Knobs of a :class:`TrainRound` and the scheduler driving it.

    Attributes
    ----------
    min_new_experience:
        Fresh-experience bar: an :class:`AdaptationWorker` retrains once
        this many unseen experiences exist; a fleet tenant below it
        skips a round's local phase (it still receives the merged model
        through its gate) — the asynchronous-FedAvg rule that lets
        rounds proceed with whichever tenants have traffic.
    fine_tune_epochs / batch_size / learning_rate / seed:
        Passed to the round's :class:`JointTrainer` (``None`` learning
        rate keeps the checkpointed / model-config one).  Round ``n``
        trains with ``seed + n - 1``.
    validation_fraction:
        Share of the experience snapshot held out from fine-tuning and
        used by the regression gate (at least one entry).
    regret_tolerance_ms:
        Slack the gate allows the candidate over the live model.  0 is
        the strict "must not worsen" rule.
    max_intermediate_rows:
        Execution bound (>= 1) when the gate replays validation orders.
    poll_interval_s:
        How often an :class:`AdaptationWorker`'s background loop
        rechecks for fresh experience.
    checkpoint_dir:
        Where checkpoints are written (a worker's accepted
        ``adapt-NNNN.npz``, a coordinator's ``round-NNNN.npz``); a
        private temp dir, removed by ``AdaptationWorker.stop()`` / on
        leaving the coordinator's ``with`` block, when None
        (:class:`CheckpointDir`).
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
        if self.fine_tune_epochs < 1:
            raise ValueError(f"fine_tune_epochs must be >= 1, got {self.fine_tune_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate is not None and not self.learning_rate > 0:
            # A non-positive rate would be gradient ascent every round.
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )
        if self.regret_tolerance_ms < 0:
            raise ValueError(f"regret_tolerance_ms must be >= 0, got {self.regret_tolerance_ms}")
        _check_execution_cap(self.max_intermediate_rows)
        if self.poll_interval_s <= 0:
            # wait(0) would turn the worker's poll loop into a hot spin.
            raise ValueError(f"poll_interval_s must be > 0, got {self.poll_interval_s}")


def _check_execution_cap(max_intermediate_rows: int) -> None:
    # Below 1 every order runs over the cap, so live and candidate are
    # charged the same penalty and the gate accepts anything.
    if max_intermediate_rows < 1:
        raise ValueError(f"max_intermediate_rows must be >= 1, got {max_intermediate_rows}")


# An adaptation worker needs nothing beyond the round's own knobs.
AdaptationConfig = RoundConfig


@dataclass
class GateResult:
    """Outcome of one regression-gate evaluation."""

    accepted: bool
    validation_count: int
    live_ms: float
    candidate_ms: float
    best_ms: float
    # Set by TrainRound when an accepted candidate was persisted before
    # its install: with the regrets above, the round's lineage record.
    checkpoint_path: str | None = None

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
    _check_execution_cap(max_intermediate_rows)
    estimator = estimator or HistogramEstimator(db)
    decode = dict(decode or {})
    # Each item's live, candidate and optimal order are planned against
    # one cardinality view, dropped when the gate returns.
    views = [estimator.for_query(item.query) for item in val_slice]

    def total_ms(orders: list[list[str]]) -> float:
        total = 0.0
        for item, order, view in zip(val_slice, orders, views):
            total += join_order_execution_time(
                db, item, order, view, max_intermediate_rows=max_intermediate_rows
            )
        return total

    live_ms = total_ms(live.predict_join_orders(db.name, val_slice, **decode))
    candidate_ms = total_ms(candidate.predict_join_orders(db.name, val_slice, **decode))
    best_ms = 0.0
    for item, view in zip(val_slice, views):
        if item.optimal_order is not None:
            best_ms += join_order_execution_time(
                db, item, item.optimal_order, view,
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


class TrainRound:
    """One database's fine-tune → gate → install round, and everything
    that carries from one round to the next.

    The single place a candidate model is decided on and deployed.  It
    owns the fresh-experience cursor (:meth:`commit` / :meth:`rollback`),
    the round index that seeds each fine-tune, the held-out slice, the
    gate call under the service's decode policy, the verdict event and
    count, ``swap_model`` on accept, and how a round's private model
    and trainer are built (:meth:`private_model` /
    :meth:`private_trainer`).  Left to its scheduler: *which* Adam
    moments and broadcast state that trainer starts from (a worker
    resumes its last installed model's, a fleet tenant its own over the
    broadcast (S)/(T)), what happens between the two phases (nothing; a
    FedAvg merge), and *when* the snapshot counts as consumed (a worker
    commits on any verdict; a fleet participant right after its
    fine-tune, and is rolled back if the round never lands).

    With telemetry on the service, a round is one trace:
    ``adapt.retrain`` → ``adapt.gate`` → a ``gate.accept`` /
    ``gate.reject`` verdict event → (on accept) ``adapt.swap``.
    """

    def __init__(self, service, db, buffer: ExperienceBuffer, config: RoundConfig):
        self.service = service
        self.db = db
        self.buffer = buffer
        self.config = config
        self._estimator = HistogramEstimator(db)
        self._lock = threading.Lock()
        # buffer.added covered by committed rounds (experience is fresh
        # until a round that trained on it commits), and the cursor
        # before the latest commit.
        self._consumed = 0  # guarded-by: _lock
        self._rollback_to: int | None = None  # guarded-by: _lock
        # Left by the latest fine-tune: buffer.added at its snapshot, and
        # for the same round's gate the held-out slice (train/validation
        # isolation holds within a round) and the trace id.
        self._snapshot_added = 0  # guarded-by: _lock
        self._for_gate: tuple[list[LabeledQuery], int] = ([], 0)  # guarded-by: _lock
        # Rounds fine-tuned so far: round n trains with seed + n - 1 and
        # a worker names its checkpoint adapt-000n.
        self._index = 0  # guarded-by: _lock
        self._last_gate: GateResult | None = None  # guarded-by: _lock

    # -- fresh-experience cursor ----------------------------------------
    def pending(self) -> int:
        """Unique experiences added since the last committed round."""
        with self._lock:
            consumed = self._consumed
        return self.buffer.added - consumed

    def commit(self) -> None:
        """Mark the latest fine-tune's snapshot consumed.  Never called
        for a round that crashed: its trigger credit stays intact and
        the retry trains on the same data."""
        with self._lock:
            self._rollback_to = self._consumed
            self._consumed = max(self._consumed, self._snapshot_added)

    def rollback(self) -> None:
        """Undo the latest :meth:`commit` (idempotent per commit), for a
        round that trained but never landed: the signature-deduped
        buffer cannot re-admit the same experience, so consumption must
        be undoable for it to trigger — and train — a future round."""
        with self._lock:
            if self._rollback_to is not None:
                self._consumed = self._rollback_to
                self._rollback_to = None

    # -- the round's private copy ------------------------------------------
    def private_model(self, live, global_state: dict | None = None):
        """A clone of ``live`` — under the broadcast (S)/(T)
        ``global_state`` when one is given — sharing no (S)/(T) array
        with it: :meth:`MTMLFQO.clone_for_inference` copies (S)/(T) by
        state dict, so the round's training steps never touch a weight
        array that serves traffic.  The clone shares ``live``'s frozen
        featurizers, which no trainer steps, and with them the caches
        of their outputs, which stay valid under training and
        ``global_state``: both change (S)/(T) only.  Its version is its
        own from construction, so it never shares ``live``'s plan-cache
        entries."""
        model = live.clone_for_inference()
        if global_state is not None:
            model.load_state_dict(global_state)
        return model

    def private_trainer(
        self, live, global_state: dict | None = None, optimizer_state: dict | None = None
    ) -> JointTrainer:
        """The trainer a round fine-tunes: :meth:`private_model` under an
        Adam at ``config.learning_rate`` that resumes ``optimizer_state``
        (the scheduler's name-keyed moments; fresh ones when None)."""
        return JointTrainer(
            self.private_model(live, global_state),
            learning_rate=self.config.learning_rate,
            optimizer_state=optimizer_state,
        )

    # -- the two phases ---------------------------------------------------
    def fine_tune(self, trainer: JointTrainer) -> int:
        """Fine-tune ``trainer`` on the training slice of a buffer
        snapshot (non-empty: the scheduler's readiness check); returns
        the number of training examples."""
        experience, added = self.buffer.snapshot_with_added()
        train_slice, held_out = split_experience(experience, self.config.validation_fraction)
        tracer = self.service.telemetry.tracer
        trace = tracer.new_trace()
        with self._lock:
            self._index += 1
            index = self._index
        self.service.stats.note_retrain()
        with tracer.span(trace, "adapt.retrain") as span:
            span.set("experience", len(train_slice)).set("cycle", index)
            # Seed varies per round: a retry after a rejection (with
            # more experience) explores a different batch order instead
            # of replaying the rejected run's schedule.
            trainer.train(
                [(self.db.name, item) for item in train_slice],
                epochs=self.config.fine_tune_epochs,
                batch_size=self.config.batch_size,
                seed=self.config.seed + index - 1,
            )
        with self._lock:
            self._snapshot_added = added
            self._for_gate = (held_out, trace)
        return len(train_slice)

    def gate_and_install(self, candidate, save_checkpoint=None) -> GateResult | None:
        """Gate ``candidate`` against the live model; install it iff safe.

        Returns the verdict, or None when there is no experience to
        validate against — the live model keeps serving: a candidate
        nobody can measure is never accepted blind.  ``save_checkpoint``
        (``() -> path``) runs between an accepting verdict and the swap.
        """
        with self._lock:
            # Taken (not just read): the slice belongs to exactly one
            # round's gate.  If the gate below raises, a later round
            # must fall back to the full buffer rather than re-gate on
            # this round's stale snapshot.
            (held_out, trace), self._for_gate = self._for_gate, ([], 0)
        tracer = self.service.telemetry.tracer
        trace = trace or tracer.new_trace()
        if not held_out:
            # No fine-tune this round: the candidate never trained on
            # any of this database's data *this round*, so the entire
            # buffer is the held-out set (sorted for determinism) — the
            # wider coverage makes accept/reject a far better predictor
            # of live-traffic behavior than a thin held-out slice.  The
            # caveat: across rounds a fleet's global lineage may include
            # earlier rounds this tenant trained in, so items it once
            # trained on can leak a mild optimistic bias — the price of
            # coverage; the bias is bounded by how much one tenant's
            # slice moves the example-weighted merge.
            held_out = sorted(self.buffer.snapshot(), key=lambda item: item.query.to_sql())
        if not held_out:
            self.service.stats.note_gate("unvalidated")
            return None
        live = self.service.live_model
        with tracer.span(trace, "adapt.gate") as span:
            # Gated under the *service's* decode policy: the gate must
            # measure exactly what each model would serve.
            gate = evaluate_regret_gate(
                self.db,
                live,
                candidate,
                held_out,
                decode=self.service.config.decode_kwargs(),
                estimator=self._estimator,
                tolerance_ms=self.config.regret_tolerance_ms,
                max_intermediate_rows=self.config.max_intermediate_rows,
            )
            span.set("validation", gate.validation_count)
        if gate.accepted and save_checkpoint is not None:
            gate.checkpoint_path = save_checkpoint()
        tracer.event(
            trace,
            "gate.accept" if gate.accepted else "gate.reject",
            {
                "name": self.service.slo_name,
                "validation_count": gate.validation_count,
                "live_regret_ms": round(gate.live_regret_ms, 3),
                "candidate_regret_ms": round(gate.candidate_regret_ms, 3),
                "checkpoint": gate.checkpoint_path,
            },
        )
        if gate.accepted:
            # swap_model validates the candidate's session before the
            # atomic (session, epoch) switch (retiring every pre-swap
            # cache entry); if that raises, no verdict is counted.
            with tracer.span(trace, "adapt.swap"):
                self.service.swap_model(candidate)
        with self._lock:
            self._last_gate = gate
        self.service.stats.note_gate("accept" if gate.accepted else "reject")
        return gate

    # -- reporting -------------------------------------------------------
    @property
    def index(self) -> int:
        """Rounds fine-tuned so far (the latest round's number)."""
        with self._lock:
            return self._index

    @property
    def last_gate(self) -> GateResult | None:
        with self._lock:
            return self._last_gate


class CheckpointDir:
    """Where a round owner writes its checkpoints, one rule for the
    :class:`AdaptationWorker` (``adapt-NNNN.npz``) and the
    :class:`repro.federation.FleetCoordinator` (``round-NNNN.npz``):
    ``config.checkpoint_dir`` when set (created on demand, never
    removed), else a private temp dir made on first use and removed by
    :meth:`release`.
    """

    def __init__(self, config: RoundConfig, name: str):
        self._config = config
        self._name = name
        self._private: str | None = None

    def path(self) -> str:
        if self._config.checkpoint_dir is not None:
            os.makedirs(self._config.checkpoint_dir, exist_ok=True)
            return self._config.checkpoint_dir
        if self._private is None:
            self._private = tempfile.mkdtemp(prefix=f"repro-{self._name}-")
        return self._private

    def release(self) -> None:
        """Remove the private temp dir (and its checkpoints), if one was
        made; a later :meth:`path` makes a fresh one."""
        if self._private is not None:
            shutil.rmtree(self._private, ignore_errors=True)
            self._private = None


class AdaptationWorker:
    """Background collect → retrain → gate → swap loop over one service.

    Each cycle fine-tunes a clone of the live model; while the model
    this worker last installed is still live, the clone's trainer resumes
    that cycle's Adam moments, so accepted cycles form one training run.
    Accepted candidates are checkpointed (``adapt-NNNN.npz``) before the
    swap; no cycle reads a checkpoint back.  Use as a context manager
    (or :meth:`start` / :meth:`stop`) for the autonomous loop, or call
    :meth:`run_once` directly for a deterministic, synchronous cycle
    (tests, notebooks)::

        worker = AdaptationWorker(service, db, collector.buffer, config)
        with collector, worker:
            ... serve traffic; the model adapts in the background ...
    """

    def __init__(self, service, db, buffer: ExperienceBuffer, config: AdaptationConfig | None = None):
        self.config = config or AdaptationConfig()
        self.service = service
        self.db = db
        self.buffer = buffer
        self.round = TrainRound(service, db, buffer, self.config)
        self._name = f"adaptation-{db.name}"
        self._checkpoints = CheckpointDir(self.config, self._name)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        # The trajectory being continued: the last *accepted* cycle's
        # Adam moments and the model that cycle installed.
        self._trajectory: tuple[dict | None, object] = (None, None)  # guarded-by: _lock

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "AdaptationWorker":
        if self._thread is not None:
            raise RuntimeError(f"{self._name} already running")
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, name=self._name, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Signal the loop and join it (a cycle in flight completes
        first), then remove a private checkpoint directory and the
        checkpoints in it.  The in-memory trajectory survives: a
        restarted worker continues it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._checkpoints.release()

    def __enter__(self) -> "AdaptationWorker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- scheduling ----------------------------------------------------
    def pending_experience(self) -> int:
        """Unique experiences added since the last retrain verdict."""
        return self.round.pending()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                if self.pending_experience() >= self.config.min_new_experience:
                    # Accepted or rejected, the verdict consumes the
                    # trigger credit.
                    self.run_once()
                settled = True
            except Exception:
                # The loop must survive anything (a transient training
                # error, an unwritable checkpoint dir).  A cycle that
                # died on infrastructure is counted, not swallowed, and
                # NOT as a gate rejection: `swaps_rejected` keeps meaning
                # "the regression gate blocked a candidate".
                self.service.stats.note_adaptation_failure()
                settled = False
            # A crashed cycle keeps its trigger credit: a real pause is
            # the only thing between this loop and re-running a doomed
            # cycle at full CPU.
            poll_s = self.config.poll_interval_s
            self._stop.wait(poll_s if settled else max(1.0, 20 * poll_s))

    def run_once(self) -> bool:
        """One collect → retrain → gate → swap cycle; True iff swapped."""
        if not len(self.buffer):
            return False
        # Resolved before any training: an unwritable directory fails the
        # cycle here, trigger credit intact, not after a wasted fine-tune.
        directory = self._checkpoints.path()
        live = self.service.live_model
        with self._lock:
            moments, installed = self._trajectory
        # First cycle, or someone else swapped since ours: continuing our
        # moments would push their model along our old trajectory, so
        # the clone starts from fresh ones.
        trainer = self.round.private_trainer(
            live, optimizer_state=moments if installed is live else None
        )
        self.round.fine_tune(trainer)
        path = os.path.join(directory, f"adapt-{self.round.index:04d}")
        gate = self.round.gate_and_install(
            trainer.model, save_checkpoint=lambda: trainer.save_checkpoint(path)
        )
        # Experience is consumed only by a verdict: a crash at any
        # earlier point leaves the trigger credit intact, so the retry
        # trains on the same data.
        self.round.commit()
        if gate.accepted:
            # Only installed models are continued: had the save or
            # swap_model's validation raised, this is never reached.
            with self._lock:
                self._trajectory = (trainer.optimizer.state_dict(), trainer.model)
        return gate.accepted

    # -- reporting -----------------------------------------------------
    @property
    def last_gate(self) -> GateResult | None:
        return self.round.last_gate

    def counters(self) -> dict:
        """The adaptation fields of the service's report."""
        report = self.service.report()
        return {
            "retrains": report.retrains,
            "swaps_accepted": report.swaps_accepted,
            "swaps_rejected": report.swaps_rejected,
            "adaptation_failures": report.adaptation_failures,
        }
