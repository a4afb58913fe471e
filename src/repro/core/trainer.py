"""(L) Joint multi-task training of MTMLF-QO.

Implements the paper's training procedure: all three QO tasks trained
jointly under the Equation 1 criterion, gradients updating the (S) and
(T) modules only (featurizers are pre-trained separately per Algorithm 1
line 4 and frozen here).  What the join-order term of that one
criterion is — token-level L.iii, or the sequence-level Equation 3 of
Section 5 — is ``JointTrainer.train``'s ``jo_criterion``.

Single-task ablations (MTMLF-CardEst / -CostEst / -JoinSel of Tables
1-2) are obtained by zeroing the other tasks' loss weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..workload.labeler import LabeledQuery
from .config import ModelConfig
from .losses import (
    joint_loss,
    node_qerror_loss,
    sequence_level_loss,
    sequence_log_probs,
)
from .model import MTMLFQO

__all__ = ["TrainingExample", "JointTrainer", "TrainResult"]

# A training example is (database name, labeled query).
TrainingExample = tuple[str, LabeledQuery]

_COST_FLOOR = 1e-6
_TASKS = ("card", "cost", "jo")
_JO_CRITERIA = ("optimal", "planner", "sequence")


@dataclass
class TrainResult:
    """Per-epoch loss history, whole and per task.

    ``task_losses`` holds each task's unweighted epoch means, ``card`` /
    ``cost`` / ``jo`` (``jo`` is whichever join-order criterion the call
    trained under): under the Equation 1 weights they sum to
    ``epoch_losses``; a task with no term in a batch reads 0 there.
    """

    epoch_losses: list[float] = field(default_factory=list)
    task_losses: dict[str, list[float]] = field(default_factory=dict)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


def order_positions(labeled: LabeledQuery) -> list[int]:
    """Optimal join order as positions into ``query.tables``."""
    if labeled.optimal_order is None:
        raise ValueError("query has no optimal-order label")
    index = {table: i for i, table in enumerate(labeled.query.tables)}
    return [index[table] for table in labeled.optimal_order]


def planner_order_positions(labeled: LabeledQuery) -> list[int] | None:
    """The initial plan's join order as positions (weak JoinSel label).

    The paper's Section 3.2 research note suggests two-phase training:
    an existing DBMS generates *sub-optimal* join orders to bootstrap
    the model before the expensive optimal orders refine it.  The weak
    label is simply the initial plan's leaf order (left-deep plans).
    """
    if not labeled.plan.is_left_deep():
        return None
    index = {table: i for i, table in enumerate(labeled.query.tables)}
    return [index[table] for table in labeled.plan.leaf_tables_in_order()]


def _jo_label(item: LabeledQuery, jo_criterion: str) -> list[int] | None:
    """The join-order label ``item`` trains on (None: it has none)."""
    if item.query.num_tables < 2:
        return None
    if jo_criterion == "planner":
        return planner_order_positions(item)
    return order_positions(item) if item.optimal_order is not None else None


class JointTrainer:
    """Trains (S)+(T) on labeled queries from one or many databases."""

    def __init__(
        self,
        model: MTMLFQO,
        learning_rate: float | None = None,
        optimizer_state: dict | None = None,
    ):
        self.model = model
        self.config: ModelConfig = model.config
        # Named parameters, walked once: the names are the optimizer's
        # layout, so warm-start state saved in a checkpoint can only ever
        # restore onto the parameters it was computed for.  Its value
        # vector is the model's own weights, stepped in place.
        named = model.named_parameters()
        self.parameters = [p for _, p in named]
        self.optimizer = nn.Adam(
            named,
            lr=self.config.learning_rate if learning_rate is None else learning_rate,
        )
        # An ``optimizer.state()`` carried over from an earlier trainer
        # of the same layout (a checkpoint, the previous round): this
        # trainer continues that trajectory instead of re-warming from
        # zeroed moments.
        if optimizer_state is not None:
            self.optimizer.load_state(optimizer_state)

    # ------------------------------------------------------------------
    def _batch_losses(
        self, db_name: str, batch: list[LabeledQuery], jo_criterion: str = "optimal"
    ) -> tuple[nn.Tensor, tuple]:
        """Equation 1 on one batch: ``(joint loss, (card, cost, jo))``,
        the unweighted terms being None where a task contributes nothing.
        ``jo_criterion`` (see :meth:`train`) only changes the ``jo`` term."""
        log_cards, log_costs, pad_mask, encodings, shared = self.model.predict_log_nodes(db_name, batch)
        max_len = log_cards.shape[1]

        card_targets = np.ones((len(batch), max_len), dtype=np.float64)
        cost_targets = np.full((len(batch), max_len), _COST_FLOOR, dtype=np.float64)
        for i, item in enumerate(batch):
            card_targets[i, : item.num_nodes] = item.node_cardinalities
            cost_targets[i, : item.num_nodes] = item.node_costs
        valid = ~pad_mask

        card_loss = None
        cost_loss = None
        if self.config.w_card:
            card_loss = node_qerror_loss(log_cards, card_targets, mask=valid)
        if self.config.w_cost:
            cost_loss = node_qerror_loss(log_costs, cost_targets, mask=valid, floor=_COST_FLOOR)

        jo_loss = None
        if self.config.w_jo:
            labels = {
                i: positions
                for i, item in enumerate(batch)
                if (positions := _jo_label(item, jo_criterion)) is not None
            }
            if labels:
                memory = self.model.join_order_memory_batch(
                    shared, encodings, {i: batch[i].query.tables for i in labels}
                )
                if jo_criterion == "sequence":
                    # Equation 3 against beam candidates (legality not
                    # enforced, so illegal orders can be penalized) decoded
                    # from the parameters this very step differentiates.
                    candidates = self.model.beam_candidates_batch(
                        db_name, [batch[i] for i in labels], enforce_legality=False
                    )
                    jo_loss = sequence_level_loss(
                        self.model.trans_jo, memory, list(labels.values()), candidates,
                        penalty=self.config.sequence_loss_lambda,
                    )
                else:
                    # L.iii for every labeled query off one padded decoder
                    # forward: the mean over queries of each query's
                    # per-timestamp mean cross entropy, -log p(u_i) / m_i.
                    targets, lengths = nn.functional.pad_index_sequences(list(labels.values()))
                    log_probs = sequence_log_probs(self.model.trans_jo, memory, targets, lengths)
                    jo_loss = (log_probs * nn.Tensor(-1.0 / (lengths * len(labels)))).sum()

        loss = joint_loss(
            card_loss,
            cost_loss,
            jo_loss,
            w_card=self.config.w_card,
            w_cost=self.config.w_cost,
            w_jo=self.config.w_jo,
        )
        return loss, (card_loss, cost_loss, jo_loss)

    def train(
        self,
        examples: list[TrainingExample],
        epochs: int = 20,
        batch_size: int = 16,
        seed: int = 0,
        verbose: bool = False,
        jo_criterion: str = "optimal",
    ) -> TrainResult:
        """Run joint training; examples may mix databases (MLA shuffles).

        ``jo_criterion`` is Equation 1's join-order term: ``"optimal"`` —
        token-level L.iii on the optimal orders; ``"planner"`` — L.iii on
        the initial plan's order (weak labels, Section 3.2); ``"sequence"``
        — Equation 3 on the optimal orders and each step's own beam
        candidates.  The card and cost terms are the same under all three.
        """
        if jo_criterion not in _JO_CRITERIA:
            raise ValueError(f"jo_criterion must be one of {_JO_CRITERIA}, got {jo_criterion!r}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not examples:
            raise ValueError("no training examples")
        if jo_criterion == "sequence" and not any(_jo_label(item, jo_criterion) for _, item in examples):
            raise ValueError("no examples with optimal-order labels")
        rng = np.random.default_rng(seed)
        result = TrainResult()
        for epoch in range(epochs):
            order = rng.permutation(len(examples))
            # Database-boundary splits produce ragged batches; weight
            # each batch by its example count so the epoch loss is the
            # per-example mean rather than biased toward tiny batches.
            sums, count = np.zeros(1 + len(_TASKS)), 0
            batch: list[LabeledQuery] = []
            batch_db: str | None = None
            for idx in order:
                db_name, item = examples[idx]
                if batch and (db_name != batch_db or len(batch) >= batch_size):
                    sums += np.multiply(self._step(batch_db, batch, jo_criterion), len(batch))
                    count += len(batch)
                    batch = []
                batch_db = db_name
                batch.append(item)
            if batch:
                sums += np.multiply(self._step(batch_db, batch, jo_criterion), len(batch))
                count += len(batch)
            epoch_loss, *task_means = (sums / max(count, 1)).tolist()
            result.epoch_losses.append(epoch_loss)
            for task, mean in zip(_TASKS, task_means):
                result.task_losses.setdefault(task, []).append(mean)
            if verbose:
                print(f"  epoch {epoch + 1}/{epochs}: loss {epoch_loss:.4f}")
        self.model.mark_updated()
        return result

    # ------------------------------------------------------------------
    def save_checkpoint(self, path: str) -> str:
        """Persist the model *and* this trainer's Adam state to ``path``.

        Returns the resolved path; :meth:`warm_start` restores the
        optimizer moments so training resumes where it left off instead
        of re-warming from zeroed moments.
        """
        from .checkpoint import save_checkpoint

        return save_checkpoint(self.model, path, optimizer=self.optimizer)

    @classmethod
    def warm_start(cls, path: str, databases, learning_rate: float | None = None) -> "JointTrainer":
        """Rebuild a trainer (model + optimizer moments) from a checkpoint.

        The checkpoint's Adam hyper-parameters (lr, betas, eps, weight
        decay) are restored along with the moments — resuming really
        does continue the saved run; pass ``learning_rate`` to override
        the saved lr deliberately.
        """
        from . import checkpoint

        # One read (and one digest check) of the archive yields the model,
        # the moments and the hyper-parameters.
        meta, vectors = checkpoint._read_archive(path, verify_digest=True)
        model = checkpoint._build_model(meta, vectors, databases)
        saved = checkpoint._optimizer_state(meta, vectors, path)
        trainer = cls(model, learning_rate=learning_rate)
        try:
            trainer.optimizer.load_state(saved)
        except ValueError as error:
            raise checkpoint.CheckpointError(str(error)) from error
        trainer.optimizer.beta1, trainer.optimizer.beta2 = saved["betas"]
        trainer.optimizer.eps = saved["eps"]
        trainer.optimizer.weight_decay = saved["weight_decay"]
        if learning_rate is None:
            trainer.optimizer.lr = saved["lr"]
        return trainer

    def _step(
        self, db_name: str, batch: list[LabeledQuery], jo_criterion: str = "optimal"
    ) -> tuple[float, ...]:
        """One optimizer step; returns ``(joint loss, card, cost, jo)``,
        a task with no term in this batch reading 0."""
        self.optimizer.zero_grad()
        loss, terms = self._batch_losses(db_name, batch, jo_criterion)
        loss.backward()
        nn.clip_grad_norm(self.parameters, self.config.grad_clip)
        self.optimizer.step()
        return (loss.item(), *(0.0 if term is None else term.item() for term in terms))
