"""Cross-DB meta-learning: Algorithm 1 (MLA) and transfer/fine-tuning.

MLA trains one MTMLF-QO over N databases:

1. for every DB, train the per-table encoders Enc_j on single-table
   CardEst (line 4) — this captures all database-specific knowledge;
2. featurize every labeled query of every DB (line 5-6);
3. shuffle the pooled training tuples across DBs (line 7) — this is the
   step that *forces* (S)/(T) to learn database-agnostic knowledge,
   because one set of weights must fit all DBs simultaneously;
4. jointly train the (S) and (T) modules on the pooled data (line 8).

:func:`pretrain` runs it.  Transfer to a new DB (:func:`transfer`) then
needs only: train the new DB's featurizer (cheap single-table queries)
and optionally fine-tune (S)/(T) on a small number of labeled queries.
It is the one cross-database path: MLA transfer, fleet onboarding and
the from-scratch control all run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..storage.catalog import Database
from ..workload.labeler import LabeledQuery
from .encoders import DatabaseFeaturizer, EncoderBudget
from .model import MTMLFQO
from .trainer import JointTrainer, TrainingExample

__all__ = ["MLAConfig", "pretrain", "transfer"]


def transfer(
    model: MTMLFQO,
    db: Database,
    encoder: EncoderBudget | DatabaseFeaturizer,
    *,
    seed: int = 0,
    fine_tune: Sequence[LabeledQuery] = (),
    epochs: int = 0,
    batch_size: int = 16,
    verbose: bool = False,
) -> MTMLFQO:
    """Put ``model``'s (S)/(T) to work on ``db``; returns ``model``.

    ``encoder`` is the database's (F): an already-trained featurizer,
    attached as is, or an :class:`EncoderBudget` to train one with under
    ``seed``.  With no ``fine_tune`` queries (k = 0) this is zero-shot
    and the (S)/(T) weights are untouched; otherwise one
    :class:`JointTrainer` runs ``epochs`` (>= 1) over the k labeled
    queries.
    """
    if fine_tune and (epochs < 1 or batch_size < 1):
        raise ValueError(
            f"fine-tuning needs epochs >= 1 and batch_size >= 1, got {epochs} and {batch_size}"
        )
    if not isinstance(encoder, DatabaseFeaturizer):
        encoder = encoder.train(db, model.config, seed=seed, verbose=verbose)
    model.attach_featurizer(db.name, encoder)
    if fine_tune:
        examples = [(db.name, item) for item in fine_tune]
        JointTrainer(model).train(examples, epochs=epochs, batch_size=batch_size, seed=seed, verbose=verbose)
    return model


@dataclass
class MLAConfig:
    """Knobs for the meta-learning procedure."""

    encoder: EncoderBudget = EncoderBudget(25, 12)
    joint_epochs: int = 20
    batch_size: int = 16
    fine_tune_epochs: int = 5
    seed: int = 0
    verbose: bool = False

    def __post_init__(self):
        for name in ("joint_epochs", "batch_size", "fine_tune_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def pretrain(
    model: MTMLFQO,
    databases: list[Database],
    workloads: list[list[LabeledQuery]],
    config: MLAConfig,
) -> MTMLFQO:
    """Algorithm 1: train ``model``'s (S)+(T) on the shuffled multi-DB
    pool; returns ``model``."""
    if len(databases) != len(workloads):
        raise ValueError("databases and workloads must align")
    train_data: list[TrainingExample] = []
    for db, workload in zip(databases, workloads):
        if db.name not in model.featurizers:
            # Line 4: train the database's (F) module.
            transfer(model, db, config.encoder, seed=config.seed, verbose=config.verbose)
        train_data.extend((db.name, item) for item in workload)
    # Line 7's shuffle happens inside JointTrainer.train (per epoch),
    # interleaving examples from all databases.
    JointTrainer(model).train(
        train_data,
        epochs=config.joint_epochs,
        batch_size=config.batch_size,
        seed=config.seed,
        verbose=config.verbose,
    )
    return model
