"""Experiment harnesses regenerating the paper's Tables 1, 2 and 3.

Every experiment is scale-parameterized: the paper's setup (150K
queries, GPU, full IMDB) shrinks to CPU-sized defaults, but the rows,
baselines and metrics match the paper exactly.

- :class:`SingleDBStudy` — Table 1 (q-errors for CardEst/CostEst across
  PostgreSQL, Tree-LSTM, MTMLF-QO and single-task ablations) and
  Table 2 (simulated execution time of join orders: PostgreSQL,
  Optimal, MTMLF-QO, MTMLF-JoinSel);
- :func:`run_table3` — the cross-DB transfer study (PostgreSQL vs
  MTMLF-QO trained by MLA on other DBs vs MTMLF-QO trained on the
  test DB itself).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

from ..baselines.postgres import PostgresBaseline
from ..baselines.treelstm import TreeLSTMEstimator
from ..core.config import ModelConfig
from ..core.encoders import DatabaseFeaturizer, EncoderBudget
from ..core.meta import MetaLearner, MLAConfig, transfer
from ..core.model import MTMLFQO
from ..core.trainer import JointTrainer
from ..engine.executor import ExecutionLimitError, execute_plan
from ..engine.timing import over_limit_penalty_ms
from ..optimizer.optimal import optimal_plan
from ..optimizer.planner import PostgresStylePlanner, plan_with_order
from ..optimizer.selectivity import CardinalityEstimator, HistogramEstimator, TrueCardinalityOracle
from ..storage.catalog import Database
from ..workload.dataset import QueryDataset, split_dataset
from ..workload.generator import WorkloadConfig, WorkloadGenerator
from ..workload.labeler import LabeledQuery, QueryLabeler
from .metrics import QErrorStats, improvement_ratio, qerror_stats

__all__ = [
    "Table1Row",
    "Table2Row",
    "Table3Row",
    "SingleDBStudy",
    "run_table3",
    "collect_node_qerrors",
    "join_order_execution_time",
    "worst_legal_order",
]

_COST_FLOOR = 1e-6


@dataclass
class Table1Row:
    method: str
    card: QErrorStats | None = None
    cost: QErrorStats | None = None


@dataclass
class Table2Row:
    method: str
    total_time_ms: float
    improvement: float | None = None
    optimal_fraction: float | None = None


@dataclass
class Table3Row:
    method: str
    total_time_ms: float
    improvement: float | None = None


def collect_node_qerrors(
    items: list[LabeledQuery],
    predict,
    kind: str = "card",
) -> QErrorStats:
    """Q-error stats over every plan node of every query.

    ``predict(item)`` must return the per-node predictions (preorder).
    """
    preds, trues = [], []
    floor = 1.0 if kind == "card" else _COST_FLOOR
    for item in items:
        values = np.asarray(predict(item), dtype=np.float64)
        truth = np.asarray(
            item.node_cardinalities if kind == "card" else item.node_costs, dtype=np.float64
        )
        preds.append(values)
        trues.append(truth)
    return qerror_stats(np.concatenate(preds), np.concatenate(trues), floor=floor)


def join_order_execution_time(
    db: Database,
    item: LabeledQuery,
    order: list[str],
    estimator: CardinalityEstimator | None = None,
    max_intermediate_rows: int = 20_000_000,
) -> float:
    """Simulated latency of executing ``item.query`` with a join order.

    Physical operators are chosen by the classical cost model over
    histogram estimates (the same policy for every compared method, so
    only the join *order* differs — what Table 2 isolates).  An order
    whose intermediates exceed the row cap is charged a proportional
    penalty instead of being executed to completion — the moral
    equivalent of the paper's query timeouts.
    """
    estimator = estimator or HistogramEstimator(db)
    plan = plan_with_order(item.query, order, estimator)
    try:
        result = execute_plan(plan, db, max_intermediate_rows=max_intermediate_rows)
    except ExecutionLimitError:
        return over_limit_penalty_ms(max_intermediate_rows)
    return result.simulated_ms


def worst_legal_order(
    db: Database,
    item: LabeledQuery,
    samples: int = 12,
    seed: int = 0,
    estimator: CardinalityEstimator | None = None,
) -> list[str] | None:
    """The worst of ``samples`` random *legal* join orders for a query.

    The adversarial-label generator shared by the poisoned-retrain
    benchmarks and tests: sample random permutations, keep the one with
    the highest simulated latency, and skip illegal permutations (a
    disconnected prefix raises ``ValueError``).  Returns ``None`` when
    no sampled permutation is legal within the attempt budget.
    """
    rng = random.Random(seed)
    tables = list(item.query.tables)
    estimator = (estimator or HistogramEstimator(db)).for_query(item.query)
    worst, worst_ms, tried = None, -1.0, 0
    for _ in range(200):
        if tried >= samples:
            break
        order = tables[:]
        rng.shuffle(order)
        try:
            ms = join_order_execution_time(db, item, order, estimator)
        except ValueError:
            continue
        tried += 1
        if ms > worst_ms:
            worst, worst_ms = order, ms
    return worst


# ----------------------------------------------------------------------
# Single-DB study: Tables 1 and 2
# ----------------------------------------------------------------------


@dataclass
class StudyConfig:
    """Scale knobs for the single-DB study."""

    num_queries: int = 260
    min_tables: int = 3
    max_tables: int = 6
    model: ModelConfig = field(default_factory=ModelConfig)
    encoder: EncoderBudget = EncoderBudget(25, 10)
    joint_epochs: int = 30
    treelstm_epochs: int = 15
    batch_size: int = 16
    seed: int = 0
    verbose: bool = False
    # JOB-like workload hazards: LIKE-heavy, sparse-but-selective filters
    # over many-way joins (what makes join order matter).
    filter_probability: float = 0.7
    like_probability: float = 0.6
    max_filters_per_table: int = 1
    # JOB queries return results; drop degenerate empty-result queries.
    drop_empty_results: bool = True

    def __post_init__(self):
        for name in ("joint_epochs", "treelstm_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


class SingleDBStudy:
    """Prepares workloads and trains every method on a single database."""

    def __init__(self, db: Database, config: StudyConfig | None = None):
        self.db = db
        self.config = config or StudyConfig()
        self.train: QueryDataset | None = None
        self.test: QueryDataset | None = None
        self.featurizer: DatabaseFeaturizer | None = None
        self.models: dict[tuple, MTMLFQO] = {}
        self.treelstm: TreeLSTMEstimator | None = None
        self.postgres: PostgresBaseline | None = None

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Generate, label and split the workload (90/10-style)."""
        cfg = self.config
        generator = WorkloadGenerator(
            self.db,
            WorkloadConfig(
                min_tables=cfg.min_tables,
                max_tables=cfg.max_tables,
                seed=cfg.seed,
                filter_probability=cfg.filter_probability,
                like_probability=cfg.like_probability,
                max_filters_per_table=cfg.max_filters_per_table,
            ),
        )
        queries = generator.generate(cfg.num_queries)
        labeler = QueryLabeler(self.db)
        labeled = labeler.label_many(queries, with_optimal_order=True)
        if cfg.drop_empty_results:
            labeled = [item for item in labeled if item.cardinality > 0]
        if len(labeled) < 20:
            raise RuntimeError(f"workload labeling yielded only {len(labeled)} queries")
        self.train, self.test = split_dataset(labeled, (0.85, 0.15), seed=cfg.seed)

    def _require_prepared(self) -> None:
        if self.train is None:
            raise RuntimeError("call prepare() first")

    def train_featurizer(self) -> DatabaseFeaturizer:
        """Train the (F) module once; shared by all MTMLF variants."""
        if self.featurizer is None:
            cfg = self.config
            self.featurizer = cfg.encoder.train(self.db, cfg.model, seed=cfg.seed, verbose=cfg.verbose)
        return self.featurizer

    def train_mtmlf(
        self, name: str, w_card: float = 1.0, w_cost: float = 1.0, w_jo: float = 1.0,
        sequence_refine: bool = False,
    ) -> MTMLFQO:
        """Train one MTMLF variant (weights select the ablation); memoised
        on the whole request, so a refined and an unrefined "MTMLF-QO"
        never alias."""
        self._require_prepared()
        key = (name, w_card, w_cost, w_jo, sequence_refine)
        if key in self.models:
            return self.models[key]
        cfg = self.config
        model_config = ModelConfig(**{**cfg.model.__dict__, "w_card": w_card, "w_cost": w_cost, "w_jo": w_jo})
        model = MTMLFQO(model_config)
        model.attach_featurizer(self.db.name, self.train_featurizer())
        trainer = JointTrainer(model)
        examples = [(self.db.name, item) for item in self.train]
        trainer.train(
            examples,
            epochs=cfg.joint_epochs,
            batch_size=cfg.batch_size,
            seed=cfg.seed,
            verbose=cfg.verbose,
        )
        if sequence_refine and w_jo:
            trainer.train(
                examples, epochs=2, batch_size=cfg.batch_size, seed=cfg.seed, verbose=cfg.verbose,
                jo_criterion="sequence",
            )
        self.models[key] = model
        return model

    def train_treelstm(self) -> TreeLSTMEstimator:
        self._require_prepared()
        if self.treelstm is None:
            cfg = self.config
            self.treelstm = TreeLSTMEstimator(self.db, seed=cfg.seed)
            self.treelstm.fit(
                list(self.train), epochs=cfg.treelstm_epochs, seed=cfg.seed, verbose=cfg.verbose
            )
        return self.treelstm

    def build_postgres(self) -> PostgresBaseline:
        self._require_prepared()
        if self.postgres is None:
            self.postgres = PostgresBaseline(self.db)
            self.postgres.calibrate_costs(list(self.train))
        return self.postgres

    # ------------------------------------------------------------------
    def table1(self, with_ablations: bool = True) -> list[Table1Row]:
        """Table 1: q-errors on the held-out workload."""
        self._require_prepared()
        test = list(self.test)
        rows: list[Table1Row] = []

        postgres = self.build_postgres()
        rows.append(
            Table1Row(
                "PostgreSQL",
                card=collect_node_qerrors(test, postgres.predict_cards, "card"),
                cost=collect_node_qerrors(test, postgres.predict_costs, "cost"),
            )
        )

        treelstm = self.train_treelstm()
        rows.append(
            Table1Row(
                "Tree-LSTM",
                card=collect_node_qerrors(test, lambda i: treelstm.predict(i)[0], "card"),
                cost=collect_node_qerrors(test, lambda i: treelstm.predict(i)[1], "cost"),
            )
        )

        joint = self.train_mtmlf("MTMLF-QO", sequence_refine=True)
        rows.append(
            Table1Row(
                "MTMLF-QO",
                card=collect_node_qerrors(
                    test, lambda i: joint.predict_cardinalities(self.db.name, [i])[0], "card"
                ),
                cost=collect_node_qerrors(
                    test, lambda i: joint.predict_costs(self.db.name, [i])[0], "cost"
                ),
            )
        )

        if with_ablations:
            card_only = self.train_mtmlf("MTMLF-CardEst", w_card=1.0, w_cost=0.0, w_jo=0.0)
            rows.append(
                Table1Row(
                    "MTMLF-CardEst",
                    card=collect_node_qerrors(
                        test, lambda i: card_only.predict_cardinalities(self.db.name, [i])[0], "card"
                    ),
                )
            )
            cost_only = self.train_mtmlf("MTMLF-CostEst", w_card=0.0, w_cost=1.0, w_jo=0.0)
            rows.append(
                Table1Row(
                    "MTMLF-CostEst",
                    cost=collect_node_qerrors(
                        test, lambda i: cost_only.predict_costs(self.db.name, [i])[0], "cost"
                    ),
                )
            )
        return rows

    # ------------------------------------------------------------------
    def table2(self, with_ablation: bool = True) -> list[Table2Row]:
        """Table 2: total simulated execution time per join-order source."""
        self._require_prepared()
        test = [item for item in self.test if item.optimal_order is not None]
        if not test:
            raise RuntimeError("no test queries with optimal-order labels")
        estimator = HistogramEstimator(self.db)
        planner = PostgresStylePlanner(self.db)

        def total_for_orders(orders: list[list[str]]) -> float:
            total = 0.0
            for item, order in zip(test, orders):
                total += join_order_execution_time(self.db, item, order, estimator)
            return total

        pg_orders = [planner.plan(item.query).join_order for item in test]
        optimal_orders = [item.optimal_order for item in test]
        joint = self.train_mtmlf("MTMLF-QO", sequence_refine=True)
        joint_orders = joint.predict_join_orders(self.db.name, test)

        pg_time = total_for_orders(pg_orders)
        rows = [Table2Row("PostgreSQL", pg_time)]
        optimal_time = total_for_orders(optimal_orders)
        rows.append(Table2Row("Optimal", optimal_time, improvement_ratio(pg_time, optimal_time)))
        joint_time = total_for_orders(joint_orders)
        optimal_hits = float(
            np.mean([a == b for a, b in zip(joint_orders, optimal_orders)])
        )
        rows.append(
            Table2Row(
                "MTMLF-QO",
                joint_time,
                improvement_ratio(pg_time, joint_time),
                optimal_fraction=optimal_hits,
            )
        )
        if with_ablation:
            jo_only = self.train_mtmlf("MTMLF-JoinSel", w_card=0.0, w_cost=0.0, w_jo=1.0)
            jo_orders = jo_only.predict_join_orders(self.db.name, test)
            jo_time = total_for_orders(jo_orders)
            rows.append(Table2Row("MTMLF-JoinSel", jo_time, improvement_ratio(pg_time, jo_time)))
        return rows


# ----------------------------------------------------------------------
# Cross-DB transfer: Table 3
# ----------------------------------------------------------------------


def _labeled_workload(db: Database, num_queries: int, max_tables: int, seed: int) -> list[LabeledQuery]:
    generator = WorkloadGenerator(
        db,
        WorkloadConfig(
            min_tables=min(3, max_tables),
            max_tables=max_tables,
            seed=seed,
            filter_probability=0.7,
            like_probability=0.5,
            max_filters_per_table=1,
        ),
    )
    labeler = QueryLabeler(db, max_intermediate_rows=2_000_000)
    labeled = labeler.label_many(generator.generate(num_queries), with_optimal_order=True)
    return [item for item in labeled if item.cardinality > 0]


def run_table3(
    databases: list[Database],
    num_queries: int = 80,
    max_tables: int = 4,
    mla_config: MLAConfig | None = None,
    model_config: ModelConfig | None = None,
    seed: int = 0,
) -> list[Table3Row]:
    """The Table 3 experiment: transfer MTMLF-QO to an unseen database.

    The last database is held out; (S)/(T) are pre-trained via MLA on
    the others and transferred to the held-out DB: its featurizer is
    trained locally and (S)/(T) fine-tuned on a slice of its workload.
    The controlled comparison trains a fresh MTMLF-QO on the same slice.
    ``seed`` seeds the workloads and both arms' training; it overrides
    ``mla_config.seed``.
    """
    if len(databases) < 3:
        raise ValueError("need at least 3 databases (2 train + 1 test)")
    train_dbs, test_db = databases[:-1], databases[-1]
    # One seed for both arms: encoders, pre-training and fine-tuning.
    mla_config = replace(mla_config or MLAConfig(), seed=seed)
    model_config = model_config or ModelConfig()

    workloads = [
        _labeled_workload(db, num_queries, max_tables, seed + i)
        for i, db in enumerate(train_dbs)
    ]
    test_workload = _labeled_workload(test_db, num_queries, max_tables, seed + len(databases))
    test_items = [item for item in test_workload if item.optimal_order is not None]
    if len(test_items) < 10:
        raise RuntimeError("too few labeled test queries for Table 3")
    holdout = test_items[: max(len(test_items) // 3, 5)]   # evaluation slice
    finetune = test_items[len(holdout):]

    # MLA-pretrained (S)/(T) against the controlled study, random (S)/(T):
    # both fine-tune on the same queries over one (F), trained once.
    meta = MetaLearner(model_config, mla_config)
    meta.pretrain(train_dbs, workloads)
    featurizer = mla_config.encoder.train(test_db, model_config, seed=seed, verbose=mla_config.verbose)

    def onto_test_db(model: MTMLFQO, epochs: int) -> MTMLFQO:
        return transfer(
            model, test_db, featurizer, seed=seed, fine_tune=finetune, epochs=epochs,
            batch_size=mla_config.batch_size, verbose=mla_config.verbose,
        )

    mla_model = onto_test_db(meta.model, mla_config.fine_tune_epochs)
    single_model = onto_test_db(MTMLFQO(model_config), mla_config.joint_epochs)

    estimator = HistogramEstimator(test_db)
    planner = PostgresStylePlanner(test_db)

    def total_time(orders: list[list[str]]) -> float:
        total = 0.0
        for item, order in zip(holdout, orders):
            total += join_order_execution_time(test_db, item, order, estimator)
        return total

    pg_time = total_time([planner.plan(item.query).join_order for item in holdout])
    optimal_time = total_time([item.optimal_order for item in holdout])
    mla_time = total_time(mla_model.predict_join_orders(test_db.name, holdout))
    single_time = total_time(single_model.predict_join_orders(test_db.name, holdout))

    return [
        Table3Row("PostgreSQL", pg_time),
        Table3Row("Optimal", optimal_time, improvement_ratio(pg_time, optimal_time)),
        Table3Row("MTMLF-QO (MLA)", mla_time, improvement_ratio(pg_time, mla_time)),
        Table3Row("MTMLF-QO (single)", single_time, improvement_ratio(pg_time, single_time)),
    ]
