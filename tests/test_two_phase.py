"""Tests for the two-phase JoinSel training extension (Section 3.2).

The paper's research note: optimal join orders are expensive, so an
existing DBMS can generate sub-optimal orders to pre-train a baseline
model, refined later with the scarce optimal orders.  The weak label is
the initial plan's join order (``planner_order_positions``).
"""

import numpy as np
import pytest

from repro.core import DatabaseFeaturizer, JointTrainer, ModelConfig, MTMLFQO, joeu
from repro.core.trainer import order_positions, planner_order_positions
from repro.datagen import generate_database
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

TINY = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1,
                   w_card=0.0, w_cost=0.0, w_jo=1.0)


@pytest.fixture(scope="module")
def setup():
    db = generate_database(seed=4, num_tables=6, row_range=(60, 250), attr_range=(2, 3))
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=1))
    labeled = QueryLabeler(db).label_many(generator.generate(30), with_optimal_order=True)
    featurizer = DatabaseFeaturizer(db, TINY)
    featurizer.train_encoders(queries_per_table=3, epochs=1)
    return db, labeled, featurizer


class TestWeakLabels:
    def test_planner_order_positions_valid(self, setup):
        db, labeled, _ = setup
        for item in labeled:
            positions = planner_order_positions(item)
            if positions is None:
                continue
            assert sorted(positions) == list(range(item.query.num_tables))
            tables = [item.query.tables[p] for p in positions]
            assert tables == item.plan.leaf_tables_in_order()

    def test_weak_and_strong_labels_may_differ(self, setup):
        db, labeled, _ = setup
        jo_items = [i for i in labeled if i.optimal_order is not None]
        weak = [planner_order_positions(i) for i in jo_items]
        strong = [order_positions(i) for i in jo_items]
        # Not asserting inequality (the planner may be right); the point
        # is both labelings exist for the same items.
        assert len(weak) == len(strong) > 0


class TestTwoPhaseTraining:
    def test_planner_phase_trains(self, setup):
        db, labeled, featurizer = setup
        model = MTMLFQO(TINY)
        model.attach_featurizer(db.name, featurizer)
        trainer = JointTrainer(model)
        result = trainer.train(
            [(db.name, item) for item in labeled], epochs=3, batch_size=8, jo_criterion="planner"
        )
        assert np.isfinite(result.final_loss)
        assert result.epoch_losses[-1] <= result.epoch_losses[0]

    def test_two_phase_pipeline(self, setup):
        """Phase 1 on planner orders, phase 2 on optimal orders."""
        db, labeled, featurizer = setup
        jo_items = [i for i in labeled if i.optimal_order is not None]
        model = MTMLFQO(TINY)
        model.attach_featurizer(db.name, featurizer)
        trainer = JointTrainer(model)
        examples = [(db.name, item) for item in labeled]

        trainer.train(examples, epochs=3, batch_size=8, seed=0, jo_criterion="planner")
        result = trainer.train(examples, epochs=3, batch_size=8, seed=1)
        assert np.isfinite(result.final_loss)

        scores = [
            joeu(model.predict_join_order(db.name, item), item.optimal_order)
            for item in jo_items
        ]
        assert all(0.0 <= s <= 1.0 for s in scores)
