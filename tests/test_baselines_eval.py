"""Tests for the baselines and the evaluation machinery."""

import numpy as np
import pytest

from repro.baselines import PostgresBaseline, TreeLSTMEstimator
from repro.datagen import generate_database
from repro.eval import (
    QErrorStats,
    collect_node_qerrors,
    format_table1,
    format_table2,
    format_table3,
    improvement_ratio,
    join_order_execution_time,
    qerror_stats,
)
from repro.eval.experiments import Table1Row, Table2Row, Table3Row
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

pytestmark = pytest.mark.usefixtures("shape_contracts")  # tests/shape_contract.py


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=11, num_tables=6, row_range=(80, 300), attr_range=(2, 3))


@pytest.fixture(scope="module")
def labeled(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=2))
    return QueryLabeler(db).label_many(generator.generate(25), with_optimal_order=True)


class TestMetrics:
    def test_qerror_stats_basic(self):
        stats = qerror_stats([10.0, 10.0], [5.0, 10.0])
        assert stats.median == pytest.approx(1.5)
        assert stats.max == pytest.approx(2.0)
        assert stats.mean == pytest.approx(1.5)
        assert stats.count == 2

    def test_qerror_stats_empty_raises(self):
        with pytest.raises(ValueError):
            qerror_stats([], [])

    def test_qerror_stats_shape_mismatch(self):
        with pytest.raises(ValueError):
            qerror_stats([1.0], [1.0, 2.0])

    def test_improvement_ratio(self):
        assert improvement_ratio(100.0, 30.0) == pytest.approx(0.7)
        assert improvement_ratio(100.0, 100.0) == 0.0

    def test_improvement_ratio_bad_baseline(self):
        with pytest.raises(ValueError):
            improvement_ratio(0.0, 1.0)


class TestPostgresBaseline:
    def test_card_predictions_positive(self, db, labeled):
        baseline = PostgresBaseline(db)
        for item in labeled[:5]:
            cards = baseline.predict_cards(item)
            assert cards.shape == (item.num_nodes,)
            assert (cards >= 0).all()

    def test_cost_calibration_improves_fit(self, db, labeled):
        baseline = PostgresBaseline(db)
        uncalibrated = collect_node_qerrors(labeled, baseline.predict_costs, "cost")
        scale = baseline.calibrate_costs(labeled)
        calibrated = collect_node_qerrors(labeled, baseline.predict_costs, "cost")
        assert scale != 1.0
        assert calibrated.mean <= uncalibrated.mean + 1e-9

    def test_correlated_join_fools_independence(self):
        """The classical estimator's signature failure (the Table 1 story):
        when the filter column correlates with the join key, the
        independence assumption misestimates the join badly while the
        single-table estimate stays accurate."""
        from repro.optimizer import HistogramEstimator
        from repro.sql import parse_query
        from repro.storage import Database, JoinRelation, Table

        n = 1000
        a = Table.from_dict("a", {"id": np.arange(n), "x": np.arange(n)}, primary_key="id")
        # b's foreign keys reference ONLY the ids >= 900; a filter a.x < 100
        # therefore kills the join entirely, but under independence the
        # estimator predicts ~|filtered a| * |b| / ndv.
        b = Table.from_dict("b", {"fk": 900 + np.arange(500) % 100})
        database = Database("corr", [a, b])
        database.add_join(JoinRelation("b", "fk", "a", "id"))
        database.analyze()
        est = HistogramEstimator(database)

        single = parse_query("SELECT COUNT(*) FROM a WHERE a.x < 100")
        single_est = est.estimate(single, frozenset(["a"]))
        single_true = 100.0
        single_err = max(single_est / single_true, single_true / max(single_est, 1e-9))
        assert single_err < 1.5

        join = parse_query("SELECT COUNT(*) FROM a, b WHERE b.fk = a.id AND a.x < 100")
        join_est = est.estimate(join, frozenset(["a", "b"]))
        join_true = 1.0  # actually zero; floored at 1 per convention
        join_err = max(max(join_est, 1.0) / join_true, join_true / max(join_est, 1e-9))
        assert join_err > 10.0


class TestTreeLSTMBaseline:
    def test_fit_reduces_loss(self, db, labeled):
        model = TreeLSTMEstimator(db, hidden_dim=24, seed=0)
        history = model.fit(labeled[:12], epochs=4, seed=0)
        assert history[-1] < history[0]

    def test_predictions_shape(self, db, labeled):
        model = TreeLSTMEstimator(db, hidden_dim=24, seed=0)
        model.fit(labeled[:6], epochs=1)
        cards, costs = model.predict(labeled[0])
        assert cards.shape == (labeled[0].num_nodes,)
        assert costs.shape == (labeled[0].num_nodes,)
        assert (cards > 0).all() and (costs > 0).all()

    def test_beats_untrained(self, db, labeled):
        trained = TreeLSTMEstimator(db, hidden_dim=24, seed=0)
        trained.fit(labeled[:15], epochs=6, seed=0)
        fresh = TreeLSTMEstimator(db, hidden_dim=24, seed=5)

        def error(model):
            total, count = 0.0, 0
            for item in labeled[:10]:
                cards, _ = model.predict(item)
                true = np.maximum(item.node_cardinalities, 1.0)
                total += np.abs(np.log(cards) - np.log(true)).sum()
                count += item.num_nodes
            return total / count

        assert error(trained) < error(fresh)


class TestJoinOrderExecution:
    def test_execution_time_positive(self, db, labeled):
        item = next(i for i in labeled if i.optimal_order is not None)
        time = join_order_execution_time(db, item, item.optimal_order)
        assert time > 0

    def test_optimal_not_worse_than_worst(self, db, labeled):
        from itertools import permutations

        item = next(
            i for i in labeled if i.optimal_order is not None and i.query.num_tables == 3
        )
        times = []
        for perm in permutations(item.query.tables):
            try:
                times.append(join_order_execution_time(db, item, list(perm)))
            except ValueError:
                continue
        optimal_time = join_order_execution_time(db, item, item.optimal_order)
        assert optimal_time <= max(times) + 1e-9


class TestReporting:
    def test_format_table1(self):
        rows = [
            Table1Row("PostgreSQL", card=QErrorStats(10.0, 1000.0, 50.0, 5)),
            Table1Row("MTMLF-QO", card=QErrorStats(2.0, 30.0, 5.0, 5), cost=QErrorStats(1.5, 9.0, 2.0, 5)),
        ]
        text = format_table1(rows)
        assert "PostgreSQL" in text and "MTMLF-QO" in text
        assert "\\" in text  # missing cells rendered like the paper

    def test_format_table2(self):
        rows = [
            Table2Row("PostgreSQL", 1000.0),
            Table2Row("Optimal", 200.0, 0.8),
            Table2Row("MTMLF-QO", 300.0, 0.7, optimal_fraction=0.71),
        ]
        text = format_table2(rows)
        assert "Optimal" in text
        assert "80.0%" in text
        assert "71%" in text

    def test_format_table3(self):
        rows = [Table3Row("PostgreSQL", 500.0), Table3Row("MTMLF-QO (MLA)", 300.0, 0.4)]
        text = format_table3(rows)
        assert "MLA" in text and "40.0%" in text
