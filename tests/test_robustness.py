"""Failure injection and edge-case robustness across the stack."""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (
    DatabaseFeaturizer,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    load_checkpoint,
    save_checkpoint,
)
from repro.datagen import generate_database
from repro.engine import ExecutionLimitError, execute_plan, left_deep_plan, scan_node
from repro.engine.operators import JoinExpansionError, equi_join_positions
from repro.optimizer import TrueCardinalityOracle
from repro.sql import Conjunction, Query, parse_query
from repro.storage import Database, JoinRelation, Table
from repro.workload import LabeledQuery, QueryLabeler, WorkloadConfig, WorkloadGenerator

TINY = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=2, num_tables=6, row_range=(60, 200), attr_range=(2, 3))


@pytest.fixture(scope="module")
def featurizer(db):
    feat = DatabaseFeaturizer(db, TINY)
    feat.train_encoders(queries_per_table=3, epochs=1)
    return feat


class TestJoinExplosionGuard:
    def test_equi_join_cap(self):
        left = np.zeros(1000, dtype=np.int64)
        right = np.zeros(1000, dtype=np.int64)
        with pytest.raises(JoinExpansionError):
            equi_join_positions(left, right, max_pairs=10_000)

    def test_executor_converts_to_limit_error(self):
        a = Table.from_dict("a", {"k": np.zeros(2000, dtype=np.int64)})
        b = Table.from_dict("b", {"k": np.zeros(2000, dtype=np.int64)})
        database = Database("boom", [a, b])
        database.add_join(JoinRelation("a", "k", "b", "k"))
        query = parse_query("SELECT COUNT(*) FROM a, b WHERE a.k = b.k")
        plan = left_deep_plan(query, ["a", "b"])
        with pytest.raises(ExecutionLimitError):
            execute_plan(plan, database, max_intermediate_rows=100_000)

    def test_oracle_respects_cap(self):
        a = Table.from_dict("a", {"k": np.zeros(2000, dtype=np.int64)})
        b = Table.from_dict("b", {"k": np.zeros(2000, dtype=np.int64)})
        database = Database("boom2", [a, b])
        database.add_join(JoinRelation("a", "k", "b", "k"))
        query = parse_query("SELECT COUNT(*) FROM a, b WHERE a.k = b.k")
        oracle = TrueCardinalityOracle(database, max_intermediate_rows=100_000)
        with pytest.raises(ExecutionLimitError):
            oracle.estimate(query, frozenset(["a", "b"]))

    def test_labeler_drops_exploding_queries(self):
        a = Table.from_dict("a", {"k": np.zeros(3000, dtype=np.int64)})
        b = Table.from_dict("b", {"k": np.zeros(3000, dtype=np.int64)})
        database = Database("boom3", [a, b])
        database.add_join(JoinRelation("a", "k", "b", "k"))
        query = parse_query("SELECT COUNT(*) FROM a, b WHERE a.k = b.k")
        labeler = QueryLabeler(database, max_intermediate_rows=10_000)
        assert labeler.label(query) is None
        assert labeler.label_many([query]) == []


class TestSingleTableQueries:
    def test_model_handles_single_table_plan(self, db, featurizer):
        table = db.table_names[0]
        query = Query(tables=[table], joins=[], filters={})
        labeled = QueryLabeler(db).label(query)
        assert labeled is not None
        assert labeled.num_nodes == 1
        model = MTMLFQO(TINY)
        model.attach_featurizer(db.name, featurizer)
        cards = model.predict_cardinalities(db.name, [labeled])[0]
        assert cards.shape == (1,)
        order = model.predict_join_order(db.name, labeled)
        assert order == [table]

    def test_training_with_mixed_table_counts(self, db, featurizer):
        generator = WorkloadGenerator(db, WorkloadConfig(min_tables=1, max_tables=3, seed=5))
        labeled = QueryLabeler(db).label_many(generator.generate(12), with_optimal_order=True)
        assert any(item.query.num_tables == 1 for item in labeled)
        model = MTMLFQO(TINY)
        model.attach_featurizer(db.name, featurizer)
        trainer = JointTrainer(model)
        result = trainer.train([(db.name, item) for item in labeled], epochs=2, batch_size=4)
        assert np.isfinite(result.final_loss)


class TestDegenerateData:
    def test_zero_row_table_statistics(self):
        t = Table.from_dict("empty", {"a": np.array([], dtype=np.int64)})
        database = Database("emptydb", [t])
        stats = database.statistics("empty")
        assert stats.num_rows == 0
        assert stats.column("a").n_distinct == 0

    def test_scan_on_empty_table(self):
        t = Table.from_dict("empty", {"a": np.array([], dtype=np.int64)})
        database = Database("emptydb2", [t])
        plan = scan_node("empty")
        result = execute_plan(plan, database)
        assert result.cardinality == 0

    def test_constant_column_histogram(self):
        t = Table.from_dict("const", {"a": np.full(100, 7)})
        database = Database("constdb", [t])
        hist = database.statistics("const").column("a").histogram
        assert hist.selectivity_le(7) == 1.0
        assert hist.selectivity_le(6.9) == 0.0

    def test_zero_cardinality_labels_trainable(self, db, featurizer):
        """Queries with empty results must not produce NaN losses."""
        generator = WorkloadGenerator(
            db, WorkloadConfig(min_tables=2, max_tables=3, seed=11, filter_probability=1.0)
        )
        labeled = QueryLabeler(db).label_many(generator.generate(15))
        zero_card = [item for item in labeled if item.cardinality == 0]
        if not zero_card:
            pytest.skip("no zero-result queries generated")
        model = MTMLFQO(TINY)
        model.attach_featurizer(db.name, featurizer)
        trainer = JointTrainer(model)
        result = trainer.train([(db.name, item) for item in zero_card], epochs=2, batch_size=4)
        assert np.isfinite(result.final_loss)


class TestModelPersistence:
    def test_full_model_state_roundtrip(self, db, featurizer, tmp_path):
        model = MTMLFQO(TINY)
        model.attach_featurizer(db.name, featurizer)
        for p in model.parameters():  # off the seed-0 initialisation
            p.data += 1.0
        clone = load_checkpoint(save_checkpoint(model, str(tmp_path / "mtmlf")), databases=db)
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_featurizer_state_roundtrip(self, db, featurizer, tmp_path):
        model = MTMLFQO(TINY)
        model.attach_featurizer(db.name, featurizer)
        loaded = load_checkpoint(save_checkpoint(model, str(tmp_path / "feat")), databases=db)
        clone = loaded.featurizer_for(db.name)
        assert clone is not featurizer
        table = db.table_names[0]
        conj = Conjunction(table=table, predicates=())
        with nn.no_grad():
            a = featurizer.encode_filter(conj).data
            b = clone.encode_filter(conj).data
        np.testing.assert_allclose(a, b)


class TestNumericalStability:
    def test_training_extreme_cardinalities(self, db, featurizer):
        """Labels spanning 1..1e9 must keep gradients finite."""
        table = db.table_names[0]
        query = Query(tables=[table], joins=[], filters={})
        base = QueryLabeler(db).label(query)
        extreme = [
            LabeledQuery(
                query=base.query,
                plan=base.plan,
                node_cardinalities=[value],
                node_costs=[float(value)],
                total_time_ms=float(value),
            )
            for value in (1, 10**9)
        ]
        model = MTMLFQO(TINY)
        model.attach_featurizer(db.name, featurizer)
        trainer = JointTrainer(model)
        result = trainer.train([(db.name, item) for item in extreme], epochs=3, batch_size=2)
        assert np.isfinite(result.final_loss)
        for p in model.parameters():
            assert np.isfinite(p.data).all()
