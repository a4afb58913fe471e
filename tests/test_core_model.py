"""Integration tests for featurization, the MTMLF-QO model and training."""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (
    DatabaseFeaturizer,
    EncoderBudget,
    JointTrainer,
    MLAConfig,
    ModelConfig,
    MTMLFQO,
    PredicateFeaturizer,
    joint_loss,
    node_qerror_loss,
    order_positions,
    pretrain,
    sequence_level_loss,
    sequence_log_probs,
    transfer,
)
from repro.core.beam import BeamCandidate
from repro.datagen import generate_database, generate_databases
from repro.sql import Comparison, CompareOp, Conjunction, LikePredicate, parse_query
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

pytestmark = pytest.mark.usefixtures("shape_contracts")  # tests/shape_contract.py


SMALL = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=2, decoder_layers=1)


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=1, num_tables=6, row_range=(80, 300), attr_range=(2, 3))


@pytest.fixture(scope="module")
def labeled(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=0))
    return QueryLabeler(db).label_many(generator.generate(40), with_optimal_order=True)


@pytest.fixture(scope="module")
def featurizer(db):
    feat = DatabaseFeaturizer(db, SMALL)
    feat.train_encoders(queries_per_table=6, epochs=3)
    return feat


@pytest.fixture(scope="module")
def trained(db, labeled, featurizer):
    model = MTMLFQO(SMALL)
    model.attach_featurizer(db.name, featurizer)
    trainer = JointTrainer(model)
    result = trainer.train([(db.name, item) for item in labeled], epochs=8, batch_size=8, seed=0)
    return model, trainer, result


class TestPredicateFeaturizer:
    def test_vector_width(self, db):
        pf = PredicateFeaturizer(db, SMALL)
        table = db.table_names[0]
        column = db.table(table).numeric_columns()[0]
        vec = pf.featurize_predicate(Comparison(table, column, CompareOp.LE, 5))
        assert vec.shape == (SMALL.predicate_feature_dim,)

    def test_op_onehot_set(self, db):
        pf = PredicateFeaturizer(db, SMALL)
        table = db.table_names[0]
        column = db.table(table).numeric_columns()[0]
        vec = pf.featurize_predicate(Comparison(table, column, CompareOp.GT, 5))
        assert vec[:10].sum() == 1.0

    def test_like_features(self, db):
        pf = PredicateFeaturizer(db, SMALL)
        # find a string column anywhere in the DB
        for table in db.table_names:
            strings = db.table(table).string_columns()
            if strings:
                vec = pf.featurize_predicate(LikePredicate(table, strings[0], "%ab%"))
                assert vec[8] == 1.0  # LIKE slot
                return
        pytest.skip("database has no string columns")

    def test_quantiles_monotone(self, db):
        pf = PredicateFeaturizer(db, SMALL)
        table = db.table_names[0]
        column = db.table(table).numeric_columns()[0]
        values = db.table(table).column(column).numeric_values()
        low = pf.featurize_predicate(Comparison(table, column, CompareOp.LE, float(np.quantile(values, 0.2))))
        high = pf.featurize_predicate(Comparison(table, column, CompareOp.LE, float(np.quantile(values, 0.9))))
        assert low[11] <= high[11]  # high-quantile slot

    def test_conjunction_tokens(self, db):
        pf = PredicateFeaturizer(db, SMALL)
        table = db.table_names[0]
        column = db.table(table).numeric_columns()[0]
        conj = Conjunction(
            table=table,
            predicates=(
                Comparison(table, column, CompareOp.GE, 1),
                Comparison(table, column, CompareOp.LE, 9),
            ),
        )
        tokens, column_ids = pf.featurize_conjunction(conj)
        assert tokens.shape == (3, SMALL.predicate_feature_dim)  # summary + 2
        assert column_ids[0] == 0
        assert (column_ids[1:] > 0).all()

    def test_column_vocabulary_complete(self, db):
        pf = PredicateFeaturizer(db, SMALL)
        total = sum(db.table(t).num_columns for t in db.table_names)
        assert pf.num_columns == total


class TestDatabaseFeaturizer:
    def test_encode_filter_shape(self, db, featurizer):
        table = db.table_names[0]
        conj = Conjunction(table=table, predicates=())
        out = featurizer.encode_filter(conj)
        assert out.shape == (1, SMALL.d_model)

    def test_selectivity_prediction_nonpositive(self, db, featurizer):
        table = db.table_names[0]
        conj = Conjunction(table=table, predicates=())
        log_sel = featurizer.predict_filter_selectivity(conj)
        assert log_sel.data[0] <= 0.0

    def test_encoder_training_reduces_error(self, db):
        feat = DatabaseFeaturizer(db, SMALL, seed=7)
        table = db.table_names[0]
        from repro.workload import generate_single_table_queries

        queries = generate_single_table_queries(db, table, 12, seed=1)
        base_table = db.table(table)

        def mean_error():
            total = 0.0
            for query in queries:
                conj = query.filter_for(table)
                true = max(conj.evaluate(base_table).mean(), 1e-4)
                with nn.no_grad():
                    pred = feat.predict_filter_selectivity(conj).data[0]
                total += abs(pred - np.log(true))
            return total / len(queries)

        before = mean_error()
        feat.train_encoders(queries_per_table=12, epochs=8, seed=1)
        after = mean_error()
        assert after < before

    def test_parameters_include_all_encoders(self, db, featurizer):
        names = [n for n, _ in featurizer.named_parameters()]
        for table in db.table_names:
            assert any(f"encoders.{table}." in n for n in names)


class TestModelForward:
    def test_encode_query_shapes(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        encoding = model.encode_query(db.name, labeled[0])
        assert encoding.features.shape == (labeled[0].num_nodes, SMALL.node_feature_dim)
        assert encoding.tree_encodings.shape == (labeled[0].num_nodes, SMALL.d_model)
        assert set(encoding.leaf_positions) == set(labeled[0].query.tables)

    def test_encode_query_cached(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        a = model.encode_query(db.name, labeled[0])
        b = model.encode_query(db.name, labeled[0])
        assert a is b
        model.clear_cache()
        c = model.encode_query(db.name, labeled[0])
        assert c is not a

    def test_forward_batch_shapes(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        batch = labeled[:3]
        shared, pad_mask, encodings = model.forward_batch(db.name, batch)
        max_len = max(item.num_nodes for item in batch)
        assert shared.shape == (3, max_len, SMALL.d_model)
        assert pad_mask.shape == (3, max_len)
        for i, item in enumerate(batch):
            assert (~pad_mask[i]).sum() == item.num_nodes

    def test_missing_featurizer_raises(self, labeled):
        model = MTMLFQO(SMALL)
        with pytest.raises(KeyError):
            model.forward_batch("ghost", [labeled[0]])

    def test_prediction_shapes(self, db, labeled, trained):
        model, _, _ = trained
        cards = model.predict_cardinalities(db.name, labeled[:2])
        costs = model.predict_costs(db.name, labeled[:2])
        for item, card, cost in zip(labeled[:2], cards, costs):
            assert card.shape == (item.num_nodes,)
            assert cost.shape == (item.num_nodes,)
            assert (card > 0).all() and (cost > 0).all()

    def test_predict_join_order_legal(self, db, labeled, trained):
        model, _, _ = trained
        for item in labeled[:5]:
            order = model.predict_join_order(db.name, item)
            assert sorted(order) == sorted(item.query.tables)
            joined = {order[0]}
            for table in order[1:]:
                assert item.query.joins_between(joined, {table})
                joined.add(table)


class TestTraining:
    def test_loss_decreases(self, trained):
        _, _, result = trained
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_training_beats_untrained_on_cards(self, db, labeled, featurizer, trained):
        model, _, _ = trained
        fresh = MTMLFQO(SMALL)
        fresh.attach_featurizer(db.name, featurizer)

        def mean_abs_log_error(m):
            total, count = 0.0, 0
            for item in labeled[:10]:
                preds = m.predict_cardinalities(db.name, [item])[0]
                true = np.maximum(item.node_cardinalities, 1.0)
                total += np.abs(np.log(preds) - np.log(true)).sum()
                count += item.num_nodes
            return total / count

        assert mean_abs_log_error(model) < mean_abs_log_error(fresh)

    def test_single_task_configs(self, db, labeled, featurizer):
        for weights in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
            config = ModelConfig(
                **{**SMALL.__dict__, "w_card": weights[0], "w_cost": weights[1], "w_jo": weights[2]}
            )
            model = MTMLFQO(config)
            model.attach_featurizer(db.name, featurizer)
            trainer = JointTrainer(model)
            result = trainer.train([(db.name, item) for item in labeled[:8]], epochs=2, batch_size=4)
            assert np.isfinite(result.final_loss)
            # the one enabled task's curve is the loss curve; the others read 0
            curves = [result.task_losses[task] for task in ("card", "cost", "jo")]
            for weight, curve in zip(weights, curves):
                assert curve == (result.epoch_losses if weight else [0.0, 0.0])

    def test_task_curves_sum_to_the_epoch_loss(self, trained):
        """Per-task means are the three terms of Equation 1: under the
        task weights they add up to each epoch's loss."""
        model, _, result = trained
        config = model.config
        assert set(result.task_losses) == {"card", "cost", "jo"}
        weighted = (
            config.w_card * np.asarray(result.task_losses["card"])
            + config.w_cost * np.asarray(result.task_losses["cost"])
            + config.w_jo * np.asarray(result.task_losses["jo"])
        )
        assert len(weighted) == len(result.epoch_losses) == 8
        np.testing.assert_allclose(weighted, result.epoch_losses, rtol=1e-12)
        assert all(min(curve) > 0.0 for curve in result.task_losses.values())

    def test_all_tasks_disabled_raises(self):
        with pytest.raises(ValueError):
            joint_loss(None, None, None)

    def test_empty_training_set_raises(self, db, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        with pytest.raises(ValueError):
            JointTrainer(model).train([], epochs=1)

    def test_sequence_refinement_runs(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        trainer = JointTrainer(model)
        examples = [(db.name, item) for item in labeled[:6]]
        trainer.train(examples, epochs=1, batch_size=4)
        result = trainer.train(examples, epochs=1, batch_size=4, jo_criterion="sequence")
        assert np.isfinite(result.final_loss)


class TestSequenceLoss:
    def test_sequence_log_prob_negative(self, db, labeled, trained):
        """One forward scores several orders of one query: a (C,) vector
        of log-probabilities, each below 0."""
        model, _, _ = trained
        item = next(i for i in labeled if i.optimal_order and i.query.num_tables >= 2)
        shared, _, encodings = model.forward_batch(db.name, [item])
        memory = model.join_order_memory(shared[0], encodings[0], item.query.tables)
        positions = order_positions(item)
        orders = np.asarray([positions, positions[::-1]], dtype=np.int64)
        log_p = sequence_log_probs(
            model.trans_jo, nn.functional.repeat_batch(memory, 2), orders, np.full(2, len(positions))
        )
        assert log_p.shape == (2,)
        assert (log_p.data < 0.0).all()

    def test_sequence_loss_penalizes_illegal(self, db, labeled, trained):
        model, _, _ = trained
        item = next(i for i in labeled if i.optimal_order and i.query.num_tables >= 3)
        shared, _, encodings = model.forward_batch(db.name, [item])
        memory = model.join_order_memory(shared[0], encodings[0], item.query.tables)
        positions = order_positions(item)
        other = list(reversed(positions))
        candidates = [BeamCandidate(positions=other, log_prob=-1.0, legal=False)]
        with_penalty = sequence_level_loss(model.trans_jo, memory, [positions], [candidates], penalty=10.0)
        without = sequence_level_loss(model.trans_jo, memory, [positions], [[]], penalty=10.0)
        assert np.isfinite(with_penalty.item()) and np.isfinite(without.item())
        assert with_penalty.item() != without.item()


class TestMetaLearning:
    @pytest.fixture(scope="class")
    def fleet(self):
        dbs = generate_databases(3, base_seed=30, row_range=(60, 200), attr_range=(2, 3))
        workloads = []
        for i, database in enumerate(dbs):
            generator = WorkloadGenerator(
                database, WorkloadConfig(min_tables=2, max_tables=3, seed=i)
            )
            workloads.append(
                QueryLabeler(database).label_many(generator.generate(12), with_optimal_order=True)
            )
        return dbs, workloads

    def test_mla_pretrain_and_transfer(self, fleet):
        dbs, workloads = fleet
        mla = MLAConfig(encoder=EncoderBudget(4, 2), joint_epochs=3, fine_tune_epochs=1)
        pretrained = MTMLFQO(SMALL)
        assert pretrain(pretrained, dbs[:-1], workloads[:-1], mla) is pretrained
        # After pretraining, both training DBs have featurizers attached.
        assert dbs[0].name in pretrained.featurizers
        assert dbs[1].name in pretrained.featurizers
        model = transfer(
            pretrained, dbs[-1], mla.encoder, seed=mla.seed, fine_tune=workloads[-1][:6],
            epochs=mla.fine_tune_epochs, batch_size=mla.batch_size,
        )
        assert model is pretrained
        assert dbs[-1].name in pretrained.featurizers
        item = workloads[-1][-1]
        order = pretrained.predict_join_order(dbs[-1].name, item)
        assert sorted(order) == sorted(item.query.tables)

    def test_shared_modules_are_shared_across_dbs(self, fleet):
        """One (S)/(T) set serves all DBs: a zero-shot (k = 0) transfer
        trains only the new DB's (F) and leaves every (S)/(T) parameter
        bit for bit as it was."""
        dbs, workloads = fleet
        mla = MLAConfig(encoder=EncoderBudget(3, 1), joint_epochs=2)
        pretrained = pretrain(MTMLFQO(SMALL), dbs[:2], workloads[:2], mla)
        before = pretrained.weights.copy()
        transfer(pretrained, dbs[2], mla.encoder, epochs=3)
        assert dbs[2].name in pretrained.featurizers
        assert pretrained.weights.tobytes() == before.tobytes()

    def test_fine_tune_matches_joint_trainer(self, fleet):
        """k > 0 is one JointTrainer run from the same weights and seed."""
        dbs, workloads = fleet
        db, queries = dbs[2], workloads[2][:6]
        featurizer = EncoderBudget(3, 1).train(db, SMALL)
        start = {name: value.copy() for name, value in MTMLFQO(SMALL).state_dict().items()}
        reference = MTMLFQO(SMALL)
        reference.load_state_dict(start)
        reference.attach_featurizer(db.name, featurizer)
        JointTrainer(reference).train([(db.name, item) for item in queries], epochs=2, batch_size=4, seed=3)

        model = MTMLFQO(SMALL)
        model.load_state_dict(start)
        transfer(model, db, featurizer, seed=3, fine_tune=queries, epochs=2, batch_size=4)
        expected = reference.state_dict()
        assert any(not np.array_equal(expected[name], value) for name, value in start.items())
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, expected[name], err_msg=name)

    def test_given_featurizer_is_attached_untrained(self, fleet, monkeypatch):
        dbs, _ = fleet
        featurizer = DatabaseFeaturizer(dbs[2], SMALL)
        before = featurizer.state_dict()

        def no_training(*args, **kwargs):
            raise AssertionError("a passed featurizer must not be retrained")

        monkeypatch.setattr(DatabaseFeaturizer, "train_encoders", no_training)
        model = transfer(MTMLFQO(SMALL), dbs[2], featurizer, seed=5)
        assert model.featurizer_for(dbs[2].name) is featurizer
        for name, value in featurizer.state_dict().items():
            np.testing.assert_array_equal(value, before[name], err_msg=name)

    def test_encoder_budget_trains_like_train_encoders(self, fleet):
        dbs, _ = fleet
        reference = DatabaseFeaturizer(dbs[1], SMALL)
        reference.train_encoders(queries_per_table=3, epochs=2, seed=7)
        trained = EncoderBudget(3, 2).train(dbs[1], SMALL, seed=7)
        # A budget handed to transfer() trains under transfer's seed.
        attached = transfer(MTMLFQO(SMALL), dbs[1], EncoderBudget(3, 2), seed=7).featurizer_for(dbs[1].name)
        expected = reference.state_dict()
        for featurizer in (trained, attached):
            state = featurizer.state_dict()
            assert set(state) == set(expected)
            for name, value in expected.items():
                np.testing.assert_array_equal(state[name], value, err_msg=name)

    def test_mismatched_inputs_raise(self, fleet):
        dbs, workloads = fleet
        with pytest.raises(ValueError):
            pretrain(MTMLFQO(SMALL), dbs[:2], workloads[:1], MLAConfig())


class TestTrainingInputs:
    """A training input that would silently do nothing is refused with
    ``ValueError`` before any work."""

    @pytest.fixture
    def model(self, db, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        return model

    def test_zero_batch_size_is_refused(self, db, labeled, model):
        before = model.weights.copy()
        with pytest.raises(ValueError, match="batch_size"):
            JointTrainer(model).train([(db.name, item) for item in labeled[:4]], batch_size=0)
        assert model.weights.tobytes() == before.tobytes()

    def test_negative_epochs_are_refused_and_keep_the_version(self, db, labeled, model):
        version = model.version
        with pytest.raises(ValueError, match="epochs"):
            JointTrainer(model).train([(db.name, item) for item in labeled[:4]], epochs=-2)
        assert model.version == version  # the plan cache's entries stay valid

    def test_empty_encoder_budget_is_refused(self, db):
        with pytest.raises(ValueError, match="encoder budget"):
            EncoderBudget(0, 0).train(db, SMALL)

    def test_fine_tune_without_epochs_is_refused_before_training_the_featurizer(
        self, db, labeled, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("the featurizer was trained before the inputs were checked")

        monkeypatch.setattr(DatabaseFeaturizer, "train_encoders", no_training)
        model = MTMLFQO(SMALL)
        with pytest.raises(ValueError, match="epochs"):
            transfer(model, db, EncoderBudget(3, 1), fine_tune=labeled[:4])
        assert db.name not in model.featurizers

    @pytest.mark.parametrize("field", ["joint_epochs", "fine_tune_epochs", "batch_size"])
    def test_mla_config_refuses_a_zero(self, field):
        with pytest.raises(ValueError, match=field):
            MLAConfig(**{field: 0})


class TestQErrorNodeLoss:
    def test_masked_positions_ignored(self):
        preds = nn.Tensor(np.zeros((1, 3)), requires_grad=True)
        targets = np.array([[1.0, 1.0, 1e6]])
        mask = np.array([[1.0, 1.0, 0.0]])
        loss = node_qerror_loss(preds, targets, mask=mask)
        assert loss.item() == pytest.approx(0.0)

    def test_floor_applied(self):
        preds = nn.Tensor(np.zeros((1, 1)), requires_grad=True)
        loss = node_qerror_loss(preds, np.array([[0.0]]))
        assert loss.item() == pytest.approx(0.0)
