"""Tests for the fleet's FedAvg merge over (S)/(T) vectors."""

import dataclasses

import numpy as np
import pytest

import reference_ops
from repro.core import (
    AggregationError,
    DatabaseFeaturizer,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    aggregate_shared_states,
)
from repro.datagen import generate_database
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

TINY = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)


@pytest.fixture(scope="module")
def trained():
    """Three models trained from different seeds on different batches of
    one small database, as three tenants' local updates would be."""
    db = generate_database(seed=4, num_tables=4, row_range=(60, 150), attr_range=(2, 3))
    featurizer = DatabaseFeaturizer(db, TINY)
    featurizer.train_encoders(queries_per_table=3, epochs=1)
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=3))
    items = QueryLabeler(db).label_many(generator.generate(12), with_optimal_order=True)
    models = []
    for seed in range(3):
        model = MTMLFQO(dataclasses.replace(TINY, seed=seed))
        model.attach_featurizer(db.name, featurizer)
        JointTrainer(model).train([(db.name, item) for item in items[seed::3]], epochs=2, batch_size=4)
        models.append(model)
    return models, featurizer


class TestSharedAggregation:
    def test_the_vector_holds_every_shared_parameter_and_no_featurizer_one(self, trained):
        """What a tenant ships and the merge averages is the privacy
        boundary by construction: every (S)/(T) parameter is a view into
        the model's vector, and no (F) parameter is."""
        models, featurizer = trained
        model = models[0]
        assert model.parameters() and all(
            np.shares_memory(p.data, model.weights) for p in model.parameters()
        )
        assert not any(np.shares_memory(p.data, model.weights) for p in featurizer.parameters())

    def test_shape_mismatch_raises(self):
        """Vectors of different shapes are never broadcast: the merge
        names the client, and a model refuses to load such a vector."""
        base = MTMLFQO(TINY).weights
        with pytest.raises(AggregationError, match="client 1 vector has shape"):
            aggregate_shared_states([base, base[:-1]], [1.0, 1.0])
        with pytest.raises(AggregationError, match="client 1 vector has shape"):
            aggregate_shared_states([base, base[:1]], [1.0, 1.0])
        model = MTMLFQO(TINY)
        before = model.weights.copy()
        for wrong in (np.ones(1), base[:-1], base.reshape(-1, 8)):
            with pytest.raises(ValueError, match="shape"):
                model.load_weights(wrong)
        np.testing.assert_array_equal(model.weights, before)

    def test_malformed_inputs_raise(self):
        state = MTMLFQO(TINY).weights
        with pytest.raises(AggregationError, match="no client states"):
            aggregate_shared_states([], [])
        with pytest.raises(AggregationError, match="weights"):
            aggregate_shared_states([state], [1.0, 2.0])
        with pytest.raises(AggregationError, match="positive"):
            aggregate_shared_states([state], [0.0])

    def test_weighted_mean_with_reference(self):
        base = MTMLFQO(TINY).weights
        merged = aggregate_shared_states([np.zeros_like(base), np.ones_like(base)], [1.0, 3.0])
        np.testing.assert_allclose(merged, 0.75)

    def test_vector_merge_is_bytewise_the_per_name_loop(self, trained):
        """Three trained states, unequal weights, in tenant order: the
        vector merge equals the per-name FedAvg byte for byte."""
        models, _ = trained
        weights = [7.0, 2.0, 5.0]
        merged = aggregate_shared_states([model.weights for model in models], weights)
        expected = reference_ops.fedavg([model.state_dict() for model in models], weights)
        loaded = MTMLFQO(TINY)
        loaded.load_weights(merged)
        state = loaded.state_dict()
        assert state.keys() == expected.keys()
        for name, value in expected.items():
            assert state[name].tobytes() == value.tobytes(), name
