"""Tests for the fleet's FedAvg merge and its (S)/(T)-only privacy filter."""

import numpy as np
import pytest

from repro.core import AggregationError, ModelConfig, MTMLFQO, aggregate_shared_states

TINY = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)


class TestSharedAggregation:
    def _server_state(self):
        return MTMLFQO(TINY).state_dict()

    def test_private_keys_are_never_merged(self):
        """Per-client featurizer entries are ignored by name, not
        averaged (the "(F) is never shared" contract) — and differing
        private key sets across clients cannot break the merge."""
        base = self._server_state()
        state_a = {k: np.zeros_like(v) for k, v in base.items()}
        state_b = {k: np.ones_like(v) for k, v in base.items()}
        state_a["featurizers.db_a.column_embedding.weight"] = np.full((3, 2), 7.0)
        state_b["featurizers.db_b.encoders.t1.weight"] = np.full((5,), 9.0)
        merged = aggregate_shared_states([state_a, state_b], [1.0, 1.0], reference=base)
        assert set(merged) == set(base)
        for value in merged.values():
            np.testing.assert_allclose(value, 0.5)

    def test_missing_shared_key_raises(self):
        base = self._server_state()
        state_a = {k: np.zeros_like(v) for k, v in base.items()}
        state_b = {k: np.ones_like(v) for k, v in base.items()}
        dropped = sorted(base)[0]
        del state_b[dropped]
        with pytest.raises(AggregationError, match="client 1.*missing"):
            aggregate_shared_states([state_a, state_b], [1.0, 1.0], reference=base)

    def test_shape_mismatch_raises(self):
        base = self._server_state()
        state_a = {k: np.zeros_like(v) for k, v in base.items()}
        state_b = {k: np.ones_like(v) for k, v in base.items()}
        mangled = sorted(base)[0]
        state_b[mangled] = np.ones(np.asarray(base[mangled]).size + 1)
        with pytest.raises(AggregationError, match="shape mismatch"):
            aggregate_shared_states([state_a, state_b], [1.0, 1.0], reference=base)

    def test_malformed_inputs_raise(self):
        base = self._server_state()
        state = {k: np.zeros_like(v) for k, v in base.items()}
        with pytest.raises(AggregationError, match="no client states"):
            aggregate_shared_states([], [], reference=base)
        with pytest.raises(AggregationError, match="weights"):
            aggregate_shared_states([state], [1.0, 2.0], reference=base)
        with pytest.raises(AggregationError, match="positive"):
            aggregate_shared_states([state], [0.0], reference=base)
        with pytest.raises(AggregationError, match="no shared"):
            aggregate_shared_states([{"private.w": np.ones(2)}], [1.0])

    def test_weighted_mean_with_reference(self):
        base = self._server_state()
        state_a = {k: np.zeros_like(v) for k, v in base.items()}
        state_b = {k: np.ones_like(v) for k, v in base.items()}
        merged = aggregate_shared_states([state_a, state_b], [1.0, 3.0], reference=base)
        for value in merged.values():
            np.testing.assert_allclose(value, 0.75)
