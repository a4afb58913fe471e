"""Tests for federated MLA (the paper's Section 7 research opportunity)."""

import numpy as np
import pytest

from repro.core import (
    AggregationError,
    EncoderBudget,
    FederatedClient,
    FederatedConfig,
    FederatedTrainer,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    SHARED_MODULE_PREFIXES,
    aggregate_shared_states,
    transfer,
)
from repro.datagen import generate_databases
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

TINY = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)
FED = FederatedConfig(rounds=2, local_epochs=1, encoder=EncoderBudget(3, 1))


@pytest.fixture(scope="module")
def clients():
    dbs = generate_databases(3, base_seed=70, row_range=(60, 200), attr_range=(2, 3))
    out = []
    for i, db in enumerate(dbs):
        generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=3, seed=i))
        workload = QueryLabeler(db).label_many(generator.generate(10), with_optimal_order=True)
        out.append(FederatedClient(db=db, workload=workload))
    return out


class TestFederatedTraining:
    def test_rounds_run_and_losses_finite(self, clients):
        trainer = FederatedTrainer(TINY, FED)
        losses = trainer.train(clients[:2])
        assert len(losses) == FED.rounds
        assert all(np.isfinite(l) for l in losses)

    def test_server_weights_change(self, clients):
        trainer = FederatedTrainer(TINY, FED)
        before = {k: v.copy() for k, v in trainer.server_model.state_dict().items()}
        trainer.train(clients[:2])
        after = trainer.server_model.state_dict()
        changed = any(not np.array_equal(before[k], after[k]) for k in before)
        assert changed

    def test_featurizers_stay_local(self, clients):
        """Only (S)/(T) travel: featurizer parameters are never averaged."""
        trainer = FederatedTrainer(TINY, FED)
        trainer.train(clients[:2])
        feat_a = clients[0].featurizer
        feat_b = clients[1].featurizer
        names_a = {n for n, _ in feat_a.named_parameters()}
        server_names = {n for n, _ in trainer.server_model.named_parameters()}
        assert not any(name in server_names for name in names_a)
        # Different clients keep genuinely different featurizers.
        assert feat_a is not feat_b

    def test_aggregate_is_weighted_mean(self):
        trainer = FederatedTrainer(TINY, FED)
        base = trainer.server_model.state_dict()
        state_a = {k: np.zeros_like(v) for k, v in base.items()}
        state_b = {k: np.ones_like(v) for k, v in base.items()}
        trainer._aggregate([state_a, state_b], weights=[1.0, 3.0])
        merged = trainer.server_model.state_dict()
        for value in merged.values():
            np.testing.assert_allclose(value, 0.75)

    def test_transfer_to_new_db(self, clients):
        trainer = FederatedTrainer(TINY, FED)
        trainer.train(clients[:2])
        new_client = clients[2]
        transfer(trainer.server_model, new_client.db, FED.encoder, seed=FED.seed)
        item = new_client.workload[0]
        order = trainer.server_model.predict_join_order(new_client.db.name, item)
        assert sorted(order) == sorted(item.query.tables)

    def test_empty_clients_rejected(self):
        trainer = FederatedTrainer(TINY, FED)
        with pytest.raises(ValueError):
            trainer.train([])

    def test_empty_workload_rejected(self, clients):
        trainer = FederatedTrainer(TINY, FED)
        broken = FederatedClient(db=clients[0].db, workload=[])
        with pytest.raises(ValueError):
            trainer.train([broken])

    def test_single_client_round_matches_local_training(self, clients):
        """One client, one round: FedAvg degenerates to plain local
        training — bit-identical to a JointTrainer run from the same
        starting weights with the same seed."""
        fed = FederatedConfig(rounds=1, local_epochs=1, encoder=EncoderBudget(3, 1))
        trainer = FederatedTrainer(TINY, fed)
        client = clients[0]
        initial = {k: v.copy() for k, v in trainer.server_model.state_dict().items()}
        trainer.train([client])

        reference = MTMLFQO(TINY)
        reference.attach_featurizer(client.db.name, client.featurizer)
        reference.load_state_dict(initial)
        JointTrainer(reference).train(
            [(client.db.name, item) for item in client.workload],
            epochs=fed.local_epochs,
            batch_size=fed.batch_size,
            seed=fed.seed,
        )
        server = trainer.server_model.state_dict()
        for name, value in reference.state_dict().items():
            np.testing.assert_array_equal(server[name], value, err_msg=name)

    def test_one_tenant_fleet_matches_adaptation_worker(self, clients, tmp_path):
        """The two schedulers over the training round are one algorithm:
        same experience, start weights and round config → a one-tenant
        fleet after two rounds and a worker after two cycles (fresh
        experience in between) hold byte-equal (S)/(T) weights."""
        from repro.core import DatabaseFeaturizer, shared_state_dict
        from repro.core.serializer import query_signature
        from repro.federation import FleetCoordinator, TenantNode
        from repro.serve import AdaptationConfig, AdaptationWorker, ExperienceBuffer, OptimizerService, RoundConfig

        db, workload = clients[0].db, clients[0].workload
        featurizer = DatabaseFeaturizer(db, TINY)
        featurizer.train_encoders(queries_per_table=3, epochs=1)
        start = MTMLFQO(TINY).state_dict()
        round_config = dict(
            min_new_experience=4, fine_tune_epochs=2, batch_size=4, seed=5,
            validation_fraction=0.25, regret_tolerance_ms=1e12,
        )

        def serving_model():
            model = MTMLFQO(TINY)
            model.load_state_dict(start)
            model.attach_featurizer(db.name, featurizer)
            return model

        service = OptimizerService(serving_model(), db.name)
        buffer = ExperienceBuffer(64)
        worker = AdaptationWorker(
            service, db, buffer, AdaptationConfig(checkpoint_dir=str(tmp_path / "w"), **round_config)
        )
        fleet_config = RoundConfig(checkpoint_dir=str(tmp_path / "f"), **round_config)
        fleet = FleetCoordinator(TINY, fleet_config)
        fleet.global_model.load_state_dict(start)
        tenant = fleet.register(TenantNode(db, serving_model(), config=fleet_config))

        for fresh in (workload[:6], workload[6:]):
            for item in fresh:
                assert buffer.add(query_signature(item.query), item)
            assert tenant.inject_experience(fresh) == len(fresh)
            assert worker.run_once()
            assert fleet.run_round().accepted == [tenant.name]

        adapted = shared_state_dict(service.session.model)
        federated = shared_state_dict(tenant.live_model)
        assert any(not np.array_equal(adapted[name], start[name]) for name in adapted)
        for name, value in adapted.items():
            np.testing.assert_array_equal(federated[name], value, err_msg=name)
            np.testing.assert_array_equal(fleet.global_state()[name], value, err_msg=name)

    def test_client_optimizer_state_persists_across_rounds(self, clients):
        """Round 2 resumes each client's Adam moments (name-keyed) rather
        than re-warming from zero: the step counter keeps counting."""
        fed = FederatedConfig(rounds=2, local_epochs=1, encoder=EncoderBudget(3, 1))
        trainer = FederatedTrainer(TINY, fed)
        trainer.train(clients[:1])
        saved = trainer._client_optimizer_state[clients[0].db.name]
        # 10 examples / batch 16 = 1 step per epoch, 1 epoch per round,
        # 2 rounds: a fresh-Adam-per-round rebuild would end at t == 1.
        assert saved["t"] == 2
        assert all(key.startswith(SHARED_MODULE_PREFIXES) for key in saved["m"])


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
