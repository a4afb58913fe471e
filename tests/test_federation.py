"""Tests for the federated multi-tenant serving fleet (repro.federation)."""

import dataclasses
import os
import tempfile
import threading

import numpy as np
import pytest

from helpers import count_decodes, count_executions
from lock_monitor import LockMonitor, instrument_collector, instrument_model, instrument_service
from repro.core import (
    DatabaseFeaturizer,
    EncoderBudget,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    query_signature,
)
from repro.datagen import generate_databases
from repro.eval import format_fleet_report, join_order_execution_time, worst_legal_order
from repro.federation import FleetCoordinator, FleetReport, TenantNode
from repro.obs import Telemetry
from repro.serve import AdaptationWorker, ExperienceBuffer, OptimizerService, RoundConfig
from repro.serve.adaptation import evaluate_regret_gate
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator, traffic_stream

TINY = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)


def tiny_fleet_config(**overrides) -> RoundConfig:
    defaults = dict(
        fine_tune_epochs=2,
        batch_size=8,
        min_new_experience=4,
        validation_fraction=0.25,
        poll_interval_s=0.05,
    )
    defaults.update(overrides)
    return RoundConfig(**defaults)


@pytest.fixture(scope="module")
def fixture():
    """Three tenant databases with featurizers + labeled pools, and a
    global (S)/(T) vector pre-trained on the first two tenants' pools."""
    dbs = generate_databases(3, base_seed=81, row_range=(60, 200), attr_range=(2, 3))
    tenants = []
    for i, db in enumerate(dbs):
        featurizer = DatabaseFeaturizer(db, TINY)
        featurizer.train_encoders(queries_per_table=3, epochs=1, seed=i)
        generator = WorkloadGenerator(db, WorkloadConfig(min_tables=3, max_tables=4, seed=20 + i))
        pool = [
            item
            for item in QueryLabeler(db).label_many(generator.generate(16), with_optimal_order=True)
            if item.optimal_order is not None
        ]
        assert len(pool) >= 8
        tenants.append((db, featurizer, pool))
    pretrain = MTMLFQO(TINY)
    for db, featurizer, _ in tenants[:2]:
        pretrain.attach_featurizer(db.name, featurizer)
    JointTrainer(pretrain).train(
        [(db.name, item) for db, _, pool in tenants[:2] for item in pool[:8]],
        epochs=2,
        batch_size=8,
    )
    return tenants, pretrain.weights.copy()


@pytest.fixture(scope="module")
def db_workload():
    """One small database and ten labeled queries over it."""
    (db,) = generate_databases(1, base_seed=70, row_range=(60, 200), attr_range=(2, 3))
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=3, seed=0))
    return db, QueryLabeler(db).label_many(generator.generate(10), with_optimal_order=True)


def make_tenant(db, featurizer, global_state, config, name=None, telemetry=None) -> TenantNode:
    model = MTMLFQO(TINY)
    model.load_weights(global_state)
    model.attach_featurizer(db.name, featurizer)
    return TenantNode(db, model, config=config, name=name, telemetry=telemetry)


# One config class serves both schedulers: the adaptation worker and
# every fleet tenant (and its coordinator) take a RoundConfig.
@pytest.mark.parametrize(
    "bad",
    [
        {"min_new_experience": 0},
        {"fine_tune_epochs": 0},
        {"batch_size": 0},
        {"validation_fraction": 1.0},
        {"regret_tolerance_ms": -1.0},
        {"regret_tolerance_ms": float("nan")},
        {"regret_tolerance_ms": float("inf")},
        {"max_intermediate_rows": 0},
        {"max_intermediate_rows": -5},
        {"poll_interval_s": 0.0},
        {"poll_interval_s": float("nan")},
        {"poll_interval_s": float("inf")},
        {"learning_rate": 0.0},
        {"learning_rate": -1e-3},
    ],
    ids=lambda bad: "{}={}".format(*next(iter(bad.items()))),
)
def test_round_knobs_are_validated(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        RoundConfig(**bad)


class TestTenantNode:
    def test_local_update_skips_below_threshold(self, fixture):
        tenants, global_state = fixture
        db, featurizer, pool = tenants[0]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config(min_new_experience=6))
        assert tenant.inject_experience(pool[:3]) == 3
        assert tenant.local_update(global_state) is None
        assert tenant.report().retrains == 0  # skipped: no fine-tune
        assert tenant.pending_experience() == 3  # nothing consumed

    def test_local_update_ships_shared_state_only(self, fixture):
        tenants, global_state = fixture
        db, featurizer, pool = tenants[0]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config())
        tenant.inject_experience(pool[:6])
        update = tenant.local_update(global_state)
        assert update is not None
        state, num_examples = update
        assert state.shape == tenant.live_model.weights.shape
        # The (S)/(T) vector is the privacy boundary: no (F) parameter,
        # the tenant's own or another's, lives in it.
        for p in featurizer.parameters():
            assert not np.shares_memory(p.data, state)
        assert not np.shares_memory(state, tenant.live_model.weights)
        assert 0 < num_examples < 6  # validation slice held out
        assert tenant.pending_experience() == 0
        assert tenant.report().retrains == 1  # one participation

    def test_optimizer_state_carries_across_local_rounds(self, fixture):
        tenants, global_state = fixture
        db, featurizer, pool = tenants[0]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config(fine_tune_epochs=1))
        tenant.inject_experience(pool[:4])
        tenant.local_update(global_state)
        first_t = tenant._optimizer_state["t"]
        tenant.inject_experience(pool[4:8])
        tenant.local_update(global_state)
        assert tenant._optimizer_state["t"] > first_t

    def test_inject_experience_dedups_by_signature(self, fixture):
        tenants, global_state = fixture
        db, featurizer, pool = tenants[1]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config())
        assert tenant.inject_experience(pool[:4]) == 4
        assert tenant.inject_experience(pool[:4]) == 0

    def test_private_model_draws_nothing_and_copies_once(self, fixture, monkeypatch):
        tenants, global_state = fixture
        db, featurizer, _ = tenants[0]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config())
        broadcast = global_state + 0.01
        copied = []
        load_weights = MTMLFQO.load_weights

        def counted(model, weights):
            copied.append(weights)
            load_weights(model, weights)

        def no_generator(*args, **kwargs):
            raise AssertionError("a private model built a generator to draw initial weights")

        monkeypatch.setattr(MTMLFQO, "load_weights", counted)
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        private = tenant.round.private_model(tenant.live_model, broadcast)
        assert len(copied) == 1 and copied[0] is broadcast
        np.testing.assert_array_equal(private.weights, broadcast)

    def test_private_model_is_broadcast_weights_on_a_disjoint_copy(self, fixture):
        tenants, global_state = fixture
        db, featurizer, pool = tenants[0]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config())
        live = tenant.live_model
        broadcast = global_state + 0.01
        private = tenant.round.private_model(live, broadcast)
        np.testing.assert_array_equal(private.weights, broadcast)
        # (S)/(T) arrays are disjoint; the frozen (F) is the live one.
        assert not np.shares_memory(private.weights, live.weights)
        for (_, live_param), (_, private_param) in zip(
            live.named_parameters(), private.named_parameters()
        ):
            assert not np.shares_memory(live_param.data, private_param.data)
        assert private.featurizer_for(db.name) is live.featurizer_for(db.name)
        assert private.featurizers is not live.featurizers
        assert private.version != live.version
        # Same decode as the hand-built equivalent: fresh model, broadcast
        # (S)/(T), the live featurizer attached.
        by_hand = MTMLFQO(TINY)
        by_hand.load_weights(broadcast)
        by_hand.attach_featurizer(db.name, live.featurizer_for(db.name))
        assert private.predict_join_orders(db.name, pool[:6]) == by_hand.predict_join_orders(
            db.name, pool[:6]
        )

    def test_consider_global_without_experience_keeps_live_model(self, fixture):
        tenants, global_state = fixture
        db, featurizer, _ = tenants[2]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config())
        live = tenant.live_model
        assert tenant.consider_global(global_state) is None
        assert tenant.live_model is live
        assert tenant.report().gates_unvalidated == 1

    def test_a_repeated_gate_reuses_the_live_arm(self, fixture, monkeypatch):
        """Two pushes of one rejected broadcast: the second gate decodes
        nothing with the unchanged live model and executes nothing, and
        both verdicts equal a carry-less gate's."""
        tenants, global_state = fixture
        db, featurizer, pool = tenants[0]
        tenant = make_tenant(db, featurizer, global_state, tiny_fleet_config())
        tenant.inject_experience(pool)
        live = tenant.live_model
        broadcast = -global_state
        assert tenant.consider_global(broadcast) is False
        first = tenant.last_gate
        decodes = count_decodes(monkeypatch)
        executions = count_executions(monkeypatch)
        assert tenant.consider_global(broadcast) is False
        assert tenant.live_model is live
        assert not any(model is live for model, _ in decodes) and not executions
        assert tenant.last_gate == first
        fresh = evaluate_regret_gate(
            db, live, tenant.round.private_model(live, broadcast),
            sorted(pool, key=lambda item: item.query.to_sql()),
            decode=tenant.service.config.decode_kwargs(),
        )
        assert fresh == first


class TestFleetRounds:
    def test_round_merges_checkpoints_and_pushes(self, fixture, tmp_path):
        tenants, global_state = fixture
        config = tiny_fleet_config(checkpoint_dir=str(tmp_path))
        fleet = FleetCoordinator(TINY, config)
        fleet.global_model.load_weights(global_state)
        for db, featurizer, pool in tenants[:2]:
            tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
            tenant.inject_experience(pool[:6])
        before = fleet.global_state()
        round_ = fleet.run_round()
        assert round_.merged
        assert sorted(name for name, _ in round_.participants) == sorted(
            db.name for db, _, _ in tenants[:2]
        )
        assert round_.checkpoint_path is not None and round_.checkpoint_path.endswith(".npz")
        import os

        assert os.path.exists(round_.checkpoint_path)
        gated = set(round_.accepted) | set(round_.rejected) | set(round_.unvalidated)
        assert gated == {db.name for db, _, _ in tenants[:2]}
        if not round_.reverted:
            after = fleet.global_state()
            assert not np.array_equal(before, after)
        # Accepted tenants actually serve the merged model.
        for name in round_.accepted:
            tenant = fleet.tenants[name]
            np.testing.assert_array_equal(tenant.live_model.weights, fleet.global_state())

    def test_every_gated_tenant_records_one_verdict_event(self, fixture):
        """Fleet pushes leave the same lineage record a worker cycle
        does: one gate.accept / gate.reject event per gated tenant."""
        tenants, global_state = fixture
        telemetry = Telemetry()
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config, telemetry=telemetry) as fleet:
            fleet.global_model.load_weights(global_state)
            for (db, featurizer, pool), fresh in zip(tenants, (6, 2, 0)):
                tenant = fleet.register(
                    make_tenant(db, featurizer, global_state, config, telemetry=telemetry)
                )
                tenant.inject_experience(pool[:fresh])
            round_ = fleet.run_round()
        assert len(round_.participants) == 1 and len(round_.unvalidated) == 1
        events = [
            span for span in telemetry.tracer.spans() if span.name in ("gate.accept", "gate.reject")
        ]
        # The tenant with nothing to validate on records no verdict.
        assert sorted(span.attrs["name"] for span in events) == sorted(
            round_.accepted + round_.rejected
        )
        assert len(events) == 2
        for span in events:
            name = span.attrs["name"]
            assert (span.name == "gate.accept") == (name in round_.accepted)
            gate = fleet.tenants[name].last_gate
            assert span.attrs["validation_count"] == gate.validation_count
            assert span.attrs["live_regret_ms"] == round(gate.live_regret_ms, 3)
            assert span.attrs["candidate_regret_ms"] == round(gate.candidate_regret_ms, 3)

    def test_round_without_fresh_experience_is_a_noop(self, fixture):
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_weights(global_state)
            db, featurizer, _ = tenants[0]
            fleet.register(make_tenant(db, featurizer, global_state, config))
            before = fleet.global_state()
            round_ = fleet.run_round()
            assert not round_.merged
            assert round_.checkpoint_path is None
            assert round_.skipped == [db.name]
            np.testing.assert_array_equal(before, fleet.global_state())

    def test_onboard_deploys_global_zero_shot(self, fixture):
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_weights(global_state)
            db, featurizer, pool = tenants[2]
            tenant = fleet.onboard(db, featurizer)
            assert tenant.name in fleet.tenants
            # Zero-shot: the tenant's (S)/(T) is exactly the global state.
            np.testing.assert_array_equal(tenant.live_model.weights, fleet.global_state())
            with tenant:
                order = tenant.optimize(pool[0])
            assert sorted(order) == sorted(pool[0].query.tables)

    def test_onboard_trains_f_from_a_budget(self, fixture):
        """``onboard(db, encoder)`` hands ``encoder`` to ``transfer`` as
        is: a budget trains the tenant's (F) under the round seed."""
        tenants, global_state = fixture
        config = tiny_fleet_config(seed=3)
        db, _, _ = tenants[2]
        budget = EncoderBudget(3, 1)
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_weights(global_state)
            tenant = fleet.onboard(db, budget)
        expected = budget.train(db, TINY, seed=3).state_dict()
        trained = tenant.live_model.featurizer_for(db.name).state_dict()
        assert trained.keys() == expected.keys()
        for name, value in expected.items():
            np.testing.assert_array_equal(trained[name], value, err_msg=name)

    def test_duplicate_registration_rejected(self, fixture):
        tenants, global_state = fixture
        config = tiny_fleet_config()
        fleet = FleetCoordinator(TINY, config)
        db, featurizer, _ = tenants[0]
        fleet.register(make_tenant(db, featurizer, global_state, config))
        with pytest.raises(ValueError, match="already registered"):
            fleet.register(make_tenant(db, featurizer, global_state, config))

    def test_registration_refuses_another_parameter_layout(self, fixture):
        """A tenant whose (S)/(T) layout (names and shapes, in order)
        differs from the global model's is refused at the door: no
        round can average its vector with the fleet's."""
        tenants, _ = fixture
        db, featurizer, _ = tenants[0]
        deeper = MTMLFQO(dataclasses.replace(TINY, shared_layers=2))
        deeper.attach_featurizer(db.name, featurizer)
        fleet = FleetCoordinator(TINY, tiny_fleet_config())
        with pytest.raises(ValueError, match="layout"):
            fleet.register(TenantNode(db, deeper, config=fleet.config))
        assert not fleet.tenants

    def test_poisoned_tenant_round_is_gate_blocked(self, fixture):
        """A tenant trained on worst-order labels cannot reach any live
        model: every gate rejects, the swap never happens, and the
        coordinator reverts the global lineage."""
        tenants, global_state = fixture
        config = tiny_fleet_config(validation_fraction=0.4)
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_weights(global_state)
            nodes = []
            for db, featurizer, pool in tenants[:2]:
                tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
                tenant.inject_experience(pool[:6])
                nodes.append(tenant)
            fleet.run_round()  # healthy round; consumes all fresh experience

            # Poison tenant 1 with fresh (unseen-signature) experience
            # whose JoinSel labels are the worst sampled legal orders,
            # fine-tuned hot (big lr, many epochs) so the divergence is
            # unmistakable on every database.
            config.learning_rate = 0.05
            config.fine_tune_epochs = 15
            poison_db, _, poison_pool = tenants[1]
            poisoned = [
                dataclasses.replace(item, optimal_order=worst_legal_order(poison_db, item))
                for item in poison_pool[6:14]
            ]
            assert nodes[1].inject_experience(poisoned) >= config.min_new_experience

            live_before = [node.live_model for node in nodes]
            orders_before = [
                [node.live_model.predict_join_order(db.name, item) for item in pool[:6]]
                for node, (db, _, pool) in zip(nodes, tenants[:2])
            ]
            global_before = fleet.global_state()

            round_ = fleet.run_round()
            assert [name for name, _ in round_.participants] == [poison_db.name]
            assert not round_.accepted
            assert round_.reverted
            # Every live model — and every served order — is unchanged.
            for node, live in zip(nodes, live_before):
                assert node.live_model is live
            orders_after = [
                [node.live_model.predict_join_order(db.name, item) for item in pool[:6]]
                for node, (db, _, pool) in zip(nodes, tenants[:2])
            ]
            assert orders_after == orders_before
            # The poisoned merge did not linger in the global lineage.
            np.testing.assert_array_equal(global_before, fleet.global_state())

    def test_crashing_tenant_is_recorded_not_silent(self, fixture):
        """A tenant whose local update raises lands in round.failed (not
        'skipped'), the counter bumps, and the rest of the round runs."""
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_weights(global_state)
            healthy_db, healthy_featurizer, healthy_pool = tenants[0]
            healthy = fleet.register(
                make_tenant(healthy_db, healthy_featurizer, global_state, config)
            )
            healthy.inject_experience(healthy_pool[:6])
            broken_db, broken_featurizer, broken_pool = tenants[1]
            broken = fleet.register(
                make_tenant(broken_db, broken_featurizer, global_state, config)
            )
            broken.inject_experience(broken_pool[:6])
            broken.local_update = lambda *_: (_ for _ in ()).throw(RuntimeError("boom"))
            round_ = fleet.run_round()
            assert round_.failed == [broken.name]
            assert [name for name, _ in round_.participants] == [healthy.name]
            assert fleet.report().tenant_failures >= 1
            assert round_.merged  # the healthy tenant's round still landed

    def test_reverted_round_returns_harvest_credit(self, fixture):
        """When every gate rejects a round, participants get their fresh
        experience back — the deduped buffer cannot re-admit it, so the
        cursor must roll back for a future round to retrain on it."""
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_weights(global_state)
            db, featurizer, pool = tenants[0]
            tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
            tenant.inject_experience(pool[:6])
            pending_before = tenant.pending_experience()
            # Force unanimous rejection regardless of model quality.
            original = tenant.consider_global
            tenant.consider_global = lambda *_: False
            try:
                round_ = fleet.run_round()
            finally:
                tenant.consider_global = original
            assert round_.reverted
            assert tenant.pending_experience() == pending_before
            # The rejected merge's checkpoint is withdrawn from the
            # lineage along with the in-memory state.
            assert round_.checkpoint_path is None

    def test_zero_verdict_round_is_never_published(self, fixture):
        """If every gate raises (no verdict at all), the merge must not
        land: publishing a state nobody measured would bypass the gate
        safeguard entirely."""
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_weights(global_state)
            db, featurizer, pool = tenants[0]
            tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
            tenant.inject_experience(pool[:6])
            pending_before = tenant.pending_experience()
            before = fleet.global_state()
            tenant.consider_global = lambda *_: (_ for _ in ()).throw(RuntimeError("gate down"))
            round_ = fleet.run_round()
            assert round_.reverted
            assert tenant.name in round_.failed
            assert round_.checkpoint_path is None
            assert tenant.pending_experience() == pending_before
            np.testing.assert_array_equal(before, fleet.global_state())

    def test_three_rounds_keep_one_fleet_round(self, fixture):
        """Only the latest round is retained: a caller can run rounds
        forever without the coordinator's memory growing per round."""
        import gc
        import weakref

        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            db, featurizer, _ = tenants[0]
            fleet.register(make_tenant(db, featurizer, global_state, config))
            refs = [weakref.ref(fleet.run_round()) for _ in range(3)]
            gc.collect()
            assert [ref() is not None for ref in refs] == [False, False, True]
            report = fleet.report()
            assert report.rounds == 3
            assert report.last_round is refs[-1]() and report.last_round.index == 2

    def test_one_tenant_fleet_matches_adaptation_worker(self, db_workload, tmp_path):
        """The two schedulers over the training round are one algorithm:
        same experience, start weights and round config → a one-tenant
        fleet after two rounds and a worker after two cycles (fresh
        experience in between) hold byte-equal (S)/(T) weights."""
        db, workload = db_workload
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
            service, db, buffer, RoundConfig(checkpoint_dir=str(tmp_path / "w"), **round_config)
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

        adapted = service.session.model.state_dict()
        federated = tenant.live_model.state_dict()
        assert any(not np.array_equal(adapted[name], start[name]) for name in adapted)
        for name, value in adapted.items():
            np.testing.assert_array_equal(federated[name], value, err_msg=name)
        np.testing.assert_array_equal(fleet.global_state(), service.session.model.weights)


class TestCheckpointDir:
    """The two checkpoint owners, an AdaptationWorker and a
    FleetCoordinator, share one directory rule: a private temp dir they
    made is removed when they finish, a configured one never is."""

    @pytest.mark.threaded
    @pytest.mark.parametrize("configured", [False, True], ids=["private", "configured"])
    def test_owners_remove_only_a_private_dir(self, fixture, tmp_path, configured):
        tenants, global_state = fixture
        db, featurizer, pool = tenants[0]
        config = tiny_fleet_config(
            regret_tolerance_ms=1e12,
            checkpoint_dir=str(tmp_path / "kept") if configured else None,
        )

        def checkpoint_dir(path: str) -> str:
            assert os.path.exists(path)
            directory = os.path.dirname(path)
            if configured:
                assert directory == config.checkpoint_dir
            else:
                assert directory.startswith(tempfile.gettempdir())
            return directory

        model = MTMLFQO(TINY)
        model.load_weights(global_state)
        model.attach_featurizer(db.name, featurizer)
        buffer = ExperienceBuffer(64)
        with OptimizerService(model, db.name) as service:
            worker = AdaptationWorker(service, db, buffer, config)
            for item in pool[:4]:
                buffer.add(query_signature(item.query), item)
            assert worker.run_once()
            first_gate = worker.last_gate
            first_dir = checkpoint_dir(first_gate.checkpoint_path)
            steps = worker._trajectory[0]["t"]
            worker.stop()
            assert os.path.isdir(first_dir) == configured

            # Restarted, the background loop fires the next cycle, which
            # continues the first cycle's Adam moments.
            for item in pool[4:8]:
                buffer.add(query_signature(item.query), item)
            with worker:
                for _ in range(600):  # up to 30 s
                    if worker.last_gate is not first_gate:
                        break
                    threading.Event().wait(0.05)
                assert worker.last_gate is not first_gate, "the restarted loop fired no cycle"
                assert worker.last_gate.accepted
                second_dir = checkpoint_dir(worker.last_gate.checkpoint_path)
            assert os.path.isdir(second_dir) == configured
        # 3 then 6 training examples at batch 8, two epochs each: two
        # steps per cycle, so a resumed trajectory doubles the count.
        assert worker._trajectory[0]["t"] == 2 * steps

        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_weights(global_state)
            tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
            tenant.inject_experience(pool[:6])
            round_ = fleet.run_round()
            assert round_.accepted == [tenant.name]
            fleet_dir = checkpoint_dir(round_.checkpoint_path)
        assert os.path.isdir(fleet_dir) == configured


class TestFleetReport:
    def test_report_merges_tenants(self, fixture):
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_weights(global_state)
            nodes = []
            for db, featurizer, pool in tenants[:2]:
                tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
                tenant.inject_experience(pool[:4])
                nodes.append((tenant, pool))
            for tenant, pool in nodes:
                with tenant:
                    for _, item in traffic_stream(pool[:4], occurrences=2, seed=3):
                        tenant.optimize(item)
            fleet.run_round()
            report = fleet.report()
            assert isinstance(report, FleetReport)
            assert report.num_tenants == 2
            assert report.completed == sum(r.completed for r in report.tenants.values())
            assert report.completed == 16
            assert report.rounds == 1
        # Fleet totals are sums of the tenants' ServingReports, which read
        # the registry the tenants' rounds recorded into.
        for name in ("retrains", "swaps_accepted", "swaps_rejected", "gates_unvalidated", "swaps"):
            assert getattr(report, name) == sum(
                getattr(tenant_report, name) for tenant_report in report.tenants.values()
            ), name
        round_ = report.last_round
        assert report.retrains == len(round_.participants) == 2
        assert (report.swaps_accepted, report.swaps_rejected, report.gates_unvalidated) == (
            len(round_.accepted), len(round_.rejected), len(round_.unvalidated)
        )

    def test_report_and_snapshot_read_the_same_totals(self, fixture):
        """One reverted round with one crashing tenant: ``report()`` and a
        telemetry snapshot show the same four fleet totals (one store)."""
        tenants, global_state = fixture
        config = tiny_fleet_config()
        telemetry = Telemetry()
        with FleetCoordinator(TINY, config, telemetry=telemetry) as fleet:
            fleet.global_model.load_weights(global_state)
            db, featurizer, pool = tenants[0]
            tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
            tenant.inject_experience(pool[:6])
            tenant.consider_global = lambda *_: (_ for _ in ()).throw(RuntimeError("gate down"))
            assert fleet.run_round().reverted
            report = fleet.report()
        metrics = {
            entry["name"]: entry["value"]
            for entry in telemetry.snapshot()["metrics"]
            if entry["kind"] == "counter" and not entry["labels"]
        }
        totals = {
            "fleet.rounds": report.rounds,
            "fleet.reverted_rounds": report.reverted_rounds,
            "fleet.tenant_failures": report.tenant_failures,
        }
        assert totals == {name: metrics[name] for name in totals}
        assert (report.rounds, report.reverted_rounds, report.tenant_failures) == (1, 1, 1)

    def test_format_fleet_report_renders(self, fixture):
        tenants, global_state = fixture
        config = tiny_fleet_config()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_weights(global_state)
            for db, featurizer, pool in tenants[:2]:
                tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
                tenant.inject_experience(pool[:5])
            fleet.run_round()
            text = format_fleet_report(fleet.report())
        assert "Federated fleet report" in text
        assert "federated rounds" in text
        assert "global-model gates" in text
        for db, _, _ in tenants[:2]:
            assert f"tenant {db.name!r}" in text

    def test_empty_fleet_report_renders(self):
        text = format_fleet_report(FleetReport())
        assert "tenants" in text and "0" in text


@pytest.mark.threaded
class TestFleetStress:
    def test_concurrent_traffic_with_mid_round_swap(self, fixture):
        """Two tenants under multi-threaded traffic while a federated
        round (fine-tune + gate + hot-swap) runs concurrently: every
        request is answered exactly once with a legal permutation."""
        tenants, global_state = fixture
        config = tiny_fleet_config(fine_tune_epochs=3, regret_tolerance_ms=1e9)
        # One lock-order graph spans every tenant's service mutex,
        # collector mutex and serving model inference lock: a cross-layer
        # inversion introduced anywhere in the fleet fails this test.
        lock_monitor = LockMonitor()
        with FleetCoordinator(TINY, config) as fleet:
            fleet.global_model.load_weights(global_state)
            nodes = []
            for db, featurizer, pool in tenants[:2]:
                tenant = fleet.register(make_tenant(db, featurizer, global_state, config))
                instrument_model(tenant.live_model, lock_monitor, name=f"model[{tenant.name}]")
                instrument_service(tenant.service, lock_monitor)
                instrument_collector(tenant.collector, lock_monitor)
                tenant.inject_experience(pool[:6])
                nodes.append((tenant, pool))

            errors: list[BaseException] = []
            responses: dict[tuple, list[str]] = {}
            lock = threading.Lock()

            def client(tenant, pool, worker_index):
                stream = traffic_stream(pool, occurrences=3, seed=worker_index)
                for slot, (index, item) in enumerate(stream):
                    try:
                        order = tenant.optimize(item, timeout=60)
                    except BaseException as error:
                        with lock:
                            errors.append(error)
                        return
                    with lock:
                        responses[(tenant.name, worker_index, slot)] = (index, order)

            threads = []
            for tenant, pool in nodes:
                tenant.start()
                for worker_index in range(4):
                    threads.append(
                        threading.Thread(target=client, args=(tenant, pool, worker_index))
                    )
            for thread in threads:
                thread.start()
            # The round runs while traffic flows: the tolerance forces
            # an accept so the hot-swap genuinely lands mid-traffic.
            round_ = fleet.run_round()
            for thread in threads:
                thread.join()
            for tenant, _ in nodes:
                tenant.stop()

            assert not errors, errors[:3]
            expected = sum(len(pool) * 3 * 4 for _, pool in nodes)
            assert len(responses) == expected
            pools = {tenant.name: pool for tenant, pool in nodes}
            for (tenant_name, _, _), (index, order) in responses.items():
                item = pools[tenant_name][index]
                assert sorted(order) == sorted(item.query.tables)
            assert round_.merged
            assert round_.accepted  # the tolerance guarantees swaps landed
            lock_monitor.assert_clean()  # no inversion across the fleet's locks
