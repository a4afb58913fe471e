"""The online-adaptation loop: feedback collection, guarded retraining.

Covers the closed loop the ISSUE's tentpole builds: served orders are
executed into experience (``FeedbackCollector`` + ``ExperienceBuffer``),
an ``AdaptationWorker`` fine-tunes a clone of the live model on the
fresh experience (continuing its last accepted cycle's Adam moments),
and hot-swaps the serving model only when the join-order-regret
regression gate passes.  The drift scenario
is fixed: the live model is trained on small (2-3 table) queries, then
traffic shifts to 4-6 table queries over a skewed database — exactly
the situation where frozen weights decay and feedback-driven adaptation
pays off.
"""

import collections
import dataclasses
import random
import threading

import numpy as np
import pytest

from helpers import count_decodes, count_executions, poison_batch_losses, spanning_join_order
from repro.core import JointTrainer, ModelConfig, MTMLFQO
from repro.core.encoders import DatabaseFeaturizer
from repro.core.serializer import plan_signature, query_signature
from repro.datagen import generate_database
from repro.eval import join_order_execution_time, worst_legal_order
from repro.obs import Telemetry, render_snapshot
from repro.serve import (
    AdaptationConfig,
    AdaptationWorker,
    ExperienceBuffer,
    FeedbackCollector,
    FeedbackConfig,
    OptimizerService,
    ServeConfig,
)
from repro.serve import adaptation
from repro.serve.adaptation import TrainRound, evaluate_regret_gate, split_experience
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

SMALL = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)

pytestmark = pytest.mark.threaded


@pytest.fixture(scope="module")
def db():
    # Skewed foreign keys: join order genuinely matters, so a model that
    # adapts to the drifted workload shows up in simulated latency.
    return generate_database(
        seed=9, num_tables=6, row_range=(150, 600), attr_range=(2, 3),
        fk_skew=1.3, fk_correlation=0.8,
    )


@pytest.fixture(scope="module")
def featurizer(db):
    feat = DatabaseFeaturizer(db, SMALL)
    feat.train_encoders(queries_per_table=4, epochs=2)
    return feat


@pytest.fixture(scope="module")
def phase1(db):
    """Pre-drift workload: small queries the live model was trained on."""
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=3, seed=7))
    labeler = QueryLabeler(db, max_intermediate_rows=2_000_000)
    items = [i for i in labeler.label_many(generator.generate(24), with_optimal_order=True)
             if i.optimal_order is not None]
    assert len(items) >= 10
    return items[:10]


@pytest.fixture(scope="module")
def phase2(db):
    """Post-drift workload: bigger, LIKE-heavy queries."""
    generator = WorkloadGenerator(
        db,
        WorkloadConfig(min_tables=4, max_tables=6, seed=21,
                       like_probability=0.6, filter_probability=0.8),
    )
    labeler = QueryLabeler(db, max_intermediate_rows=2_000_000)
    items = [i for i in labeler.label_many(generator.generate(30), with_optimal_order=True)
             if i.optimal_order is not None]
    assert len(items) >= 14
    return items[:16]


@pytest.fixture()
def weak_model(db, featurizer, phase1):
    """The pre-drift serving model (knows phase 1, not phase 2)."""
    model = MTMLFQO(SMALL)
    model.attach_featurizer(db.name, featurizer)
    JointTrainer(model).train([(db.name, item) for item in phase1], epochs=4, batch_size=8)
    return model


@pytest.fixture()
def strong_model(db, featurizer, phase2):
    """A live model that is *good* on the drifted pool: a retrain on
    poisoned labels makes the candidate measurably worse, not
    accidentally better."""
    model = MTMLFQO(SMALL)
    model.attach_featurizer(db.name, featurizer)
    JointTrainer(model).train([(db.name, item) for item in phase2], epochs=8, batch_size=8)
    return model


def fill_buffer(buffer, items):
    for item in items:
        assert buffer.add(query_signature(item.query), item)


def poisoned_buffer(db, items) -> ExperienceBuffer:
    """``items`` as experience labeled with their worst sampled legal orders."""
    buffer = ExperienceBuffer(64)
    for item in items:
        poisoned = dataclasses.replace(item, optimal_order=worst_legal_order(db, item))
        assert buffer.add(query_signature(item.query), poisoned)
    return buffer


class TestExperienceBuffer:
    def _item(self, phase2, index):
        return phase2[index % len(phase2)]

    def test_dedup_by_signature(self, phase2):
        buffer = ExperienceBuffer(capacity=8)
        item = self._item(phase2, 0)
        sig = query_signature(item.query)
        assert buffer.add(sig, item)
        assert not buffer.add(sig, item)
        assert len(buffer) == 1
        assert buffer.added == 1
        assert sig in buffer

    def test_bound_evicts_oldest(self, phase2):
        buffer = ExperienceBuffer(capacity=3)
        for index in range(5):
            item = self._item(phase2, index)
            buffer.add(query_signature(item.query), item)
        assert len(buffer) == 3  # two evicted
        assert buffer.added == 5  # monotonic: eviction does not un-count
        snapshot = buffer.snapshot()
        assert [i.query.to_sql() for i in snapshot] == [
            self._item(phase2, index).query.to_sql() for index in (2, 3, 4)
        ]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ExperienceBuffer(capacity=0)


@pytest.mark.parametrize(
    "bad",
    [
        {"buffer_capacity": 0},
        {"max_intermediate_rows": 0},
        {"max_intermediate_rows": -5},
    ],
    ids=lambda bad: "{}={}".format(*next(iter(bad.items()))),
)
def test_feedback_knobs_are_validated(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        FeedbackConfig(**bad)


class TestFeedbackCollector:
    def test_served_orders_become_experience(self, db, phase2):
        collector = FeedbackCollector(db, FeedbackConfig(max_intermediate_rows=2_000_000))
        with collector:
            for item in phase2[:4]:
                order = spanning_join_order(
                    db.join_schema, item.query.tables, start=item.query.tables[0]
                )
                assert collector.submit(item, order)
            assert collector.drain(timeout=60)
        assert len(collector.buffer) == 4
        for experience in collector.buffer.snapshot():
            assert experience.extras["source"] == "feedback"
            assert experience.plan.leaf_tables_in_order() == experience.extras["served_order"]
            assert experience.optimal_order is not None  # small queries: ECQO ran
            assert experience.num_nodes == 2 * experience.query.num_tables - 1
        assert collector.buffer.added == 4
        assert collector.stats.snapshot().feedback_rejected == 0

    def test_duplicate_submissions_dedup_without_execution(self, db, phase2):
        item = phase2[0]
        order = spanning_join_order(db.join_schema, item.query.tables, start=item.query.tables[0])
        collector = FeedbackCollector(db)
        with collector:
            assert collector.submit(item, order)
            assert collector.drain(timeout=60)
            assert not collector.submit(item, order)  # signature already buffered
        assert collector.stats.snapshot().feedback_deduped >= 1
        assert len(collector.buffer) == 1

    def test_over_limit_execution_rejected_with_reason(self, db, phase2):
        collector = FeedbackCollector(db, FeedbackConfig(max_intermediate_rows=1))
        item = phase2[0]
        order = spanning_join_order(db.join_schema, item.query.tables, start=item.query.tables[0])
        with collector:
            assert collector.submit(item, order)
            assert collector.drain(timeout=60)
            # A rejected signature is remembered: a hot query whose order
            # is doomed must not re-execute on every request.
            assert not collector.submit(item, order)
            assert collector.drain(timeout=60)
        assert len(collector.buffer) == 0
        report = collector.stats.snapshot()
        assert report.feedback_rejections == {"over_limit": 1}  # executed once
        assert report.feedback_rejected == 1
        assert report.feedback_deduped >= 1

    def test_stopped_collector_refuses_submissions(self, db, phase2):
        collector = FeedbackCollector(db)
        item = phase2[0]
        assert not collector.submit(item, list(item.query.tables))

    def test_service_feedback_path_collects_cache_hits_too(self, db, weak_model, phase2):
        """attach_feedback wires optimize() -> collector for computed
        responses and cache hits alike; dedup keeps it one experience."""
        collector = FeedbackCollector(db)
        with OptimizerService(weak_model, db.name) as service, collector:
            service.attach_feedback(collector)
            service.optimize(phase2[0])   # computed
            service.optimize(phase2[0])   # cache hit
            assert collector.drain(timeout=60)
            report = service.report()
        assert report.feedback_collected == 1
        assert report.feedback_deduped >= 1


def spanning_order(db, item):
    return spanning_join_order(db.join_schema, item.query.tables, start=item.query.tables[0])


class TestOneStore:
    """Feedback, gate and adaptation counts live in the telemetry
    registry under the service's label; ``report()`` only reads them."""

    def test_snapshot_holds_feedback_and_adapt_counters(self, db, weak_model, phase2, tmp_path):
        telemetry = Telemetry()
        collector = FeedbackCollector(db, FeedbackConfig(max_intermediate_rows=1))
        with OptimizerService(weak_model, db.name, telemetry=telemetry) as service, collector:
            service.attach_feedback(collector)
            fill_buffer(collector.buffer, phase2[1:9])
            assert not collector.submit(phase2[1], spanning_order(db, phase2[1]))  # dedup
            assert collector.submit(phase2[0], spanning_order(db, phase2[0]))  # over limit
            assert collector.drain(timeout=60)
            config = AdaptationConfig(fine_tune_epochs=1, checkpoint_dir=str(tmp_path))
            AdaptationWorker(service, db, collector.buffer, config).run_once()
            report = service.report()
        label = service.stats.labels["service"]
        payload = telemetry.snapshot()
        counts = {
            (entry["name"], entry["labels"].get("reason") or entry["labels"].get("verdict")):
                entry["value"]
            for entry in payload["metrics"]
            if entry["kind"] == "counter" and entry["labels"].get("service") == label
        }
        verdict = "accept" if report.swaps_accepted else "reject"
        assert counts[("feedback.deduped", None)] == report.feedback_deduped == 1
        assert counts[("feedback.rejected", "over_limit")] == 1
        assert report.feedback_rejections == {"over_limit": 1}
        assert counts[("adapt.retrains", None)] == report.retrains == 1
        assert counts[("adapt.gate", verdict)] == 1
        assert counts[("adapt.gate", "unvalidated")] == report.gates_unvalidated == 0
        assert counts[("adapt.failures", None)] == report.adaptation_failures == 0
        text = render_snapshot(payload)
        for line in (
            f"feedback.deduped{{service={label}}}",
            f"feedback.rejected{{reason=over_limit,service={label}}}",
            f"adapt.retrains{{service={label}}}",
            f"adapt.gate{{service={label},verdict={verdict}}}",
        ):
            assert line in text

    def test_services_sharing_a_registry_keep_separate_counts(self, db, featurizer, phase2):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        telemetry = Telemetry()
        first, second = (OptimizerService(model, db.name, telemetry=telemetry) for _ in range(2))
        collector = first.attach_feedback(FeedbackCollector(db))
        fill_buffer(collector.buffer, phase2[:1])
        assert not collector.submit(phase2[0], spanning_order(db, phase2[0]))  # dedup
        # Nothing to validate on: the second service counts one unvalidated gate.
        assert TrainRound(second, db, ExperienceBuffer(4), AdaptationConfig()).gate_and_install(
            model
        ) is None
        a, b = first.report(), second.report()
        assert (a.feedback_collected, a.feedback_deduped, a.gates_unvalidated) == (1, 1, 0)
        assert (b.feedback_collected, b.feedback_deduped, b.gates_unvalidated) == (0, 0, 1)


class TestAdaptationWorker:
    CONFIG = AdaptationConfig(min_new_experience=8, fine_tune_epochs=12, batch_size=8)

    def test_cycle_improves_drifted_workload_and_swaps(self, db, weak_model, phase2, tmp_path):
        config = dataclasses.replace(self.CONFIG, checkpoint_dir=str(tmp_path))
        with OptimizerService(weak_model, db.name, ServeConfig(max_batch_size=8)) as service:
            pre = [service.optimize(item) for item in phase2]
            buffer = ExperienceBuffer(64)
            fill_buffer(buffer, phase2)
            worker = AdaptationWorker(service, db, buffer, config)
            swapped = worker.run_once()
            assert swapped, f"gate rejected a genuine improvement: {worker.last_gate}"
            post = [service.optimize(item) for item in phase2]
            report = service.report()

        def total(orders):
            return sum(join_order_execution_time(db, item, order)
                       for item, order in zip(phase2, orders))

        assert total(post) < total(pre)  # adapted weights beat frozen ones
        gate = worker.last_gate
        assert gate.accepted
        assert gate.candidate_ms <= gate.live_ms
        assert report.retrains == 1
        assert report.swaps_accepted == 1 and report.swaps_rejected == 0
        assert report.swaps == 1  # the worker swapped through swap_model

    def test_accepted_cycle_persists_warm_start_checkpoint(self, db, weak_model, phase2, tmp_path):
        import os

        import numpy as np

        from repro.core.checkpoint import read_checkpoint_meta

        config = dataclasses.replace(self.CONFIG, checkpoint_dir=str(tmp_path))
        with OptimizerService(weak_model, db.name) as service:
            buffer = ExperienceBuffer(64)
            fill_buffer(buffer, phase2)
            worker = AdaptationWorker(service, db, buffer, config)
            assert worker.run_once()
            path = worker.last_gate.checkpoint_path
            assert path is not None and os.path.exists(path)
            meta = read_checkpoint_meta(path)
            assert meta["optimizer"] is not None  # Adam moments for the next cycle
            assert db.name in meta["featurizers"]
            # The installed serving model is exactly the checkpointed one.
            live = service.session.model
            # Memory == disk: what the write-only checkpoint would
            # restore is what the worker carries into its next cycle.
            restored = JointTrainer.warm_start(path, db)
            live_state = live.state_dict()
            for name, value in restored.model.state_dict().items():
                np.testing.assert_array_equal(value, live_state[name], err_msg=name)
            carried, installed = worker._trajectory
            assert installed is live
            on_disk = restored.optimizer.state()
            assert on_disk["t"] == carried["t"] > 0
            assert on_disk["layout"] == carried["layout"]
            np.testing.assert_array_equal(on_disk["m"], carried["m"])
            np.testing.assert_array_equal(on_disk["v"], carried["v"])

    def test_cycles_read_no_checkpoint(self, db, weak_model, phase2, tmp_path, monkeypatch):
        """The checkpoint lineage is write-only: two cycles with an
        accept in between run with archive reads disabled."""

        def no_reads(*args, **kwargs):
            raise AssertionError("an adaptation cycle read a checkpoint")

        monkeypatch.setattr("repro.core.checkpoint._read_archive", no_reads)
        config = AdaptationConfig(
            fine_tune_epochs=1, batch_size=8, regret_tolerance_ms=1e12,
            checkpoint_dir=str(tmp_path),
        )
        with OptimizerService(weak_model, db.name) as service:
            buffer = ExperienceBuffer(64)
            fill_buffer(buffer, phase2[:8])
            worker = AdaptationWorker(service, db, buffer, config)
            assert worker.run_once()
            fill_buffer(buffer, phase2[8:])
            assert worker.run_once()
        # Cycle 2 continued cycle 1's moments: 1 step, then 2 more.
        assert worker._trajectory[0]["t"] == 3

    def test_multi_database_model_adapts_without_database_handles(
        self, db, weak_model, phase2, tmp_path
    ):
        """A serving model holding featurizers for two databases adapts
        with a plain worker: nothing re-supplies Database handles."""
        other = generate_database(seed=4, num_tables=3, row_range=(30, 60), attr_range=(2, 2))
        assert other.name != db.name
        weak_model.attach_featurizer(other.name, DatabaseFeaturizer(other, SMALL))
        config = AdaptationConfig(
            fine_tune_epochs=1, regret_tolerance_ms=1e12, checkpoint_dir=str(tmp_path)
        )
        with OptimizerService(weak_model, db.name) as service:
            buffer = ExperienceBuffer(64)
            fill_buffer(buffer, phase2[:8])
            worker = AdaptationWorker(service, db, buffer, config)
            assert worker.run_once()
            assert set(service.session.model.databases()) == {db.name, other.name}

    def test_worker_takes_no_databases_argument(self, db, weak_model):
        service = OptimizerService(weak_model, db.name)
        with pytest.raises(TypeError):
            AdaptationWorker(service, db, ExperienceBuffer(8), AdaptationConfig(), databases={})

    def test_external_swap_restarts_the_warm_start_lineage(
        self, db, featurizer, weak_model, phase2, tmp_path
    ):
        """After an operator's swap_model(C) the next cycle fine-tunes C
        with fresh Adam moments — not the worker's previous checkpoint,
        which would replace C with a descendant of the old model."""
        import numpy as np

        from repro.core.checkpoint import read_checkpoint_meta

        # A step size too small to move weights: each cycle's candidate
        # is, to 1e-6, the model it was warm-started from.
        config = AdaptationConfig(
            fine_tune_epochs=1, batch_size=8, learning_rate=1e-9,
            regret_tolerance_ms=1e12, checkpoint_dir=str(tmp_path),
        )
        operator_model = MTMLFQO(dataclasses.replace(SMALL, seed=SMALL.seed + 1))
        operator_model.attach_featurizer(db.name, featurizer)
        operator_state = operator_model.state_dict()
        with OptimizerService(weak_model, db.name) as service:
            buffer = ExperienceBuffer(64)
            fill_buffer(buffer, phase2[:8])
            worker = AdaptationWorker(service, db, buffer, config)
            assert worker.run_once()
            service.swap_model(operator_model)
            fill_buffer(buffer, phase2[8:])
            assert worker.run_once()
            live_state = service.session.model.state_dict()
        assert service.session.model is not operator_model
        for name, value in operator_state.items():
            np.testing.assert_allclose(live_state[name], value, atol=1e-6, err_msg=name)
        # 6 training examples, then 12, at batch 8: cycle 2 took its two
        # steps from zeroed moments, not on top of cycle 1's one.
        steps = [
            read_checkpoint_meta(str(tmp_path / f"adapt-000{cycle}.npz"))["optimizer"]["t"]
            for cycle in (1, 2)
        ]
        assert steps == [1, 2]

    def test_failed_cycle_preserves_trigger_credit_and_is_counted(
        self, db, weak_model, phase2
    ):
        """A cycle that crashes before a gate verdict (here: unwritable
        checkpoint dir) must not burn the retrain trigger credit, must
        not count as a gate rejection, and must surface as a failure."""
        with OptimizerService(weak_model, db.name) as service:
            buffer = ExperienceBuffer(64)
            fill_buffer(buffer, phase2[:8])
            config = AdaptationConfig(
                min_new_experience=4, fine_tune_epochs=1, poll_interval_s=0.01,
                checkpoint_dir="/proc/unwritable/adaptation-checkpoints",
            )
            worker = AdaptationWorker(service, db, buffer, config)
            with pytest.raises(OSError):
                worker.run_once()
            assert worker.pending_experience() == 8  # credit intact
            with worker:  # the background loop survives the same crash
                deadline, waited = 10.0, 0.0
                while worker.counters()["adaptation_failures"] < 1 and waited < deadline:
                    threading.Event().wait(0.02)
                    waited += 0.02
            counters = worker.counters()
            assert counters["adaptation_failures"] >= 1
            assert counters["swaps_rejected"] == 0  # a crash is not a gate verdict
            assert counters["swaps_accepted"] == 0
            report = service.report()
            assert report.adaptation_failures >= 1

    def test_non_finite_gradient_fails_the_cycle_and_keeps_the_live_model(
        self, db, weak_model, phase2, monkeypatch
    ):
        """A NaN gradient in the retrain raises before any weight or
        moment changes; the cycle counts as a failure, not a verdict, and
        the live model keeps serving bit-identical orders."""
        poison_batch_losses(monkeypatch)
        with OptimizerService(weak_model, db.name) as service:
            live_model = service.session.model
            live_state = {name: p.data.copy() for name, p in live_model.named_parameters()}
            pre = [service.optimize(item) for item in phase2]
            buffer = ExperienceBuffer(64)
            fill_buffer(buffer, phase2[:8])
            config = AdaptationConfig(min_new_experience=4, fine_tune_epochs=1, poll_interval_s=0.01)
            worker = AdaptationWorker(service, db, buffer, config)
            with pytest.raises(FloatingPointError):
                worker.run_once()
            assert worker.pending_experience() == 8  # credit intact
            with worker:  # the loop counts the same crash
                deadline, waited = 10.0, 0.0
                while worker.counters()["adaptation_failures"] < 1 and waited < deadline:
                    threading.Event().wait(0.02)
                    waited += 0.02
            counters = worker.counters()
            assert counters["adaptation_failures"] >= 1
            assert counters["swaps_accepted"] == counters["swaps_rejected"] == 0
            assert service.session.model is live_model
            for name, p in live_model.named_parameters():
                np.testing.assert_array_equal(p.data, live_state[name], err_msg=name)
            post = [service.optimize(item) for item in phase2]
        assert post == pre

    def test_poisoned_retrain_is_rejected_and_live_model_unchanged(
        self, db, strong_model, phase2, tmp_path
    ):
        """The acceptance criterion's adversarial case: experience whose
        join-order labels are deliberately poisoned (worst sampled legal
        orders) must not reach production — the regression gate blocks
        the swap and the live model keeps serving bit-identical orders."""
        config = dataclasses.replace(self.CONFIG, checkpoint_dir=str(tmp_path))
        with OptimizerService(strong_model, db.name) as service:
            live_model = service.session.model
            pre = [service.optimize(item) for item in phase2]
            worker = AdaptationWorker(service, db, poisoned_buffer(db, phase2), config)
            assert not worker.run_once()
            report = service.report()
            assert report.swaps_rejected >= 1
            assert report.swaps_accepted == 0 and report.swaps == 0
            assert service.session.model is live_model  # untouched
            post = [service.optimize(item) for item in phase2]
        assert post == pre  # bit-identical serving throughout
        assert not worker.last_gate.accepted
        assert worker.last_gate.candidate_ms > worker.last_gate.live_ms

    def test_gate_refuses_an_execution_cap_below_one(self, db, weak_model, phase2):
        """Under a cap below 1 every order runs over it, so live and
        candidate pay the same penalty and the gate would accept any
        candidate: the gate raises instead."""
        for cap in (0, -5):
            with pytest.raises(ValueError, match="max_intermediate_rows"):
                evaluate_regret_gate(db, weak_model, weak_model, phase2[:4], max_intermediate_rows=cap)


@pytest.mark.parametrize("tolerance_ms", [float("nan"), float("inf"), -1.0])
def test_gate_refuses_a_tolerance_that_is_not_finite_and_non_negative(db, featurizer, phase2, tolerance_ms):
    """A NaN slack would reject every candidate silently and an infinite
    one accept every candidate, poisoned ones included."""
    model = MTMLFQO(SMALL)
    model.attach_featurizer(db.name, featurizer)
    with pytest.raises(ValueError, match="tolerance_ms"):
        evaluate_regret_gate(db, model, model, phase2[:4], tolerance_ms=tolerance_ms)


def slice_keys(items) -> set:
    return {(query_signature(item.query), plan_signature(item.plan)) for item in items}


class TestGateCarry:
    """A gate reuses what the previous gate of its round knew — the live
    model's orders while that model is unchanged, and every executed
    (query, order) pair — and its verdict equals a carry-less gate's."""

    def test_carried_verdicts_equal_carry_less_gates(
        self, db, weak_model, phase2, tmp_path, monkeypatch
    ):
        gates, live_decoded = [], []
        gate = adaptation._regret_gate
        decodes = count_decodes(monkeypatch)

        def recording(db, live, candidate, val_slice, *args):
            start = len(decodes)
            result, carry = gate(db, live, candidate, val_slice, *args)
            gates.append((live, candidate, list(val_slice), dataclasses.replace(result)))
            live_decoded.append(sum(n for model, n in decodes[start:] if model is live))
            return result, carry

        monkeypatch.setattr(adaptation, "_regret_gate", recording)
        config = AdaptationConfig(
            min_new_experience=1, fine_tune_epochs=2, batch_size=8, checkpoint_dir=str(tmp_path)
        )
        with OptimizerService(weak_model, db.name) as service:
            buffer = ExperienceBuffer(64)
            worker = AdaptationWorker(service, db, buffer, config)
            for cycle in range(8):
                fill_buffer(buffer, phase2[2 * cycle: 2 * cycle + 2])
                worker.run_once()
                carry = worker.round._carry
                held_out = gates[-1][2]
                # One slice's entries, nothing older.
                assert set(carry.live_orders) == slice_keys(held_out)
                assert {sig for sig, _ in carry.executed} <= {
                    query_signature(item.query) for item in held_out
                }
                assert len(carry.executed) <= 3 * len(held_out)
            decode = service.config.decode_kwargs()
        verdicts = [result.accepted for *_, result in gates]
        assert len(gates) == 8 and any(verdicts) and not all(verdicts)
        assert sum(live_decoded) < sum(len(g[2]) for g in gates)  # the carry answered some
        monkeypatch.setattr(adaptation, "_regret_gate", gate)
        for live, candidate, val_slice, result in gates:
            fresh = evaluate_regret_gate(
                db, live, candidate, val_slice, decode=decode,
                max_intermediate_rows=config.max_intermediate_rows,
            )
            assert fresh == result  # floats compared with ==

    def test_a_gate_executes_each_pair_once(self, db, weak_model, phase2, monkeypatch):
        executions = count_executions(monkeypatch)
        candidate = weak_model.clone_for_inference()  # decodes like the live model
        gate = evaluate_regret_gate(db, weak_model, candidate, phase2)
        assert gate.live_ms == gate.candidate_ms
        orders = weak_model.predict_join_orders(db.name, phase2)
        pairs = {
            (query_signature(item.query), tuple(order))
            for item, own in zip(phase2, orders)
            for order in (own, item.optimal_order)
        }
        assert set(executions) == pairs and set(executions.values()) == {1}

    def test_unchanged_live_model_is_not_decoded_again(
        self, db, strong_model, weak_model, phase2, monkeypatch
    ):
        with OptimizerService(strong_model, db.name) as service:
            buffer = ExperienceBuffer(64)
            fill_buffer(buffer, phase2)
            train_round = TrainRound(service, db, buffer, AdaptationConfig())
            first = train_round.gate_and_install(weak_model)
            assert not first.accepted  # the live model stays
            decodes = count_decodes(monkeypatch)
            executions = count_executions(monkeypatch)
            second = train_round.gate_and_install(weak_model)
            assert second == first
            assert [n for model, n in decodes if model is strong_model] == []
            assert not executions  # every pair was executed by the first gate

            strong_model.mark_updated()
            third = train_round.gate_and_install(weak_model)
            assert [n for model, n in decodes if model is strong_model] == [len(phase2)]
            assert third == first

            other = strong_model.clone_for_inference()
            service.swap_model(other)
            decodes.clear()
            train_round.gate_and_install(weak_model)
            assert [n for model, n in decodes if model is other] == [len(phase2)]


def scan_filters(items):
    """The distinct ``(table, predicates)`` scans of ``items``' queries:
    the inputs (F)'s ``encode_filter`` is memoized on."""
    return {
        (table, tuple(str(p) for p in item.query.filter_for(table).predicates))
        for item in items
        for table in item.query.tables
    }


def count_filter_encodes(monkeypatch) -> collections.Counter:
    """Count ``DatabaseFeaturizer.encode_filter`` calls (every model, every thread)."""
    calls = collections.Counter()
    encode_filter = DatabaseFeaturizer.encode_filter

    def counted(featurizer, conjunction):
        calls["encode_filter"] += 1
        return encode_filter(featurizer, conjunction)

    monkeypatch.setattr(DatabaseFeaturizer, "encode_filter", counted)
    return calls


class TestFeaturesStayEncoded:
    """The (F) caches belong to the featurizer, which the live model and
    every candidate share: a retrain re-runs no ``Enc_i`` on experience
    any of them has already encoded, a rejected candidate included."""

    def test_cycles_encode_only_fresh_scan_filters(
        self, db, weak_model, phase2, tmp_path, monkeypatch
    ):
        calls = count_filter_encodes(monkeypatch)
        config = AdaptationConfig(
            fine_tune_epochs=1, batch_size=8, regret_tolerance_ms=1e12,
            checkpoint_dir=str(tmp_path),
        )
        with OptimizerService(weak_model, db.name) as service:
            buffer = ExperienceBuffer(64)
            fill_buffer(buffer, phase2[:8])
            worker = AdaptationWorker(service, db, buffer, config)
            assert worker.run_once()
            calls.clear()
            assert worker.run_once()  # no new experience
            assert sum(calls.values()) == 0
            fresh = phase2[8:12]
            fill_buffer(buffer, fresh)
            assert worker.run_once()
        # Fine-tune and gate, live and candidate: each fresh filter is
        # encoded at most once in total.
        assert 0 < calls["encode_filter"] <= len(scan_filters(fresh))

    def test_a_rejected_cycle_leaves_its_encodings(
        self, db, strong_model, phase2, tmp_path, monkeypatch
    ):
        """A rejected candidate encoded the training slice; the next
        cycle's clone, on the same experience, finds every encoding."""
        strong_model.clear_cache()  # the live model has encoded nothing
        config = AdaptationConfig(fine_tune_epochs=2, batch_size=8, checkpoint_dir=str(tmp_path))
        with OptimizerService(strong_model, db.name) as service:
            worker = AdaptationWorker(service, db, poisoned_buffer(db, phase2), config)
            assert not worker.run_once()
            calls = count_filter_encodes(monkeypatch)
            assert not worker.run_once()  # no new experience
            assert service.report().swaps_rejected == 2
        assert calls["encode_filter"] == 0

    def test_serving_while_a_clone_trains_on_the_same_featurizer(self, db, weak_model, phase2):
        """The live model serves while a clone trains, both through one
        small (F) cache: no error, served orders equal direct ones, and
        the bound holds."""
        direct = weak_model.predict_join_orders(db.name, phase2)
        small = DatabaseFeaturizer(db, dataclasses.replace(SMALL, feature_cache_size=8))
        small.load_state_dict(weak_model.featurizer_for(db.name).state_dict())
        live = weak_model.clone_for_inference()
        live.attach_featurizer(db.name, small)
        clone = live.clone_for_inference()
        errors = []

        def train():
            try:
                JointTrainer(clone).train([(db.name, item) for item in phase2], epochs=2, batch_size=4)
            except BaseException as error:  # reported on the main thread
                errors.append(error)

        served = []
        with OptimizerService(live, db.name, ServeConfig(plan_cache_size=0)) as service:
            trainer = threading.Thread(target=train)
            trainer.start()
            while trainer.is_alive() or not served:
                served.append([service.optimize(item) for item in phase2])
            trainer.join()
        assert not errors
        assert all(orders == direct for orders in served)
        assert len(small.encoding_cache) <= 8 and len(small.node_cache) <= 8


class TestFullLoopUnderStress:
    def test_16_clients_across_full_collect_retrain_swap_cycle(
        self, db, weak_model, phase2, tmp_path
    ):
        """16 clients hammer the service while the complete loop —
        collect → retrain → gate → swap — runs live in the background.
        Every request gets exactly one answer; every answer is the
        bit-exact direct result of either the pre-swap or the post-swap
        model; traffic after the swap (including cache hits) is served
        by the new model only."""
        pre_direct = weak_model.predict_join_orders(db.name, phase2)

        serve_config = ServeConfig(max_batch_size=8, max_wait_ms=1.0, plan_cache_size=64)
        # A huge regret tolerance pins the *cycle* deterministically (the
        # swap always happens); the gate's accept/reject behavior itself
        # is pinned by TestAdaptationWorker.
        adapt_config = AdaptationConfig(
            min_new_experience=len(phase2),
            fine_tune_epochs=6,
            batch_size=8,
            regret_tolerance_ms=1e9,
            poll_interval_s=0.05,
            checkpoint_dir=str(tmp_path),
        )
        num_clients, rounds = 16, 30
        answers = [[] for _ in range(num_clients)]
        errors = []
        swap_seen = threading.Event()

        collector = FeedbackCollector(db, FeedbackConfig(buffer_capacity=64))
        service = OptimizerService(weak_model, db.name, serve_config)
        with service, collector:
            service.attach_feedback(collector)
            worker = AdaptationWorker(service, db, collector.buffer, adapt_config)
            with worker:
                def client(slot):
                    rng = random.Random(slot)
                    try:
                        for round_index in range(rounds):
                            index = rng.randrange(len(phase2))
                            answers[slot].append((index, service.optimize(phase2[index])))
                            if worker.counters()["swaps_accepted"] >= 1:
                                swap_seen.set()
                    except BaseException as error:
                        errors.append(error)

                threads = [threading.Thread(target=client, args=(slot,))
                           for slot in range(num_clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                # The cycle may still be mid-retrain when traffic ends:
                # wait for it to complete before the post-swap checks.
                deadline = 120
                step = 0.05
                waited = 0.0
                while worker.counters()["swaps_accepted"] < 1 and waited < deadline:
                    threading.Event().wait(step)
                    waited += step
                counters = worker.counters()
                assert counters["swaps_accepted"] >= 1, counters
                final_model = service.session.model
                assert final_model is not weak_model
                final_direct = final_model.predict_join_orders(db.name, phase2)
                post = [service.optimize(item) for item in phase2]
                twice = [service.optimize(item) for item in phase2]  # via cache
                report = service.report()

        assert not errors, errors
        received = sum(len(slot_answers) for slot_answers in answers)
        assert received == num_clients * rounds  # no lost/duplicate responses
        for slot_answers in answers:
            for index, order in slot_answers:
                assert order in (pre_direct[index], final_direct[index])
        # Post-swap traffic — computed *and* cached — is new-model only:
        # no cache entry may ever resurface a pre-swap order.
        assert post == final_direct
        assert twice == final_direct
        assert report.completed == received + 2 * len(phase2)
        assert report.failed == 0 and report.rejected == 0
        assert report.retrains >= 1 and report.swaps_accepted >= 1
        assert report.feedback_collected >= adapt_config.min_new_experience
