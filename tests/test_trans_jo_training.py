"""Batched Trans_JO training against the per-query loop it replaced.

``JointTrainer`` computes L.iii, and ``sequence_level_loss`` Equation 3,
off one padded teacher-forced decoder forward; the one-forward-per-order
loop lives in ``tests/per_query_reference.py``.  Padding changes gemm
shapes, so the comparison is the padded-batch contract (DESIGN.md
section 2), written here once: loss within 1e-12, every parameter
gradient ``allclose(rtol=1e-9, atol=1e-15)``, exactly no gradient at a
padded memory slot, and identical served orders after training.  (The
absolute floor is for the attention ``k_proj.bias`` gradients: they are
mathematically zero — softmax is shift invariant — and read ~1e-18 on
both sides.)
"""

import dataclasses

import numpy as np
import pytest

import per_query_reference as reference
import repro.nn as nn
from repro.core import (
    BeamCandidate,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    order_positions,
    sequence_level_loss,
    sequence_log_probs,
)
from repro.core.encoders import DatabaseFeaturizer
from repro.datagen import generate_database
from repro.engine.plan import join_node
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

CONFIG = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=2)


def labeled_queries(db, count, min_tables, max_tables, seed):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=min_tables, max_tables=max_tables, seed=seed))
    return QueryLabeler(db).label_many(generator.generate(count), with_optimal_order=True)


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=3, num_tables=7, row_range=(60, 200), attr_range=(2, 3))


@pytest.fixture(scope="module")
def featurizer(db):
    feat = DatabaseFeaturizer(db, CONFIG)
    feat.train_encoders(queries_per_table=2, epochs=1)
    return feat


@pytest.fixture(scope="module")
def workload(db):
    """16 labeled 3-6-table queries, then the rows a step must drop: one
    without an optimal order, one whose planner plan is not left-deep,
    one over a single table."""
    items = labeled_queries(db, 16, 3, 6, seed=1)
    assert {item.query.num_tables for item in items} == {3, 4, 5, 6}
    unlabeled = dataclasses.replace(items[2], optimal_order=None)
    plan = items[3].plan
    bushy = dataclasses.replace(
        items[3], plan=join_node(plan.right, plan.left, plan.join_predicates, plan.join_op)
    )
    assert not bushy.plan.is_left_deep()
    single = labeled_queries(db, 1, 1, 1, seed=2)
    return items + [unlabeled, bushy] + single


def fresh_model(db, featurizer) -> MTMLFQO:
    model = MTMLFQO(CONFIG)
    model.attach_featurizer(db.name, featurizer)
    return model


def gradients(model, loss) -> dict:
    model.zero_grad()
    loss.backward()
    return {name: param.grad for name, param in model.named_parameters()}


def assert_same_gradients(batched: dict, looped: dict):
    assert batched.keys() == looped.keys()
    for name, grad in batched.items():
        if looped[name] is None:
            assert grad is None, name
        else:
            np.testing.assert_allclose(grad, looped[name], rtol=1e-9, atol=1e-15, err_msg=name)


class TestTokenLoss:
    @pytest.mark.parametrize("jo_criterion", ["optimal", "planner"])
    def test_loss_and_gradients_match_the_per_query_loop(self, db, featurizer, workload, jo_criterion):
        model = fresh_model(db, featurizer)
        batch = workload[:5] + workload[-3:]  # ragged 3-6 tables + every dropped kind
        assert sorted({item.query.num_tables for item in batch}) == [1, 3, 4, 5, 6]
        results = []
        for trainer in (JointTrainer(model), reference.PerQueryTrainer(model)):
            loss, (_, _, jo_loss) = trainer._batch_losses(db.name, batch, jo_criterion)
            results.append((loss.item(), jo_loss.item(), gradients(model, loss)))
        (loss, jo_loss, grads), (ref_loss, ref_jo_loss, ref_grads) = results
        assert abs(loss - ref_loss) <= 1e-12 and abs(jo_loss - ref_jo_loss) <= 1e-12
        assert_same_gradients(grads, ref_grads)
        assert any(name.startswith("trans_jo.") and grad is not None for name, grad in grads.items())

    def test_a_batch_without_labels_has_no_join_order_term(self, db, featurizer, workload):
        model = fresh_model(db, featurizer)
        _, (card, cost, jo_loss) = JointTrainer(model)._batch_losses(db.name, [workload[-3], workload[-1]])
        assert jo_loss is None and card is not None and cost is not None

    def test_no_gradient_reaches_a_padded_memory_slot(self, db, featurizer):
        trans_jo = fresh_model(db, featurizer).trans_jo
        rng = np.random.default_rng(0)
        lengths = np.asarray([5, 3, 4])
        memory = nn.Tensor(rng.normal(size=(3, 5, CONFIG.d_model)), requires_grad=True)
        padding = np.arange(5) >= lengths[:, None]
        targets = np.zeros((3, 5), dtype=np.int64)
        for row, m in enumerate(lengths):
            targets[row, :m] = rng.permutation(m)
        log_probs = sequence_log_probs(trans_jo, memory, targets, lengths)
        (log_probs * -1.0).sum().backward()
        assert (memory.grad[padding] == 0.0).all()
        assert (np.abs(memory.grad[~padding]).sum(axis=-1) > 0.0).all()
        # ... and what a pad slot holds cannot move a real row's value.
        scribbled = memory.data.copy()
        scribbled[padding] = 1e3
        again = sequence_log_probs(trans_jo, nn.Tensor(scribbled), targets, lengths)
        np.testing.assert_array_equal(again.data, log_probs.data)

    def test_three_epochs_serve_identical_orders(self, db, featurizer, workload):
        examples = [(db.name, item) for item in workload]
        probe = labeled_queries(db, 24, 2, 6, seed=9)
        served, curves = [], []
        for trainer_class in (JointTrainer, reference.PerQueryTrainer):
            model = fresh_model(db, featurizer)
            result = trainer_class(model).train(examples, epochs=3, batch_size=8, seed=0)
            served.append(model.predict_join_orders(db.name, probe))
            curves.append(result.epoch_losses)
        assert served[0] == served[1]
        np.testing.assert_allclose(curves[0], curves[1], rtol=1e-9)


class TestSequenceLevelLoss:
    @pytest.fixture()
    def step(self, db, featurizer, workload):
        """Three labeled queries of 5, 3 and 4 tables — one padded memory
        batch — each with u* and a candidate set that, over the step,
        holds legal, illegal and u*-duplicate orders."""
        model = fresh_model(db, featurizer)
        items = [next(i for i in workload if i.query.num_tables == m) for m in (5, 3, 4)]
        optimal = [order_positions(item) for item in items]
        collected = model.beam_candidates_batch(db.name, items, beam_width=4, enforce_legality=False)
        candidates = [
            beam + [BeamCandidate(positions=list(u_star), log_prob=-1.0, legal=True)]
            for beam, u_star in zip(collected, optimal)
        ]
        kinds = {(c.legal, c.positions == u_star) for beam, u_star in zip(candidates, optimal) for c in beam}
        assert {(True, False), (False, False), (True, True)} <= kinds
        assert sum(any(not c.legal for c in beam) for beam in candidates) >= 2  # renormalised per query
        return model, items, optimal, candidates

    @staticmethod
    def memories(model, db, items):
        shared, _, encodings = model.forward_batch(db.name, items)
        return shared, encodings, model.join_order_memory_batch(
            shared, encodings, {i: item.query.tables for i, item in enumerate(items)}
        )

    def test_loss_and_gradients_match_the_per_candidate_loop(self, db, step):
        """The batched criterion is the mean of the per-query reference."""
        model, items, optimal, candidates = step
        _, _, memory = self.memories(model, db, items)
        loss = sequence_level_loss(model.trans_jo, memory, optimal, candidates, penalty=4.0)
        grads = gradients(model, loss)
        shared, encodings, _ = self.memories(model, db, items)
        ref_loss = None
        for row, item in enumerate(items):
            memory = model.join_order_memory(shared[row], encodings[row], item.query.tables)
            term = reference.sequence_level_loss(model.trans_jo, memory, optimal[row], candidates[row], penalty=4.0)
            ref_loss = term if ref_loss is None else ref_loss + term
        ref_loss = ref_loss * (1.0 / len(items))
        assert abs(loss.item() - ref_loss.item()) <= 1e-12
        assert_same_gradients(grads, gradients(model, ref_loss))

    def test_no_gradient_reaches_a_padded_memory_slot(self, db, step):
        model, items, optimal, candidates = step
        _, _, gathered = self.memories(model, db, items)
        memory = nn.Tensor(gathered.data.copy(), requires_grad=True)
        sequence_level_loss(model.trans_jo, memory, optimal, candidates).backward()
        padding = np.arange(5) >= np.asarray([5, 3, 4])[:, None]
        assert (memory.grad[padding] == 0.0).all()
        assert (np.abs(memory.grad[~padding]).sum(axis=-1) > 0.0).all()

    def test_log_probs_match_one_forward_per_order(self, db, step):
        model, items, _, candidates = step
        item, candidates = items[0], candidates[0]
        with nn.no_grad():
            shared, _, encodings = model.forward_batch(db.name, [item])
            memory = model.join_order_memory(shared[0], encodings[0], item.query.tables)
            orders = np.asarray([c.positions for c in candidates], dtype=np.int64)
            batched = sequence_log_probs(
                model.trans_jo, nn.functional.repeat_batch(memory, len(orders)), orders,
                np.full(len(orders), orders.shape[1]),
            )
            looped = [reference.sequence_log_prob(model.trans_jo, memory, c.positions).item() for c in candidates]
        np.testing.assert_allclose(batched.data, looped, rtol=0, atol=1e-12)

    @pytest.fixture()
    def counted(self, db, featurizer, monkeypatch):
        """A trainer whose taped decoder calls, beam collections and
        optimizer steps are recorded."""
        model = fresh_model(db, featurizer)
        model.attach_featurizer("alias", featurizer)  # a second database name over the same tables
        trainer = JointTrainer(model)
        calls = {"decoder": [], "collected": [], "steps": 0}
        decoder_forward = model.trans_jo.decoder.forward
        collect = model.beam_candidates_batch
        optimizer_step = trainer.optimizer.step

        def counting_forward(x, *args, **kwargs):
            if nn.is_grad_enabled():  # beam collection steps the decoder under no_grad
                calls["decoder"].append(x.shape)
            return decoder_forward(x, *args, **kwargs)

        def counting_collect(db_name, items, **kwargs):
            assert kwargs == {"enforce_legality": False}
            beams = collect(db_name, items, **kwargs)
            calls["collected"].append((db_name, items, beams))
            return beams

        def counting_step():
            calls["steps"] += 1
            optimizer_step()

        monkeypatch.setattr(model.trans_jo.decoder, "forward", counting_forward)
        monkeypatch.setattr(model, "beam_candidates_batch", counting_collect)
        monkeypatch.setattr(trainer.optimizer, "step", counting_step)
        return trainer, calls

    def test_one_refine_step_is_one_decoder_call(self, db, workload, counted):
        """One sequence-criterion batch is one optimizer step: u* and
        every candidate of every labeled query of the batch share one
        taped decoder forward of sum(C_q) + Q rows; the unlabeled and
        single-table items ride along for card/cost only."""
        trainer, calls = counted
        batch = workload[:4] + workload[-3:]
        labeled = [item for item in batch if item.optimal_order is not None and item.query.num_tables >= 2]
        assert len(labeled) == 5
        result = trainer.train(
            [(db.name, item) for item in batch], epochs=1, batch_size=len(batch), jo_criterion="sequence"
        )
        assert calls["steps"] == len(calls["decoder"]) == len(calls["collected"]) == 1
        (_, items, beams), = calls["collected"]
        assert sorted(map(id, items)) == sorted(map(id, labeled))  # train() shuffles
        rows = sum(
            1 + sum(c.positions != order_positions(item) for c in beam) for item, beam in zip(items, beams)
        )
        assert calls["decoder"][0][0] == rows > len(labeled)
        assert set(result.task_losses) == {"card", "cost", "jo"}
        assert all(len(curve) == 1 and np.isfinite(curve[0]) for curve in result.task_losses.values())
        assert result.task_losses["card"][0] > 0.0 and result.task_losses["cost"][0] > 0.0

    def test_sequence_batches_split_at_database_boundaries(self, db, workload, counted):
        """A mixed-database list batches under Eq. 3 like any other
        ``train()`` call: one step, one collection per same-database run."""
        trainer, calls = counted
        examples = [(name, item) for item in workload[:6] for name in (db.name, "alias")]
        trainer.train(examples, epochs=1, batch_size=4, seed=0, jo_criterion="sequence")
        order = np.random.default_rng(0).permutation(len(examples))
        runs = []  # the batches train() must have formed
        for idx in order:
            name = examples[idx][0]
            if runs and runs[-1][0] == name and runs[-1][1] < 4:
                runs[-1][1] += 1
            else:
                runs.append([name, 1])
        assert len(runs) > 3 and {name for name, _ in runs} == {db.name, "alias"}
        assert [(name, len(items)) for name, items, _ in calls["collected"]] == [tuple(run) for run in runs]
        assert calls["steps"] == len(calls["decoder"]) == len(runs)

    def test_the_criterion_is_validated(self, db, featurizer, workload):
        trainer = JointTrainer(fresh_model(db, featurizer))
        examples = [(db.name, item) for item in workload[:2]]
        with pytest.raises(ValueError, match="optimal.*planner.*sequence"):
            trainer.train(examples, epochs=1, jo_criterion="sequence-level")
        with pytest.raises(ValueError, match="optimal-order labels"):
            trainer.train([(db.name, workload[-3]), (db.name, workload[-1])], epochs=1, jo_criterion="sequence")
