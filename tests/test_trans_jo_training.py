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
    @pytest.mark.parametrize("label_source", ["optimal", "planner"])
    def test_loss_and_gradients_match_the_per_query_loop(self, db, featurizer, workload, label_source):
        model = fresh_model(db, featurizer)
        batch = workload[:5] + workload[-3:]  # ragged 3-6 tables + every dropped kind
        assert sorted({item.query.num_tables for item in batch}) == [1, 3, 4, 5, 6]
        results = []
        for trainer in (JointTrainer(model), reference.PerQueryTrainer(model)):
            trainer.jo_label_source = label_source
            loss, (_, _, jo_loss) = trainer._batch_losses(db.name, batch)
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
    def query(self, db, featurizer, workload):
        """A 5-table query with its memory and a candidate set holding
        legal, illegal and u*-duplicate orders."""
        model = fresh_model(db, featurizer)
        item = next(i for i in workload if i.query.num_tables == 5)
        optimal = order_positions(item)
        collected = model.beam_candidates_batch(db.name, [item], beam_width=4, enforce_legality=False)[0]
        candidates = collected + [BeamCandidate(positions=list(optimal), log_prob=-1.0, legal=True)]
        kinds = {(c.legal, c.positions == optimal) for c in candidates}
        assert {(True, False), (False, False), (True, True)} <= kinds
        return model, item, optimal, candidates

    def test_loss_and_gradients_match_the_per_candidate_loop(self, db, query):
        model, item, optimal, candidates = query
        results = []
        for criterion in (sequence_level_loss, reference.sequence_level_loss):
            shared, _, encodings = model.forward_batch(db.name, [item])
            memory = model.join_order_memory(shared[0], encodings[0], item.query.tables)
            loss = criterion(model.trans_jo, memory, optimal, candidates, penalty=4.0)
            results.append((loss.item(), gradients(model, loss)))
        (loss, grads), (ref_loss, ref_grads) = results
        assert abs(loss - ref_loss) <= 1e-12
        assert_same_gradients(grads, ref_grads)

    def test_log_probs_match_one_forward_per_order(self, db, query):
        model, item, optimal, candidates = query
        with nn.no_grad():
            shared, _, encodings = model.forward_batch(db.name, [item])
            memory = model.join_order_memory(shared[0], encodings[0], item.query.tables)
            orders = np.asarray([c.positions for c in candidates], dtype=np.int64)
            batched = sequence_log_probs(
                model.trans_jo, nn.functional.repeat_batch(memory, len(orders)), orders
            )
            looped = [reference.sequence_log_prob(model.trans_jo, memory, c.positions).item() for c in candidates]
        np.testing.assert_allclose(batched.data, looped, rtol=0, atol=1e-12)

    def test_one_refine_step_is_one_decoder_call(self, db, featurizer, workload, monkeypatch):
        """u* and every candidate share one teacher-forced forward, and
        refinement still takes one optimizer step per query."""
        model = fresh_model(db, featurizer)
        trainer = JointTrainer(model)
        examples = [(db.name, item) for item in workload[:4]]
        taped_decoder_calls, optimizer_steps = [], []
        decoder_forward = model.trans_jo.decoder.forward
        optimizer_step = trainer.optimizer.step

        def counting_forward(x, *args, **kwargs):
            if nn.is_grad_enabled():  # beam collection steps the decoder under no_grad
                taped_decoder_calls.append(x.shape)
            return decoder_forward(x, *args, **kwargs)

        monkeypatch.setattr(model.trans_jo.decoder, "forward", counting_forward)
        monkeypatch.setattr(trainer.optimizer, "step", lambda: optimizer_steps.append(1) or optimizer_step())
        result = trainer.refine_sequence_level(examples, epochs=1)
        assert len(taped_decoder_calls) == len(optimizer_steps) == len(examples)
        assert all(shape[0] > 1 for shape in taped_decoder_calls)  # (C + 1, m, d): u* and candidates
        assert result.task_losses == {"sequence": result.epoch_losses}
