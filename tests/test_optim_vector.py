"""One parameter vector: ``nn.Adam`` against the per-array reference.

``nn.Adam`` packs its parameters' values, gradients and moments into one
float64 vector each and updates them with whole-vector calls.  These
tests hold it to ``reference_ops.ReferenceAdam`` — the per-array loop it
replaced — bit for bit (weight decay, a parameter without a gradient,
a warm start in the middle of a run, the trainer, the per-table (F)
optimizers), check that a trainer steps the model's own vector and that
loads, checkpoints and clones never detach a model from the optimizer
that trains it, and cover the hyper-parameter and gradient guards
around the step.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import repro.nn as nn
from repro.nn.layers import segment_views
from helpers import poison_batch_losses
from reference_ops import ReferenceAdam
from repro.core import (
    DatabaseFeaturizer,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    load_checkpoint,
)
from repro.datagen import generate_database
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

SMALL = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)


class TwoHeads(nn.Module):
    """An embedding, a trunk and two heads; ``head_b`` only trains when asked."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.embedding = nn.Embedding(5, 4, rng=rng)
        self.trunk = nn.MLP([4, 8, 8], rng=rng)
        self.head_a = nn.Linear(8, 1, rng=rng)
        self.head_b = nn.Linear(8, 1, rng=rng)

    def loss(self, ids, target, use_b: bool) -> nn.Tensor:
        hidden = self.trunk(self.embedding(ids))
        pred = self.head_a(hidden).reshape(len(ids))
        if use_b:
            pred = pred + self.head_b(hidden).reshape(len(ids))
        diff = pred - nn.Tensor(target)
        return (diff * diff).mean()


def assert_states_equal(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


def named_moments(state: dict) -> dict:
    """``{name: (m, v)}``: an ``Adam.state()``'s vectors cut by its layout."""
    names = [name for name, _ in state["layout"]]
    shapes = [shape for _, shape in state["layout"]]
    return dict(zip(names, zip(segment_views(state["m"], shapes), segment_views(state["v"], shapes))))


def assert_moments_equal(adam: nn.Adam, reference: ReferenceAdam) -> None:
    state = adam.state()
    assert state["t"] == reference._t
    moments = named_moments(state)
    assert list(moments) == list(reference.moments())
    for key, (m, v) in reference.moments().items():
        np.testing.assert_array_equal(moments[key][0], m, err_msg=key)
        np.testing.assert_array_equal(moments[key][1], v, err_msg=key)


class TestTrajectory:
    """``nn.Adam`` walks the reference's trajectory bit for bit."""

    STEPS = 12

    @staticmethod
    def _batches(steps):
        rng = np.random.default_rng(1)
        return [(rng.integers(0, 5, size=6), rng.normal(size=6)) for _ in range(steps)]

    def _run(self, model, optimizer, batches, idle_b=(), start=0):
        for step, (ids, target) in enumerate(batches, start=start):
            optimizer.zero_grad()
            model.loss(ids, target, use_b=step not in idle_b).backward()
            nn.clip_grad_norm(model.parameters(), 1.0)
            optimizer.step()

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    @pytest.mark.parametrize("idle_b", [(), (0, 3, 4, 9)])
    def test_weights_and_moments_bitwise_equal(self, weight_decay, idle_b):
        batches = self._batches(self.STEPS)
        packed, plain = TwoHeads(0), TwoHeads(0)
        adam = nn.Adam(packed.named_parameters(), lr=1e-2, weight_decay=weight_decay)
        reference = ReferenceAdam(plain.named_parameters(), lr=1e-2, weight_decay=weight_decay)
        self._run(packed, adam, batches, idle_b)
        self._run(plain, reference, batches, idle_b)
        assert_states_equal(packed.state_dict(), plain.state_dict())
        assert_moments_equal(adam, reference)

    def test_parameter_without_gradient_stays_bitwise_untouched(self):
        model = TwoHeads(0)
        adam = nn.Adam(model.named_parameters(), lr=1e-2)
        ids, target = self._batches(1)[0]
        self._run(model, adam, [(ids, target)])  # head_b has moments now
        before = {key: value.copy() for key, value in model.state_dict().items()}
        moments = named_moments(adam.state())
        self._run(model, adam, [(ids, target)], idle_b=(0,))
        after, state = model.state_dict(), named_moments(adam.state())
        for key in ("head_b.weight", "head_b.bias"):
            np.testing.assert_array_equal(after[key], before[key])
            np.testing.assert_array_equal(state[key][0], moments[key][0])
            np.testing.assert_array_equal(state[key][1], moments[key][1])
        assert not np.array_equal(after["head_a.weight"], before["head_a.weight"])

    def test_warm_start_mid_run_through_state_dicts(self):
        batches = self._batches(self.STEPS)
        half = self.STEPS // 2
        plain = TwoHeads(0)
        reference = ReferenceAdam(plain.named_parameters(), lr=1e-2)
        self._run(plain, reference, batches, idle_b=(2, 8))

        first = TwoHeads(0)
        adam = nn.Adam(first.named_parameters(), lr=1e-2)
        self._run(first, adam, batches[:half], idle_b=(2, 8))
        resumed = TwoHeads(7)  # other initial weights, overwritten by the load
        resumed_adam = nn.Adam(resumed.named_parameters(), lr=1e-2)
        resumed.load_state_dict(first.state_dict())
        resumed_adam.load_state(adam.state())
        self._run(resumed, resumed_adam, batches[half:], idle_b=(2, 8), start=half)
        assert_states_equal(resumed.state_dict(), plain.state_dict())
        assert_moments_equal(resumed_adam, reference)

    def test_hand_set_gradients_and_rebound_data_are_adopted(self):
        """A step reads whatever ``p.data`` / ``p.grad`` hold, as the
        per-array loop did: a rebound array or a hand-set gradient is
        copied into the vectors, not ignored."""
        packed, plain = nn.Parameter(np.zeros(3)), nn.Parameter(np.zeros(3))
        adam, reference = nn.Adam([packed], lr=0.1), ReferenceAdam([plain], lr=0.1)
        for p, optimizer in ((packed, adam), (plain, reference)):
            p.data = np.array([1.0, -2.0, 3.0])
            p.grad = np.array([0.5, 0.25, -1.0])
            optimizer.step()
        np.testing.assert_array_equal(packed.data, plain.data)
        packed.grad = None
        adam.zero_grad()
        (packed * packed).sum().backward()
        adam.step()
        plain.grad = None
        (plain * plain).sum().backward()
        reference.step()
        np.testing.assert_array_equal(packed.data, plain.data)


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=4, num_tables=4, row_range=(60, 150), attr_range=(2, 3))


@pytest.fixture(scope="module")
def labeled(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=3))
    items = QueryLabeler(db).label_many(generator.generate(10), with_optimal_order=True)
    assert len(items) >= 6
    return items


@pytest.fixture(scope="module")
def featurizer(db):
    feat = DatabaseFeaturizer(db, SMALL)
    feat.train_encoders(queries_per_table=3, epochs=1)
    return feat


def fresh_model(db, featurizer) -> MTMLFQO:
    model = MTMLFQO(SMALL)
    model.attach_featurizer(db.name, featurizer)
    return model


def weights(model) -> dict:
    return {name: p.data.copy() for name, p in model.named_parameters()}


def moved(before: dict, model) -> bool:
    """Did the last step move every parameter it had a gradient for?"""
    pushed = {name for name, p in model.named_parameters() if p.grad is not None and p.grad.any()}
    changed = {name for name, p in model.named_parameters() if not np.array_equal(before[name], p.data)}
    return bool(pushed) and pushed <= changed


class TestTrainer:
    def test_steps_match_the_reference_including_a_step_without_join_order_labels(
        self, db, featurizer, labeled
    ):
        """``JointTrainer`` under ``nn.Adam`` equals the same trainer under
        the per-array loop; the middle step has no join-order label, so
        Trans_JO gets no gradient there and must keep weights and moments."""
        unlabeled = [dataclasses.replace(item, optimal_order=None) for item in labeled[2:4]]
        batches = [labeled[:2], unlabeled, labeled[4:6]]
        packed = JointTrainer(fresh_model(db, featurizer))
        plain = JointTrainer(fresh_model(db, featurizer))
        plain.optimizer = ReferenceAdam(plain.model.named_parameters(), lr=packed.optimizer.lr)
        for batch in batches:
            assert packed._step(db.name, batch) == plain._step(db.name, batch)
        assert_states_equal(packed.model.state_dict(), plain.model.state_dict())
        assert_moments_equal(packed.optimizer, plain.optimizer)

    def test_train_encoders_shares_column_embedding_bitwise(self, db, monkeypatch):
        """Each table's optimizer packs ``column_embedding`` afresh; the
        (F) weights equal the per-array run's."""
        packed = DatabaseFeaturizer(db, SMALL)
        packed.train_encoders(queries_per_table=3, epochs=2)
        monkeypatch.setattr(nn, "Adam", ReferenceAdam)
        plain = DatabaseFeaturizer(db, SMALL)
        plain.train_encoders(queries_per_table=3, epochs=2)
        assert_states_equal(packed.state_dict(), plain.state_dict())


class TestOwnership:
    """Loads, checkpoints and clones leave a model trainable by its optimizer."""

    def test_load_state_dict_writes_in_place(self, db, featurizer, labeled):
        trainer = JointTrainer(fresh_model(db, featurizer))
        donor = fresh_model(db, featurizer)
        JointTrainer(donor)._step(db.name, labeled[:4])
        arrays = [p.data for p in trainer.parameters]
        trainer.model.load_state_dict(donor.state_dict())
        assert all(p.data is array for p, array in zip(trainer.parameters, arrays))
        loaded = weights(trainer.model)
        trainer._step(db.name, labeled[:4])
        assert moved(loaded, trainer.model)

    def test_checkpoint_load_then_train(self, db, featurizer, labeled, tmp_path):
        source = JointTrainer(fresh_model(db, featurizer))
        source._step(db.name, labeled[:4])
        path = source.save_checkpoint(str(tmp_path / "ckpt"))
        loaded = load_checkpoint(path, databases=db)
        trainer = JointTrainer(loaded)
        before = weights(loaded)
        trainer._step(db.name, labeled[:4])
        assert moved(before, loaded)
        resumed = JointTrainer.warm_start(path, databases=db)
        before = weights(resumed.model)
        resumed._step(db.name, labeled[:4])
        assert moved(before, resumed.model)
        # A load into a model under training keeps it trainable, too.
        trainer.model.load_state_dict(load_checkpoint(path, databases=db).state_dict())
        before = weights(trainer.model)
        trainer._step(db.name, labeled[:4])
        assert moved(before, trainer.model)

    def test_clone_for_inference_shares_no_vector(self, db, featurizer, labeled):
        trainer = JointTrainer(fresh_model(db, featurizer))
        clone = trainer.model.clone_for_inference()
        source_before, clone_before = weights(trainer.model), weights(clone)
        trainer._step(db.name, labeled[:4])
        assert moved(source_before, trainer.model)
        assert_states_equal(weights(clone), clone_before)
        source_after = weights(trainer.model)
        JointTrainer(clone)._step(db.name, labeled[:4])
        assert moved(clone_before, clone)
        assert_states_equal(weights(trainer.model), source_after)

    def test_a_trainer_steps_the_model_vector_in_place(self, db, featurizer, labeled):
        """The model owns its (S)/(T) vector: the trainer's Adam adopts it
        as its value vector (no second copy of the values) and a step
        moves ``model.weights`` where it is."""
        model = fresh_model(db, featurizer)
        vector = model.weights
        trainer = JointTrainer(model)
        values = trainer.optimizer._data
        assert values.__array_interface__["data"] == vector.__array_interface__["data"]
        assert values.shape == vector.shape
        assert all(p.data.base is vector.base for p in model.parameters())
        before = vector.copy()
        trainer._step(db.name, labeled[:4])
        assert model.weights is vector and np.shares_memory(values, vector)
        assert not np.array_equal(before, vector)

    def test_clone_weights_are_a_byte_equal_disjoint_copy(self, db, featurizer, labeled):
        source = fresh_model(db, featurizer)
        JointTrainer(source)._step(db.name, labeled[:4])
        clone = source.clone_for_inference()
        assert clone.weights.tobytes() == source.weights.tobytes()
        assert not np.shares_memory(clone.weights, source.weights)
        assert all(np.shares_memory(p.data, clone.weights) for p in clone.parameters())

    @pytest.mark.parametrize("config, digest", [
        (SMALL, "f86199d77bdcd6e693556cab603ee5ec82009bfb22d7b922116ab51449411408"),
        (ModelConfig(), "25968682c09321b7f27125e0dccf64e4529152e63ceb6d5bd1d791b70034603b"),
    ], ids=["small", "default"])
    def test_a_fresh_model_draws_the_pinned_initial_weights(self, config, digest):
        """Only a clone skips the draws: a constructed model's initial
        (S)/(T) vector is pinned byte for byte."""
        assert hashlib.sha256(MTMLFQO(config).weights.tobytes()).hexdigest() == digest

    def test_a_clone_draws_nothing(self, db, featurizer, labeled, monkeypatch):
        source = fresh_model(db, featurizer)
        JointTrainer(source)._step(db.name, labeled[:4])

        def no_generator(*args, **kwargs):
            raise AssertionError("a clone built a generator to draw initial weights")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        clone = source.clone_for_inference()
        assert clone.weights.tobytes() == source.weights.tobytes()
        assert clone.predict_join_orders(db.name, labeled) == source.predict_join_orders(db.name, labeled)

    def test_a_second_optimizer_over_the_same_parameters(self):
        """Packing again (as each ``train_encoders`` table does for the
        shared column embedding) hands the parameters over; stepping the
        first optimizer afterwards takes them back, as the per-array loop
        would have updated them in place."""
        shared = nn.Parameter(np.ones(2))
        plain = nn.Parameter(np.ones(2))
        first, second = nn.Adam([shared], lr=0.1), nn.Adam([shared], lr=0.1)
        ref_first, ref_second = ReferenceAdam([plain], lr=0.1), ReferenceAdam([plain], lr=0.1)
        for optimizer, reference in ((second, ref_second), (first, ref_first), (second, ref_second)):
            for p, opt in ((shared, optimizer), (plain, reference)):
                opt.zero_grad()
                (p * p * p).sum().backward()
                opt.step()
            np.testing.assert_array_equal(shared.data, plain.data)


def test_parameter_vector_reuses_only_a_vector_the_list_fills():
    """Packing the list a vector was laid out for returns that vector;
    a subset, another order or a rebound array gets a new one."""
    a, b = nn.Parameter(np.ones((2, 3))), nn.Parameter(np.arange(5.0))
    vector = nn.parameter_vector([a, b])
    assert vector.shape == (16,) and vector.__array_interface__["data"][0] % 64 == 0
    np.testing.assert_array_equal(vector, [1.0] * 6 + [0.0] * 2 + list(range(5)) + [0.0] * 3)
    address = vector.__array_interface__["data"]
    assert nn.parameter_vector([a, b]).__array_interface__["data"] == address
    for loose in ([a], [b, a]):
        fresh = nn.parameter_vector(loose)
        assert not np.shares_memory(fresh, vector)
        assert all(np.shares_memory(p.data, fresh) for p in loose)
    b.data = np.arange(5.0)  # rebound by hand: [b, a] no longer fills `fresh`
    repacked = nn.parameter_vector([b, a])
    assert not np.shares_memory(repacked, fresh) and np.shares_memory(b.data, repacked)


@pytest.mark.parametrize(
    "param_shape,grad_shape",
    [((6, 5), (4, 6, 5)), ((5,), (3, 4, 5)), ((6, 5), (6, 5)), ((1, 5), (4, 3, 5))],
    ids=["weight-(B,d_in,d_out)", "bias-(B,L,d)", "same-shape", "size-one-axis"],
)
def test_first_gradient_is_reduced_into_the_vector_bit_for_bit(param_shape, grad_shape):
    """A packed parameter's first gradient is summed over its leading
    axes straight into its gradient-vector segment (``out=``); the bytes
    equal ``copyto(_unbroadcast(...))``, signed zeros included."""
    from repro.nn.tensor import _unbroadcast

    rng = np.random.default_rng(8)
    grad = rng.normal(size=grad_shape)
    grad[..., 0] = -0.0  # sums of negative zeros stay negative zeros
    param = nn.Parameter(rng.normal(size=param_shape))
    nn.Adam([param])
    param._accumulate(grad)
    want = np.empty(param_shape)
    np.copyto(want, _unbroadcast(grad, param_shape))
    assert param.grad is param.grad_view
    assert np.array_equal(param.grad, want) and param.grad.tobytes() == want.tobytes()
    param._accumulate(grad)  # a second gradient adds as before
    assert np.array_equal(param.grad, want + _unbroadcast(grad, param_shape))


class TestGuards:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"lr": -1.0},
            {"betas": (1.0, 0.999)},
            {"betas": (0.9, 1.0)},
            {"betas": (-0.1, 0.999)},
            {"eps": 0.0},
            {"eps": -1e-8},
        ],
    )
    def test_adam_rejects_bad_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            nn.Adam([nn.Parameter(np.zeros(2))], **kwargs)

    def test_adam_rejects_a_parameter_listed_twice(self):
        p = nn.Parameter(np.zeros(2))
        with pytest.raises(ValueError, match="more than once"):
            nn.Adam([p, p])

    @pytest.mark.parametrize("learning_rate", [0.0, -1e-3])
    def test_trainer_refuses_a_non_positive_learning_rate(self, db, featurizer, learning_rate):
        with pytest.raises(ValueError, match="lr must be > 0"):
            JointTrainer(fresh_model(db, featurizer), learning_rate=learning_rate)

    def test_trainer_keeps_an_explicit_learning_rate(self, db, featurizer):
        assert JointTrainer(fresh_model(db, featurizer), learning_rate=2e-5).optimizer.lr == 2e-5
        assert JointTrainer(fresh_model(db, featurizer)).optimizer.lr == SMALL.learning_rate

    @pytest.mark.parametrize("learning_rate", [0.0, -1e-3])
    def test_warm_start_refuses_a_non_positive_learning_rate(
        self, db, featurizer, tmp_path, learning_rate
    ):
        path = JointTrainer(fresh_model(db, featurizer)).save_checkpoint(str(tmp_path / "w"))
        with pytest.raises(ValueError, match="lr must be > 0"):
            JointTrainer.warm_start(path, databases=db, learning_rate=learning_rate)

    @pytest.mark.parametrize("field", ["learning_rate", "grad_clip"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_model_config_refuses_non_positive_optimization_knobs(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("max_norm", [0.0, -1.0])
    def test_clip_refuses_a_non_positive_max_norm(self, max_norm):
        w = nn.Parameter(np.zeros(2))
        w.grad = np.array([3.0, 4.0])
        with pytest.raises(ValueError, match="max_norm"):
            nn.clip_grad_norm([w], max_norm)
        np.testing.assert_array_equal(w.grad, [3.0, 4.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_clip_raises_on_a_non_finite_norm_before_scaling(self, bad):
        a, b = nn.Parameter(np.zeros(2)), nn.Parameter(np.zeros(2))
        a.grad = np.array([30.0, 40.0])
        b.grad = np.array([bad, 1.0])
        with pytest.raises(FloatingPointError):
            nn.clip_grad_norm([a, b], 1.0)
        np.testing.assert_array_equal(a.grad, [30.0, 40.0])

    def test_poisoned_gradient_changes_no_weight_or_moment(self, db, featurizer, labeled, monkeypatch):
        trainer = JointTrainer(fresh_model(db, featurizer))
        trainer._step(db.name, labeled[:4])
        before, moments = weights(trainer.model), trainer.optimizer.state()
        poison_batch_losses(monkeypatch)
        with pytest.raises(FloatingPointError):
            trainer._step(db.name, labeled[:4])
        assert_states_equal(weights(trainer.model), before)
        state = trainer.optimizer.state()
        assert state["t"] == moments["t"]
        assert state["m"].tobytes() == moments["m"].tobytes()
        assert state["v"].tobytes() == moments["v"].tobytes()

