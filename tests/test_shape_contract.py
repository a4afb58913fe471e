"""The ``@shape_spec`` contract (tests/shape_contract.py) checks itself.

- **declarations** — every substrate layer and kernel still carries a
  spec, on exactly one mode-neutral body, and the decorator adds nothing
  to the production path;
- **sensitivity** — under ``enforce()`` a wrong declared shape, a wrong
  dtype, a wrong class-bound dim, a stale ``params=`` name and the
  ``Embedding`` spec this repo shipped for nine PRs each raise;
- **coverage** — one compact pass reaches every declaration found under
  ``repro.nn`` / ``repro.core`` with zero violations, so an annotated
  layer nothing drives fails here instead of going unchecked.  The five
  opted-in suites (``shape_contracts`` fixture) add the breadth of
  shapes: ragged batches, beam widths 1-8, padded memories.
"""

import inspect

import numpy as np
import pytest

import repro.core.model
import repro.nn as nn
from repro.baselines import TreeLSTMEstimator
from repro.core import MTMLFQO, JointTrainer, ModelConfig
from repro.core.encoders import DatabaseFeaturizer
from repro.datagen import generate_database
from repro.nn import functional as F
from repro.nn import kernels, positional
from repro.nn.spec import shape_spec
from repro.sql import Conjunction
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator
from shape_contract import ShapeContractError, annotated_callables, enforce

TINY = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)

# Every param-bearing layer of the substrate and its annotated methods.
LAYER_METHODS = {
    "Linear": {"forward"},
    "LayerNorm": {"forward"},
    "Embedding": {"forward"},
    "MLP": {"forward"},
    "ChildSumTreeLSTM": {"node_forward"},
    "MultiHeadAttention": {"forward", "project_kv"},
    "TransformerEncoderLayer": {"forward"},
    "TransformerEncoder": {"forward"},
    "TransformerDecoderLayer": {"forward"},
    "TransformerDecoder": {"forward", "project_memory_kv"},
}


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=1, num_tables=4, row_range=(40, 80), attr_range=(2, 2))


class TestLayerSpecs:
    @pytest.mark.parametrize("layer", sorted(LAYER_METHODS))
    def test_layer_is_annotated(self, layer):
        cls = getattr(nn, layer)
        for method in LAYER_METHODS[layer]:
            assert hasattr(getattr(cls, method), "__shape_spec__"), (
                f"{layer}.{method} lost its @shape_spec"
            )
        assert not [name for name in dir(cls) if name.startswith("infer_")]

    # The layers that run both on the tape and on raw ndarrays.
    DUAL_MODE = sorted(
        layer for layer in LAYER_METHODS if layer not in ("Embedding", "ChildSumTreeLSTM")
    )

    @pytest.mark.parametrize("layer", DUAL_MODE)
    def test_one_mode_neutral_body(self, layer):
        """No second ``forward`` whose spec, parameter reads or op order
        could drift from the first: the body is mode-neutral."""
        forward = getattr(nn, layer).forward
        assert forward.__shape_spec__["out"] is not None and forward.__shape_spec__["params"]
        source = inspect.getsource(forward)
        assert "no_tape_active" not in source and "is_grad_enabled" not in source
        assert "kernels." not in source and "_wrap" not in source

    def test_kernels_are_annotated(self):
        for kernel in ("matmul", "linear", "layer_norm", "relu", "sigmoid",
                       "softmax", "log_softmax", "masked_fill"):
            assert hasattr(getattr(kernels, kernel), "__shape_spec__"), (
                f"kernels.{kernel} lost its @shape_spec"
            )

    def test_positional_encodings_are_annotated(self):
        assert nn.tree_path_encoding.__shape_spec__["out"] == "(dim,)"
        assert nn.tree_layout_encoding.__shape_spec__["out"] == "(L, dim)"

    def test_decorator_returns_the_function_itself(self):
        def body(x):
            return x

        assert shape_spec(inputs={"x": "(B,)"}, out="(B,)")(body) is body


class TestSensitivity:
    def test_wrong_declared_out_raises(self, monkeypatch):
        monkeypatch.setitem(nn.Linear.forward.__shape_spec__, "out", "(..., in_features)")
        with enforce(), pytest.raises(
            ShapeContractError, match=r"Linear\.forward -> out: .*in_features=5, got \(7, 3\)"
        ):
            nn.Linear(5, 3)(nn.Tensor(np.zeros((7, 5))))

    def test_wrong_dtype_raises(self):
        x = np.zeros((2, 3))
        with enforce():
            F.masked_fill(x, np.zeros((2, 3), dtype=bool), -1.0)
            with pytest.raises(ShapeContractError, match=r"masked_fill\(mask\): declared bool, got int64"):
                F.masked_fill(x, np.zeros((2, 3), dtype=np.int64), -1.0)

    def test_class_symbols_bind_from_the_instance(self):
        attention = nn.MultiHeadAttention(8, 2)
        x = np.zeros((3, 5, 8))
        with enforce():
            assert attention.project_kv(x)[0].shape == (3, 5, 8)
            with pytest.raises(ShapeContractError, match=r"project_kv\(key\): .*dim=8"):
                attention.project_kv(np.zeros((3, 5, 6)))
            # A kernel has no instance: its int arguments bind instead.
            heads = np.zeros((3, 2, 5, 5), dtype=bool)
            assert F.attention(x, x, x, 2, 0.5, heads).shape == (3, 5, 8)
            with pytest.raises(ShapeContractError, match=r"attention\(mask\): .*heads=2"):
                F.attention(x, x, x, 2, 0.5, np.zeros((3, 4, 5, 5), dtype=bool))

    def test_stale_params_name_raises(self, monkeypatch):
        monkeypatch.setitem(nn.LayerNorm.forward.__shape_spec__, "params", ("gamma", "shift"))
        with enforce(), pytest.raises(ShapeContractError, match="LayerNorm.forward: params names `shift`"):
            nn.LayerNorm(4)(nn.Tensor(np.zeros((2, 4))))

    def test_embedding_declares_the_ranks_its_callers_pass(self, db, monkeypatch):
        """From PR 9 on the spec read ``(B, L) -> (B, L, dim)``; every
        production caller passes a rank-1 id vector."""
        featurizer = DatabaseFeaturizer(db, TINY)
        conjunction = Conjunction(table=db.table_names[0], predicates=())
        with enforce():
            assert featurizer.encode_filter(conjunction).shape == (1, TINY.d_model)
            monkeypatch.setitem(nn.Embedding.forward.__shape_spec__["inputs"], "indices", "(B, L)")
            with pytest.raises(ShapeContractError, match=r"Embedding\.forward\(indices\)"):
                featurizer.encode_filter(conjunction)


class TestEnforce:
    def test_every_binding_is_rebound_and_restored(self):
        linear, layout_encoding = nn.Linear.forward, nn.tree_layout_encoding
        with enforce():
            assert nn.Linear.forward.__wrapped__ is linear
            assert repro.core.model.tree_layout_encoding.__wrapped__ is layout_encoding  # a by-name import
        assert nn.Linear.forward is linear and repro.core.model.tree_layout_encoding is layout_encoding
        # This module has not opted in: outside enforce() nothing is wrapped.
        assert not [name for name, fn in annotated_callables().items() if hasattr(fn, "__wrapped__")]

    def test_one_compact_pass_reaches_every_declaration(self, db, monkeypatch):
        # A plan shape interned by an earlier test would skip its
        # per-position tree_path_encoding calls: start with no layouts.
        monkeypatch.setattr(positional, "_TREE_LAYOUT_CACHE", {})
        generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=3, seed=0))
        labeled = QueryLabeler(db).label_many(generator.generate(6), with_optimal_order=True)
        declared = set(annotated_callables())
        assert len(declared) >= 28, "discovery lost declarations"
        with enforce() as calls:
            featurizer = DatabaseFeaturizer(db, TINY)
            featurizer.train_encoders(queries_per_table=2, epochs=1)
            model = MTMLFQO(TINY)
            model.attach_featurizer(db.name, featurizer)
            # the tape: one joint epoch over all three tasks
            JointTrainer(model).train([(db.name, item) for item in labeled], epochs=1, batch_size=4, seed=0)
            # the kernels: batched beam decode through a session, then the heads
            session = model.inference_session(db.name)
            session.predict_join_orders(labeled)
            session.predict_cardinalities(labeled)
            session.predict_costs(labeled)
            TreeLSTMEstimator(db, hidden_dim=8, seed=0).fit(labeled[:2], epochs=1)  # kernels.sigmoid
        assert declared - set(calls) == set(), "annotated but never called"
