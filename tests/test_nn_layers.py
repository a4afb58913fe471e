"""Tests for nn layers, attention, transformers, LSTMs, optimizers, losses."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import functional as F

pytestmark = pytest.mark.usefixtures("shape_contracts")  # tests/shape_contract.py


RNG = np.random.default_rng(11)


class TestLinearAndMLP:
    def test_linear_shapes(self):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        out = layer(nn.Tensor(RNG.normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_linear_batched_input(self):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        out = layer(nn.Tensor(RNG.normal(size=(2, 7, 5))))
        assert out.shape == (2, 7, 3)

    def test_linear_no_bias(self):
        layer = nn.Linear(4, 4, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_mlp_learns_xor(self):
        """A tiny MLP must be able to fit XOR — end-to-end training check."""
        rng = np.random.default_rng(3)
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.float64)
        y = np.array([0.0, 1.0, 1.0, 0.0])
        mlp = nn.MLP([2, 16, 1], rng=rng)
        opt = nn.Adam(mlp.parameters(), lr=3e-2)
        for _ in range(400):
            opt.zero_grad()
            pred = mlp(nn.Tensor(x)).reshape(4)
            diff = pred - nn.Tensor(y)
            loss = (diff * diff).mean()
            loss.backward()
            opt.step()
        final = mlp(nn.Tensor(x)).reshape(4).data
        assert np.abs(final - y).max() < 0.1

    def test_mlp_requires_two_dims(self):
        with pytest.raises(ValueError):
            nn.MLP([4])


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        ln = nn.LayerNorm(8)
        out = ln(nn.Tensor(RNG.normal(loc=5.0, scale=3.0, size=(4, 8))))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), atol=1e-3)

    def test_gradients_flow(self):
        ln = nn.LayerNorm(6)
        x = nn.Tensor(RNG.normal(size=(3, 6)), requires_grad=True)
        (ln(x) * ln(x)).sum().backward()
        assert x.grad is not None
        assert ln.gamma.grad is not None
        assert ln.beta.grad is not None


class TestEmbedding:
    def test_embedding_lookup(self):
        emb = nn.Embedding(10, 4)
        out = emb(np.array([1, 3, 1]))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out.data[0], out.data[2])

    def test_embedding_out_of_range(self):
        emb = nn.Embedding(5, 2)
        with pytest.raises(IndexError):
            emb(np.array([7]))

    def test_embedding_grad_accumulates(self):
        emb = nn.Embedding(6, 3)
        out = emb(np.array([2, 2]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[2], 2 * np.ones(3))


class TestModuleMechanics:
    def test_named_parameters_nested(self):
        model = nn.TransformerEncoder(8, 2, 2, rng=np.random.default_rng(0))
        names = [n for n, _ in model.named_parameters()]
        assert "layers.items.0.ff1.weight" in names
        assert "layers.items.1.norm1.gamma" in names

    def test_state_dict_roundtrip(self):
        a = nn.MLP([3, 5, 2], rng=np.random.default_rng(1))
        b = nn.MLP([3, 5, 2], rng=np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        x = nn.Tensor(RNG.normal(size=(4, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_mismatch_raises(self):
        a = nn.Linear(3, 3)
        b = nn.Linear(4, 4)
        with pytest.raises((KeyError, ValueError)):
            b.load_state_dict(a.state_dict())

    def test_save_load_path_symmetric_and_returned(self, tmp_path):
        """np.savez appends .npz; save and load must resolve identically."""
        from repro.nn.serialize import atomic_savez, resolve_npz_path

        a = nn.MLP([3, 4, 2], rng=np.random.default_rng(1))
        written = atomic_savez(str(tmp_path / "ckpt"), a.state_dict())
        assert written == str(tmp_path / "ckpt.npz")
        assert (tmp_path / "ckpt.npz").exists()
        # Saving to an explicit .npz path must not produce ckpt.npz.npz,
        # and overwriting in place leaves no temporary file behind.
        explicit = atomic_savez(str(tmp_path / "other.npz"), a.state_dict())
        assert explicit == str(tmp_path / "other.npz")
        atomic_savez(explicit, a.state_dict())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz", "other.npz"]
        # Loading resolves the same way from either spelling.
        for spec in ("ckpt", "ckpt.npz"):
            b = nn.MLP([3, 4, 2], rng=np.random.default_rng(9))
            with np.load(resolve_npz_path(str(tmp_path / spec))) as archive:
                b.load_state_dict({key: archive[key] for key in archive.files})
            x = nn.Tensor(RNG.normal(size=(2, 3)))
            np.testing.assert_array_equal(a(x).data, b(x).data)


class _DictHolder(nn.Module):
    """Regression rig: sub-modules and parameters stored in dicts."""

    def __init__(self):
        super().__init__()
        self.blocks = {
            "beta": nn.Linear(2, 2, rng=np.random.default_rng(1)),
            "alpha": nn.ModuleList(),  # parameter-less
        }
        self.extras = {"scale": nn.Parameter(np.ones(3))}


class TestDictSubmodules:
    """Modules stored in dict attributes must be traversed like lists
    (they were silently skipped before, so dict-held weights were never
    saved)."""

    def test_named_parameters_traverses_dicts(self):
        holder = _DictHolder()
        names = [n for n, _ in holder.named_parameters()]
        assert names == ["blocks.beta.weight", "blocks.beta.bias", "extras.scale"]

    def test_dict_iteration_order_is_sorted_not_insertion(self):
        holder = _DictHolder()  # inserts "beta" before "alpha"
        reordered = _DictHolder()
        reordered.blocks = dict(sorted(holder.blocks.items()))
        assert [n for n, _ in holder.named_parameters()] == [
            n for n, _ in reordered.named_parameters()
        ]

    def test_state_dict_roundtrip_through_dicts(self):
        a, b = _DictHolder(), _DictHolder()
        a.blocks["beta"].weight.data[:] = 7.0
        a.extras["scale"].data[:] = -2.0
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(b.blocks["beta"].weight.data, a.blocks["beta"].weight.data)
        np.testing.assert_array_equal(b.extras["scale"].data, a.extras["scale"].data)

    def test_database_featurizer_uses_base_traversal(self):
        """The (F) module's encoders dict is covered by the base class."""
        from repro.core import DatabaseFeaturizer, ModelConfig
        from repro.datagen import generate_database

        db = generate_database(seed=1, num_tables=3, row_range=(20, 40), attr_range=(2, 2))
        feat = DatabaseFeaturizer(db, ModelConfig(d_model=16, num_heads=2, encoder_layers=1))
        names = [n for n, _ in feat.named_parameters()]
        assert any(n.startswith("column_embedding.") for n in names)
        for table in db.table_names:
            assert any(n.startswith(f"encoders.{table}.") for n in names)


class TestOptimizerStateDict:
    """Adam warm-start state is its moment vectors plus their layout, and
    loads only onto an optimizer of the same layout."""

    @staticmethod
    def _fit_step(opt, params):
        for p in params:
            p.grad = np.full_like(p.data, 0.25)
        opt.step()

    def test_state_roundtrip_produces_identical_steps(self):
        a_params = [nn.Parameter(np.zeros(3)), nn.Parameter(np.ones((2, 2)))]
        b_params = [nn.Parameter(np.zeros(3)), nn.Parameter(np.ones((2, 2)))]
        a = nn.Adam([("x", a_params[0]), ("y", a_params[1])], lr=1e-2)
        b = nn.Adam([("x", b_params[0]), ("y", b_params[1])], lr=1e-2)
        for _ in range(3):
            self._fit_step(a, a_params)
        b.load_state(a.state())
        assert b._t == a._t
        for pa, pb in zip(a_params, b_params):  # weights travel separately
            pb.data = pa.data.copy()
        self._fit_step(a, a_params)
        self._fit_step(b, b_params)
        for pa, pb in zip(a_params, b_params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_grown_parameter_set_raises_clear_error(self):
        """The attach_featurizer scenario: state saved before the set grew
        must refuse to load, not silently misalign by position."""
        base = [("shared.w", nn.Parameter(np.zeros(2)))]
        saved = nn.Adam(base, lr=1e-2).state()
        grown = nn.Adam(
            [("featurizer.emb", nn.Parameter(np.zeros(4)))] + base, lr=1e-2
        )
        with pytest.raises(ValueError, match="entry 0 is \\('shared.w', \\(2,\\)\\) in the saved layout"):
            grown.load_state(saved)

    def test_positional_fallback_detects_mismatch(self):
        saved = nn.Adam([nn.Parameter(np.zeros(2))]).state()
        grown = nn.Adam([nn.Parameter(np.zeros(2)), nn.Parameter(np.zeros(3))])
        with pytest.raises(ValueError, match="entry 1 is None in the saved layout, \\('1', \\(3,\\)\\)"):
            grown.load_state(saved)

    def test_shape_mismatch_raises(self):
        """Reshaped at equal size: the moment vectors would fit, the
        layout says they belong to other floats."""
        saved = nn.Adam([("w", nn.Parameter(np.zeros((2, 3))))]).state()
        other = nn.Adam([("w", nn.Parameter(np.zeros((3, 2))))])
        assert other.state()["m"].shape == saved["m"].shape
        with pytest.raises(ValueError, match="entry 0 is \\('w', \\(2, 3\\)\\)"):
            other.load_state(saved)

    def test_renamed_entry_raises_naming_it(self):
        saved = nn.Adam([("a", nn.Parameter(np.zeros(2))), ("b", nn.Parameter(np.zeros(3)))]).state()
        other = nn.Adam([("a", nn.Parameter(np.zeros(2))), ("c", nn.Parameter(np.zeros(3)))])
        with pytest.raises(ValueError, match="entry 1 is \\('b', \\(3,\\)\\) in the saved layout, \\('c'"):
            other.load_state(saved)

    def test_reordered_entries_raise_naming_the_first(self):
        saved = nn.Adam([("a", nn.Parameter(np.zeros(2))), ("b", nn.Parameter(np.zeros(2)))]).state()
        other = nn.Adam([("b", nn.Parameter(np.zeros(2))), ("a", nn.Parameter(np.zeros(2)))])
        with pytest.raises(ValueError, match="entry 0 is \\('a', \\(2,\\)\\) in the saved layout, \\('b'"):
            other.load_state(saved)

    def test_moment_vector_of_another_size_raises(self):
        adam = nn.Adam([("w", nn.Parameter(np.zeros(2)))])
        state = adam.state()
        state["m"] = np.zeros(1)  # would broadcast into the 8-float vector
        with pytest.raises(ValueError, match="optimizer state m has shape"):
            adam.load_state(state)

    def test_duplicate_names_rejected(self):
        p = nn.Parameter(np.zeros(1))
        with pytest.raises(ValueError, match="duplicate"):
            nn.Adam([("w", p), ("w", nn.Parameter(np.zeros(1)))])


class TestAttention:
    def test_output_shape(self):
        attn = nn.MultiHeadAttention(16, 4, rng=np.random.default_rng(0))
        x = nn.Tensor(RNG.normal(size=(2, 5, 16)))
        assert attn(x).shape == (2, 5, 16)

    def test_dim_head_mismatch(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(10, 3)

    def test_causal_mask_blocks_future(self):
        mask = nn.causal_mask(4)
        assert mask[0, 1] and mask[2, 3]
        assert not mask[1, 0] and not mask[3, 3]

    def test_padding_mask_ignores_padded_keys(self):
        """Changing a padded position must not change unpadded outputs."""
        attn = nn.MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        x1 = RNG.normal(size=(1, 4, 8))
        x2 = x1.copy()
        x2[0, 3] = RNG.normal(size=8)  # perturb the padded slot
        pad = np.array([[False, False, False, True]])
        out1 = attn(nn.Tensor(x1), key_padding_mask=pad).data
        out2 = attn(nn.Tensor(x2), key_padding_mask=pad).data
        np.testing.assert_allclose(out1[0, :3], out2[0, :3], atol=1e-10)

    def test_fully_masked_row_no_nan(self):
        attn = nn.MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        pad = np.array([[True, True, True]])
        out = attn(nn.Tensor(RNG.normal(size=(1, 3, 8))), key_padding_mask=pad)
        assert np.isfinite(out.data).all()

    def test_gradients_flow_through_attention(self):
        attn = nn.MultiHeadAttention(8, 2, rng=np.random.default_rng(0))
        x = nn.Tensor(RNG.normal(size=(1, 3, 8)), requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0


class TestTransformer:
    def test_encoder_shapes(self):
        enc = nn.TransformerEncoder(16, 4, 2, rng=np.random.default_rng(0))
        x = nn.Tensor(RNG.normal(size=(3, 6, 16)))
        assert enc(x).shape == (3, 6, 16)

    def test_decoder_shapes(self):
        dec = nn.TransformerDecoder(16, 4, 2, rng=np.random.default_rng(0))
        tgt = nn.Tensor(RNG.normal(size=(2, 4, 16)))
        mem = nn.Tensor(RNG.normal(size=(2, 7, 16)))
        assert dec(tgt, mem).shape == (2, 4, 16)

    def test_decoder_causality(self):
        """Perturbing future target positions must not change earlier outputs."""
        dec = nn.TransformerDecoder(8, 2, 2, rng=np.random.default_rng(0))
        mem = nn.Tensor(RNG.normal(size=(1, 5, 8)))
        tgt1 = RNG.normal(size=(1, 4, 8))
        tgt2 = tgt1.copy()
        tgt2[0, 3] += 10.0
        out1 = dec(nn.Tensor(tgt1), mem).data
        out2 = dec(nn.Tensor(tgt2), mem).data
        np.testing.assert_allclose(out1[0, :3], out2[0, :3], atol=1e-8)

    def test_encoder_trains(self):
        """Encoder + readout can fit a simple aggregate function."""
        rng = np.random.default_rng(5)
        enc = nn.TransformerEncoder(8, 2, 1, rng=rng)
        head = nn.Linear(8, 1, rng=rng)
        params = enc.parameters() + head.parameters()
        opt = nn.Adam(params, lr=1e-2)
        x = rng.normal(size=(16, 3, 8))
        y = x.sum(axis=(1, 2))
        losses = []
        for _ in range(60):
            opt.zero_grad()
            hidden = enc(nn.Tensor(x))
            pred = head(hidden.mean(axis=1)).reshape(16)
            diff = pred - nn.Tensor(y)
            loss = (diff * diff).mean()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.25


class TestLSTM:
    @staticmethod
    def _root_hidden(tree, leaves, root):
        """Root ``h`` of a two-leaf tree, encoded bottom-up by ``node_forward``."""
        child_states = [tree.node_forward(nn.Tensor(leaf), []) for leaf in leaves]
        h, _ = tree.node_forward(nn.Tensor(root), child_states)
        return h

    def test_tree_lstm_leaf_and_internal(self):
        tree = nn.ChildSumTreeLSTM(4, 6, rng=np.random.default_rng(0))
        leaves = [RNG.normal(size=(1, 4)), RNG.normal(size=(1, 4))]
        h = self._root_hidden(tree, leaves, RNG.normal(size=(1, 4)))
        assert h.shape == (1, 6)

    def test_tree_lstm_depends_on_children(self):
        tree = nn.ChildSumTreeLSTM(3, 5, rng=np.random.default_rng(0))
        ones = np.ones((1, 3))
        h1 = self._root_hidden(tree, [ones, ones], ones)
        h2 = self._root_hidden(tree, [ones * 2.0, ones], ones)
        assert np.abs(h1.data - h2.data).max() > 1e-6


class TestOptimizers:
    def _quadratic_descent(self, make_opt) -> float:
        w = nn.Parameter(np.array([5.0, -3.0]))
        opt = make_opt([w])
        for _ in range(200):
            opt.zero_grad()
            loss = (w * w).sum()
            loss.backward()
            opt.step()
        return float(np.abs(w.data).max())

    def test_adam_converges(self):
        assert self._quadratic_descent(lambda p: nn.Adam(p, lr=0.2)) < 1e-2

    def test_clip_grad_norm(self):
        w = nn.Parameter(np.zeros(3))
        w.grad = np.array([3.0, 4.0, 0.0])
        norm = nn.clip_grad_norm([w], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(np.linalg.norm(w.grad), 1.0)

    def test_clip_noop_below_threshold(self):
        w = nn.Parameter(np.zeros(2))
        w.grad = np.array([0.3, 0.4])
        nn.clip_grad_norm([w], max_norm=1.0)
        np.testing.assert_allclose(w.grad, [0.3, 0.4])


class TestLosses:
    def test_q_error_always_geq_one(self):
        q = nn.q_error(np.array([10.0, 2.0, 5.0]), np.array([5.0, 20.0, 5.0]))
        assert (q >= 1.0).all()
        np.testing.assert_allclose(q, [2.0, 10.0, 1.0])

    def test_q_error_floor_clamps_small_values(self):
        # Cardinalities below the floor are treated as the floor (standard
        # CardEst convention: zero-result queries count as cardinality 1).
        q = nn.q_error(np.array([0.1]), np.array([1.0]))
        np.testing.assert_allclose(q, [1.0])

    def test_q_error_symmetry(self):
        a, b = np.array([20.0]), np.array([4.0])
        np.testing.assert_allclose(nn.q_error(a, b), nn.q_error(b, a))

    def test_cross_entropy_perfect_prediction(self):
        logits = nn.Tensor(np.array([[100.0, 0.0, 0.0]]), requires_grad=True)
        loss = nn.cross_entropy(logits, np.array([0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_uniform(self):
        logits = nn.Tensor(np.zeros((2, 4)), requires_grad=True)
        loss = nn.cross_entropy(logits, np.array([1, 2]))
        assert loss.item() == pytest.approx(np.log(4.0))

    def test_cross_entropy_mask(self):
        logits = nn.Tensor(np.zeros((2, 4)), requires_grad=True)
        loss = nn.cross_entropy(logits, np.array([1, 2]), mask=np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(np.log(4.0))

    def test_cross_entropy_empty_mask_raises(self):
        logits = nn.Tensor(np.zeros((2, 4)), requires_grad=True)
        with pytest.raises(ValueError):
            nn.cross_entropy(logits, np.array([1, 2]), mask=np.zeros(2))


class TestPositional:
    def test_tree_position_navigation(self):
        root = nn.TreePosition()
        assert root.left().path == (0,)
        assert root.left().right().path == (0, 1)
        assert root.left().right().depth == 2

    def test_tree_position_invalid_step(self):
        with pytest.raises(ValueError):
            nn.TreePosition((2,))

    def test_tree_path_encoding_distinguishes_siblings(self):
        left = nn.tree_path_encoding(nn.TreePosition((0,)), 8)
        right = nn.tree_path_encoding(nn.TreePosition((1,)), 8)
        assert np.abs(left - right).max() > 0

    def test_tree_path_encoding_root_is_zero(self):
        np.testing.assert_allclose(nn.tree_path_encoding(nn.TreePosition(), 8), np.zeros(8))
