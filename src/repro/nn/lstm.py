"""LSTM cells, sequence LSTM and the child-sum Tree-LSTM.

The Tree-LSTM is used by the baseline plan-cost estimator
(:class:`repro.baselines.treelstm.TreeLSTMEstimator`), mirroring the
"Tree-LSTM" SOTA row of the paper's Table 1 (Sun & Li, 2019).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import Linear, Module
from .spec import shape_spec
from .tensor import Tensor

__all__ = ["LSTMCell", "LSTM", "ChildSumTreeLSTM"]


class LSTMCell(Module):
    """Single LSTM step for (batch, dim) inputs."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.ih = Linear(input_dim, 4 * hidden_dim, rng=rng)
        self.hh = Linear(hidden_dim, 4 * hidden_dim, rng=rng)

    @shape_spec(inputs={"x": "(B, input_dim)",
                        "state": ("(B, hidden_dim)", "(B, hidden_dim)")},
                out=("(B, hidden_dim)", "(B, hidden_dim)"),
                params=("ih", "hh"))
    def forward(self, x, state: tuple | None = None) -> tuple:
        if state is None:
            h = c = F.zeros((x.shape[0], self.hidden_dim), like=x)
        else:
            h, c = state
        gates = self.ih(x) + self.hh(h)
        d = self.hidden_dim
        i = F.sigmoid(gates[:, 0 * d: 1 * d])
        f = F.sigmoid(gates[:, 1 * d: 2 * d])
        g = F.tanh(gates[:, 2 * d: 3 * d])
        o = F.sigmoid(gates[:, 3 * d: 4 * d])
        c_new = f * c + i * g
        h_new = o * F.tanh(c_new)
        return h_new, c_new


class LSTM(Module):
    """Unidirectional sequence LSTM over (batch, seq, dim) tensors."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, rng=rng)
        self.hidden_dim = hidden_dim

    @shape_spec(inputs={"x": "(B, L, input_dim)"},
                out="(B, L, hidden_dim)",
                params=("cell",))
    def forward(self, x):
        """Return the stacked hidden states, shape (batch, seq, hidden)."""
        state = None
        outputs = []
        for t in range(x.shape[1]):
            h, c = self.cell(x[:, t, :], state)
            state = (h, c)
            outputs.append(h)
        return F.stack(outputs, axis=1)


class ChildSumTreeLSTM(Module):
    """Child-sum Tree-LSTM (Tai et al. 2015) for binary plan trees.

    ``forward`` consumes a node-feature tensor plus explicit child links
    so whole plan trees can be encoded bottom-up.  For a plan-tree node
    with children states ``(h_l, c_l)`` and ``(h_r, c_r)``, the update is
    the standard child-sum rule with per-child forget gates.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.iou_x = Linear(input_dim, 3 * hidden_dim, rng=rng)
        self.iou_h = Linear(hidden_dim, 3 * hidden_dim, bias=False, rng=rng)
        self.f_x = Linear(input_dim, hidden_dim, rng=rng)
        self.f_h = Linear(hidden_dim, hidden_dim, bias=False, rng=rng)

    @shape_spec(inputs={"x": "(B, input_dim)"},
                out=("(B, hidden_dim)", "(B, hidden_dim)"),
                params=("iou_x", "iou_h", "f_x", "f_h"))
    def node_forward(self, x, child_states: list[tuple]) -> tuple:
        """Compute the (h, c) state of one node given its children's states.

        ``x`` has shape (1, input_dim); children may be empty (leaves).
        """
        if child_states:
            h_sum = child_states[0][0]
            for h, _ in child_states[1:]:
                h_sum = h_sum + h
        else:
            h_sum = F.zeros((x.shape[0], self.hidden_dim), like=x)

        iou = self.iou_x(x) + self.iou_h(h_sum)
        d = self.hidden_dim
        i = F.sigmoid(iou[:, 0 * d: 1 * d])
        o = F.sigmoid(iou[:, 1 * d: 2 * d])
        u = F.tanh(iou[:, 2 * d: 3 * d])

        c = i * u
        fx = self.f_x(x)
        for h_child, c_child in child_states:
            f = F.sigmoid(fx + self.f_h(h_child))
            c = c + f * c_child
        h = o * F.tanh(c)
        return h, c

    def encode_tree(self, features: dict, children: dict, root) -> Tensor:
        """Encode a tree given per-node features and a children mapping.

        Parameters
        ----------
        features:
            Mapping node-id -> (1, input_dim) feature array or Tensor.
        children:
            Mapping node-id -> list of child node-ids.
        root:
            Id of the root node.

        Returns the root hidden state, shape (1, hidden_dim).
        """
        memo: dict = {}

        def visit(node) -> tuple[Tensor, Tensor]:
            if node in memo:
                return memo[node]
            child_states = [visit(c) for c in children.get(node, [])]
            feat = features[node]
            if not isinstance(feat, Tensor):
                feat = Tensor(np.asarray(feat, dtype=np.float64).reshape(1, -1))
            state = self.node_forward(feat, child_states)
            memo[node] = state
            return state

        h, _ = visit(root)
        return h
