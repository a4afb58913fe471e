"""The child-sum Tree-LSTM.

It is used by the baseline plan-cost estimator
(:class:`repro.baselines.treelstm.TreeLSTMEstimator`), mirroring the
"Tree-LSTM" SOTA row of the paper's Table 1 (Sun & Li, 2019).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import Linear, Module
from .spec import shape_spec

__all__ = ["ChildSumTreeLSTM"]


class ChildSumTreeLSTM(Module):
    """Child-sum Tree-LSTM (Tai et al. 2015) for binary plan trees.

    ``node_forward`` computes one node's state from its features and its
    children's states, so callers encode whole plan trees bottom-up.  For
    a plan-tree node with children states ``(h_l, c_l)`` and
    ``(h_r, c_r)``, the update is the standard child-sum rule with
    per-child forget gates.
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
