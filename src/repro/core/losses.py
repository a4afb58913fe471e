"""MTMLF-QO loss criteria.

- :func:`node_qerror_loss` — L.i/L.ii: smooth q-error surrogate over the
  per-node cardinality / cost predictions;
- :func:`sequence_log_probs` — ``log p(u | x)`` for a batch of orders
  off one teacher-forced Trans_JO forward; weighted ``-1 / m`` per row
  it is L.iii, the token-level cross entropy (see ``JointTrainer``);
- :func:`joint_loss` — Equation 1: ``w_card*L_card + w_cost*L_cost +
  w_jo*L_jo``;
- :func:`sequence_level_loss` — Equation 3: the JOEU-weighted
  sequence-level criterion over the beam-search candidates of a whole
  step's queries (Section 5), with bounded penalties.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from .beam import BeamCandidate
from .joeu import joeu

__all__ = [
    "node_qerror_loss",
    "joint_loss",
    "sequence_level_loss",
    "sequence_log_probs",
]


def node_qerror_loss(
    log_predictions: nn.Tensor, true_values: np.ndarray, mask: np.ndarray | None = None, floor: float = 1.0
) -> nn.Tensor:
    """Mean |log pred - log true| over (batch, nodes) predictions.

    Minimising the absolute log difference minimises the geometric-mean
    q-error ``max(pred/true, true/pred)`` (L.i / L.ii of the paper).
    """
    true = np.maximum(np.asarray(true_values, dtype=np.float64), floor)
    diff = (log_predictions - nn.Tensor(np.log(true))).abs()
    if mask is not None:
        weights = np.asarray(mask, dtype=np.float64)
        count = max(float(weights.sum()), 1.0)
        return (diff * nn.Tensor(weights)).sum() * (1.0 / count)
    return diff.mean()


def joint_loss(
    card_loss: nn.Tensor | None,
    cost_loss: nn.Tensor | None,
    jo_loss: nn.Tensor | None,
    w_card: float = 1.0,
    w_cost: float = 1.0,
    w_jo: float = 1.0,
) -> nn.Tensor:
    """Equation 1: the weighted multi-task training criterion.

    Tasks may be disabled (for the single-task ablations) by passing
    None or a zero weight.
    """
    total: nn.Tensor | None = None
    for loss, weight in ((card_loss, w_card), (cost_loss, w_cost), (jo_loss, w_jo)):
        if loss is None or weight == 0.0:
            continue
        term = loss * weight
        total = term if total is None else total + term
    if total is None:
        raise ValueError("all tasks disabled: nothing to optimize")
    return total


def sequence_log_probs(trans_jo, memory: nn.Tensor, targets: np.ndarray, lengths: np.ndarray) -> nn.Tensor:
    """Differentiable ``log p(u_b | x_b)`` for every row b, shape (B,).

    One teacher-forced decoder forward over the whole (B, m) ``targets``
    matrix; each row's log-probability is the sum of its stepwise ones.
    ``lengths[b]`` is row b's table count: its memory slots and
    timestamps past it are padding and are not read.
    """
    real = np.arange(targets.shape[1]) < lengths[:, None]
    logits = trans_jo(memory, targets, ~real)
    picked = F.one_hot(targets, targets.shape[1]) * real[:, :, None]
    return (F.log_softmax(logits, axis=-1) * nn.Tensor(picked)).sum(axis=(-1, -2))


def sequence_level_loss(
    trans_jo,
    memory: nn.Tensor,
    optimal_positions: list[list[int]],
    candidates: list[list[BeamCandidate]],
    penalty: float = 4.0,
) -> nn.Tensor:
    """Equation 3, the sequence-level join-order criterion, in its
    bounded (expected-risk) form, averaged over the queries of a step:

    ``L = -log p(u*|x) + sum_{u in U(x)} (1 - JOEU(u, u*)) q(u|x)
    + lambda * sum_{u in U̅(x)} q(u|x)``

    where U(x) are the *legal* beam candidates, U̅(x) the illegal ones,
    u* the optimal order and ``q`` is ``p`` renormalised over
    U(x) ∪ U̅(x) ∪ {u*}.  The second term suppresses legal but suboptimal
    orders in proportion to how early they diverge; the third suppresses
    illegal orders with weight ``penalty``.  The paper prints both with
    ``log p``, which is unbounded below (any candidate driven to
    probability 0 sends the loss to -inf) and swamps ``-log p(u*|x)``.
    ``memory`` is the padded (Q, m_max, d) batch, row q serving
    ``optimal_positions[q]`` and ``candidates[q]``; every u* and every
    candidate of the step are scored by one decoder forward.
    """
    orders, rows, risks, stars = [], [], [], []
    for row, (optimal, beam) in enumerate(zip(optimal_positions, candidates)):
        scored = [c for c in beam if c.positions != optimal]
        stars.append(len(orders))
        orders += [optimal] + [c.positions for c in scored]
        risks += [0.0] + [1.0 - joeu(c.positions, optimal) if c.legal else penalty for c in scored]
        rows += [row] * (1 + len(scored))
    rows = np.asarray(rows)
    targets, lengths = F.pad_index_sequences(orders)
    log_probs = sequence_log_probs(trans_jo, memory[rows], targets, lengths)
    # Column q of ``own`` marks query q's orders; the softmax down it is q(.|x).
    own = rows[:, None] == np.arange(len(stars))
    spread = log_probs.reshape(-1, 1) * nn.Tensor(own.astype(np.float64))
    shares = F.softmax(F.masked_fill(spread, ~own, -1e9), axis=0)
    expected_risk = (shares * nn.Tensor(np.asarray(risks)[:, None])).sum()
    return (expected_risk - log_probs[stars].sum()) * (1.0 / len(stars))
