"""Test-side reference for Trans_JO training: one decoder forward per order.

Not production code (``src/`` trains on one padded teacher-forced forward
per step, ``TransJO.forward`` + ``core.losses.sequence_log_probs``).
This is the loop that forward replaced, kept — with the same standing as
``tests/sequential_oracle.py`` — so the batched losses have something
independent to be compared against:

- :func:`teacher_forced_logits` — the single-query ``(1, m, d)`` →
  ``(m, m)`` teacher-forced read, unpadded;
- :func:`sequence_log_prob` / :func:`sequence_level_loss` — Equation 3
  with one such forward per candidate;
- :class:`PerQueryTrainer` — a ``JointTrainer`` whose ``_batch_losses``
  runs that forward once per labeled query and averages the per-query
  token cross entropies (the two token-level criteria only).

Padding changes gemm shapes, so the two agree to the padded-batch
contract of DESIGN.md section 2 (loss 1e-12, gradients
``rtol=1e-9, atol=1e-15``, identical served orders), not bit for bit.
"""

import numpy as np

import repro.nn as nn
from repro.core import JointTrainer, joeu, joint_loss, node_qerror_loss
from repro.core.trainer import _COST_FLOOR, order_positions, planner_order_positions
from repro.nn import functional as F


def teacher_forced_logits(trans_jo, memory: nn.Tensor, positions: list[int]) -> nn.Tensor:
    """Row t: the logits for timestamp t given the true prefix."""
    m = memory.shape[1]
    inputs = [trans_jo.start_token.reshape(1, 1, -1)]
    for position in positions[:-1]:
        inputs.append(memory[:, position: position + 1, :])
    x = F.concat(inputs, axis=1) if len(inputs) > 1 else inputs[0]
    hidden = trans_jo.decoder(x, memory)          # (1, m, d) causal
    keys = trans_jo.pointer_proj(memory)          # (1, m, d)
    logits = (hidden @ keys.swapaxes(-1, -2)) * trans_jo.logit_scale
    return logits.reshape(len(positions), m)


def sequence_log_prob(trans_jo, memory: nn.Tensor, positions: list[int]) -> nn.Tensor:
    """Differentiable log p(u | x): sum of stepwise log-probabilities."""
    logits = teacher_forced_logits(trans_jo, memory, positions)
    log_probs = F.log_softmax(logits, axis=-1)
    onehot = F.one_hot(np.asarray(positions, dtype=np.int64), logits.shape[-1])
    return (log_probs * nn.Tensor(onehot)).sum()


def sequence_level_loss(trans_jo, memory, optimal_positions, candidates, penalty=4.0) -> nn.Tensor:
    """Equation 3 (bounded form) for one query, one teacher-forced
    forward per candidate: ``-log p(u*)`` plus the candidate set's
    expected risk under ``p`` renormalised over the set and ``u*`` —
    risk ``1 - JOEU`` for a legal order, ``penalty`` for an illegal one."""
    log_ps = [sequence_log_prob(trans_jo, memory, optimal_positions)]
    risks = [0.0]
    for candidate in candidates:
        if candidate.positions == optimal_positions:
            continue
        log_ps.append(sequence_log_prob(trans_jo, memory, candidate.positions))
        risks.append(1.0 - joeu(candidate.positions, optimal_positions) if candidate.legal else penalty)
    stacked = F.concat([log_p.reshape(1) for log_p in log_ps], axis=0)
    max_val = float(stacked.data.max())
    log_total = (stacked - max_val).exp().sum().log() + max_val
    loss = -log_ps[0]
    for log_p, risk in zip(log_ps, risks):
        if risk > 0.0:
            loss = loss + (log_p - log_total).exp() * risk
    return loss


class PerQueryTrainer(JointTrainer):
    """``JointTrainer`` with the per-query join-order loss loop."""

    def _batch_losses(self, db_name, batch, jo_criterion="optimal"):
        log_cards, log_costs, pad_mask, encodings, shared = self.model.predict_log_nodes(db_name, batch)
        max_len = log_cards.shape[1]
        card_targets = np.ones((len(batch), max_len), dtype=np.float64)
        cost_targets = np.full((len(batch), max_len), _COST_FLOOR, dtype=np.float64)
        for i, item in enumerate(batch):
            card_targets[i, : item.num_nodes] = item.node_cardinalities
            cost_targets[i, : item.num_nodes] = item.node_costs
        valid = ~pad_mask
        card_loss = cost_loss = jo_loss = None
        if self.config.w_card:
            card_loss = node_qerror_loss(log_cards, card_targets, mask=valid)
        if self.config.w_cost:
            cost_loss = node_qerror_loss(log_costs, cost_targets, mask=valid, floor=_COST_FLOOR)
        if self.config.w_jo:
            jo_terms = []
            for i, item in enumerate(batch):
                if item.query.num_tables < 2:
                    continue
                if jo_criterion == "planner":
                    positions = planner_order_positions(item)
                elif item.optimal_order is not None:
                    positions = order_positions(item)
                else:
                    positions = None
                if positions is None:
                    continue
                memory = self.model.join_order_memory(shared[i], encodings[i], item.query.tables)
                logits = teacher_forced_logits(self.model.trans_jo, memory, positions)
                jo_terms.append(nn.cross_entropy(logits, np.asarray(positions, dtype=np.int64)))
            if jo_terms:
                jo_loss = jo_terms[0]
                for term in jo_terms[1:]:
                    jo_loss = jo_loss + term
                jo_loss = jo_loss * (1.0 / len(jo_terms))
        loss = joint_loss(
            card_loss, cost_loss, jo_loss,
            w_card=self.config.w_card, w_cost=self.config.w_cost, w_jo=self.config.w_jo,
        )
        return loss, (card_loss, cost_loss, jo_loss)
