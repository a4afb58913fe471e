"""Tree-LSTM plan estimator — the paper's prior-SOTA baseline (Table 1).

Reimplements the approach of Sun & Li 2019 ("An end-to-end learning-
based cost estimator", the paper's [32]): a child-sum Tree-LSTM encodes
the physical plan bottom-up, and per-node heads map each sub-plan's
hidden state to its estimated cardinality and cost.  Trained with the
same q-error criterion.

Unlike MTMLF-QO it has no shared multi-task representation, no
per-table distribution encoders and no join-order model — exactly the
gap Table 1 measures.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..engine.plan import JoinOp, PlanNode, ScanOp
from ..storage.catalog import Database
from ..workload.labeler import LabeledQuery
from ..core.featurize import PredicateFeaturizer
from ..core.config import ModelConfig

__all__ = ["TreeLSTMEstimator"]

_COST_FLOOR = 1e-6


class TreeLSTMEstimator(nn.Module):
    """Child-sum Tree-LSTM over plan trees with card/cost heads."""

    def __init__(self, db: Database, hidden_dim: int = 48, seed: int = 0):
        super().__init__()
        self.db = db
        self.hidden_dim = hidden_dim
        rng = np.random.default_rng(seed)
        self.featurizer = PredicateFeaturizer(db, ModelConfig(predicate_feature_dim=20))
        self.feature_dim = 16 + self.featurizer.config.predicate_feature_dim
        self.tree = nn.ChildSumTreeLSTM(self.feature_dim, hidden_dim, rng=rng)
        self.card_head = nn.MLP([hidden_dim, hidden_dim, 1], rng=rng)
        self.cost_head = nn.MLP([hidden_dim, hidden_dim, 1], rng=rng)

    # ------------------------------------------------------------------
    def node_features(self, node: PlanNode) -> np.ndarray:
        """Structural + aggregated predicate features for one plan node."""
        out = np.zeros(self.feature_dim, dtype=np.float64)
        total_base = sum(self.db.statistics(t).num_rows for t in node.tables)
        out[7] = np.log10(max(total_base, 1)) / 7.0
        out[8] = len(node.tables) / 10.0
        if node.is_scan:
            out[0] = 1.0
            out[2] = 1.0 if node.scan_op is ScanOp.SEQ else 0.0
            out[3] = 1.0 if node.scan_op is ScanOp.INDEX else 0.0
            if node.filter is not None and len(node.filter):
                out[11] = len(node.filter) / 4.0
                tokens = [self.featurizer.featurize_predicate(p) for p in node.filter.predicates]
                out[16:] = np.mean(tokens, axis=0)
        else:
            out[1] = 1.0
            # Slot 5 held the merge join's one-hot; it stays 0 so widths
            # and initial draws hold until the width change (ROADMAP item 7).
            out[4] = 1.0 if node.join_op is JoinOp.HASH else 0.0
            out[6] = 1.0 if node.join_op is JoinOp.NESTED_LOOP else 0.0
            out[10] = len(node.join_predicates) / 4.0
        return out

    def encode_states(self, plan: PlanNode) -> list[nn.Tensor]:
        """Hidden states for every node, preorder-aligned."""
        states: dict[int, tuple[nn.Tensor, nn.Tensor]] = {}

        def visit(node: PlanNode) -> tuple[nn.Tensor, nn.Tensor]:
            child_states = [visit(child) for child in node.children()]
            features = nn.Tensor(self.node_features(node).reshape(1, -1))
            state = self.tree.node_forward(features, child_states)
            states[id(node)] = state
            return state

        visit(plan)
        return [states[id(node)][0] for node in plan.nodes_preorder()]

    def forward(self, plan: PlanNode) -> tuple[nn.Tensor, nn.Tensor]:
        """Per-node (log-card, log-cost) predictions, preorder, shape (L,)."""
        hidden = self.encode_states(plan)
        stacked = nn.functional.concat(hidden, axis=0)  # (L, hidden)
        log_cards = self.card_head(stacked).reshape(len(hidden))
        log_costs = self.cost_head(stacked).reshape(len(hidden))
        return log_cards, log_costs

    # ------------------------------------------------------------------
    def fit(
        self,
        workload: list[LabeledQuery],
        epochs: int = 20,
        learning_rate: float = 1e-3,
        seed: int = 0,
        verbose: bool = False,
    ) -> list[float]:
        """Train on labeled plans with the q-error criterion."""
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        params = self.parameters()
        optimizer = nn.Adam(params, lr=learning_rate)
        rng = np.random.default_rng(seed)
        history = []
        for epoch in range(epochs):
            order = rng.permutation(len(workload))
            total = 0.0
            for idx in order:
                item = workload[idx]
                optimizer.zero_grad()
                log_cards, log_costs = self.forward(item.plan)
                card_target = np.log(np.maximum(item.node_cardinalities, 1.0))
                cost_target = np.log(np.maximum(item.node_costs, _COST_FLOOR))
                loss = (log_cards - nn.Tensor(card_target)).abs().mean()
                loss = loss + (log_costs - nn.Tensor(cost_target)).abs().mean()
                loss.backward()
                nn.clip_grad_norm(params, 5.0)
                optimizer.step()
                total += loss.item()
            history.append(total / max(len(workload), 1))
            if verbose:
                print(f"  tree-lstm epoch {epoch + 1}/{epochs}: {history[-1]:.4f}")
        return history

    def predict(self, item: LabeledQuery) -> tuple[np.ndarray, np.ndarray]:
        """(cards, costs) per node in linear scale."""
        with nn.no_grad():
            log_cards, log_costs = self.forward(item.plan)
        return np.exp(log_cards.data), np.exp(log_costs.data)
