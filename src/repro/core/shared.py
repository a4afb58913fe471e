"""(S) The shared representation module ``Trans_Share``.

A transformer encoder over the serialized plan-node embeddings E(P).
Its outputs (S_1, S_2, ...) correspond one-to-one to plan nodes; S_i
represents the sub-plan rooted at node N_i (Section 3.2).  The input
projection from raw node features to d_model belongs to this module —
the raw feature *layout* is database-agnostic, so the projection is
shared across DBs and participates in cross-DB meta-learning.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn.spec import shape_spec
from .config import ModelConfig

__all__ = ["SharedRepresentation"]


class SharedRepresentation(nn.Module):
    """Input projection + tree-positional encoding + transformer encoder."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        rng = rng or np.random.default_rng(config.seed)
        self.input_proj = nn.Linear(config.node_feature_dim, config.d_model, rng=rng)
        self.encoder = nn.TransformerEncoder(
            config.d_model,
            config.num_heads,
            config.shared_layers,
            ff_dim=config.ff_dim,
            rng=rng,
        )

    @shape_spec(inputs={"node_features": "(B, L, node_feature_dim)",
                        "tree_encodings": "(B, L, d_model)"},
                out="(B, L, d_model)",
                params=("input_proj", "encoder"))
    def forward(
        self,
        node_features: nn.Tensor,
        tree_encodings: np.ndarray,
        key_padding_mask: np.ndarray | None = None,
    ) -> nn.Tensor:
        """(B, L, node_feature_dim) + (B, L, d_model) tree pos -> (B, L, d_model)."""
        x = self.input_proj(node_features)
        x = x + tree_encodings
        return self.encoder(x, key_padding_mask=key_padding_mask)
