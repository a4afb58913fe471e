"""Model hyper-parameters for MTMLF-QO.

The paper (Section 6.1): transformers with 3 blocks and 4 heads for each
``Enc_i``, ``Trans_Share`` and ``Trans_JO``; two-layer MLP heads; loss
weights all 1; Adam at 1e-4.  Defaults here keep the paper's shape at a
CPU-trainable width (``d_model`` 48); everything is overridable.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ModelConfig"]


@dataclass
class ModelConfig:
    """Hyper-parameters shared by the (F), (S) and (T) modules."""

    d_model: int = 48
    num_heads: int = 4
    encoder_layers: int = 2     # per-table Enc_i blocks (paper: 3)
    shared_layers: int = 3      # Trans_Share blocks (paper: 3)
    decoder_layers: int = 2     # Trans_JO blocks (paper: 3)
    ff_multiplier: int = 2

    # Featurization
    predicate_feature_dim: int = 20   # raw, DB-agnostic predicate features
    node_extra_dim: int = 16          # raw structural/statistical node features

    # Loss weights (Equation 1); all 1.0 in the paper
    w_card: float = 1.0
    w_cost: float = 1.0
    w_jo: float = 1.0

    # Sequence-level loss (Equation 3): the risk of an illegal order
    sequence_loss_lambda: float = 4.0
    beam_width: int = 3

    # Bound of each (F) cache (LRU) of a featurizer built with this
    # config: its plan encodings and its node contents.
    feature_cache_size: int = 4096

    # Optimization
    learning_rate: float = 1e-3
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be > 0, got {self.grad_clip}")
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.feature_cache_size < 1:
            raise ValueError(f"feature_cache_size must be >= 1, got {self.feature_cache_size}")
        from .model import NODE_EXTRA_FEATURES  # model.py imports this module

        if self.node_extra_dim < NODE_EXTRA_FEATURES:
            raise ValueError(
                f"node_extra_dim must be >= {NODE_EXTRA_FEATURES} (the raw node features), "
                f"got {self.node_extra_dim}"
            )

    @property
    def ff_dim(self) -> int:
        return self.ff_multiplier * self.d_model

    @property
    def node_feature_dim(self) -> int:
        """Raw node feature width before the shared input projection."""
        return self.d_model + self.node_extra_dim
