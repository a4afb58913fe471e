"""Transformer encoder and decoder stacks.

These are the building blocks for the paper's three transformer
components: the per-table encoders ``Enc_i`` (F.ii), the shared
representation encoder ``Trans_Share`` (S), and the join-order decoder
``Trans_JO`` (T.iii).  The paper uses 3 blocks and 4 heads for each.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .attention import MultiHeadAttention, causal_mask
from .layers import LayerNorm, Linear, Module, ModuleList
from .spec import shape_spec

__all__ = ["TransformerEncoderLayer", "TransformerEncoder", "TransformerDecoderLayer", "TransformerDecoder"]


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder block (self-attention + FFN)."""

    def __init__(self, dim: int, num_heads: int, ff_dim: int | None = None, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        ff_dim = ff_dim or 4 * dim
        self.attn = MultiHeadAttention(dim, num_heads, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_dim, rng=rng)
        self.ff2 = Linear(ff_dim, dim, rng=rng)

    @shape_spec(inputs={"x": "(B, L, dim)"},
                out="(B, L, dim)",
                params=("attn", "norm1", "norm2", "ff1", "ff2"))
    def forward(self, x, key_padding_mask: np.ndarray | None = None):
        normed = self.norm1(x)
        x = x + self.attn(normed, key_padding_mask=key_padding_mask)
        normed = self.norm2(x)
        hidden = F.relu(self.ff1(normed))
        x = x + self.ff2(hidden)
        return x


class TransformerEncoder(Module):
    """Stack of encoder layers with a final LayerNorm."""

    def __init__(self, dim: int, num_heads: int, num_layers: int, ff_dim: int | None = None, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.layers = ModuleList(
            [TransformerEncoderLayer(dim, num_heads, ff_dim=ff_dim, rng=rng) for _ in range(num_layers)]
        )
        self.final_norm = LayerNorm(dim)

    @shape_spec(inputs={"x": "(B, L, dim)"},
                out="(B, L, dim)",
                params=("layers", "final_norm"))
    def forward(self, x, key_padding_mask: np.ndarray | None = None):
        for layer in self.layers:
            x = layer(x, key_padding_mask=key_padding_mask)
        return self.final_norm(x)


class TransformerDecoderLayer(Module):
    """Pre-norm decoder block: causal self-attention, cross-attention, FFN."""

    def __init__(self, dim: int, num_heads: int, ff_dim: int | None = None, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        ff_dim = ff_dim or 4 * dim
        self.self_attn = MultiHeadAttention(dim, num_heads, rng=rng)
        self.cross_attn = MultiHeadAttention(dim, num_heads, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.norm3 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_dim, rng=rng)
        self.ff2 = Linear(ff_dim, dim, rng=rng)

    @shape_spec(inputs={"x": "(B, L, dim)", "memory": "(B, L_m, dim)"},
                out="(B, L, dim)",
                params=("self_attn", "cross_attn", "norm1", "norm2", "norm3", "ff1", "ff2"))
    def forward(
        self,
        x,
        memory,
        memory_padding_mask: np.ndarray | None = None,
        memory_kv: tuple | None = None,
        past_kv: list | None = None,
    ):
        """``memory_kv`` supplies this layer's precomputed cross-attention
        K/V (from ``cross_attn.project_kv(memory)``); when given,
        ``memory`` itself may be None — the projections stand in for it.
        ``past_kv`` is this layer's self-attention cache (see
        :meth:`MultiHeadAttention.forward`): ``x`` is then the one new
        row of each sequence, which attends to every earlier row and
        itself, so no causal mask applies.
        """
        mask = causal_mask(x.shape[1]) if past_kv is None else None
        normed = self.norm1(x)
        x = x + self.self_attn(normed, attn_mask=mask, past_kv=past_kv)
        normed = self.norm2(x)
        x = x + self.cross_attn(
            normed,
            memory,
            memory,
            key_padding_mask=memory_padding_mask,
            static_kv=memory_kv,
        )
        normed = self.norm3(x)
        hidden = F.relu(self.ff1(normed))
        x = x + self.ff2(hidden)
        return x


class TransformerDecoder(Module):
    """Stack of decoder layers with a final LayerNorm."""

    def __init__(self, dim: int, num_heads: int, num_layers: int, ff_dim: int | None = None, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.layers = ModuleList(
            [TransformerDecoderLayer(dim, num_heads, ff_dim=ff_dim, rng=rng) for _ in range(num_layers)]
        )
        self.final_norm = LayerNorm(dim)

    @shape_spec(inputs={"x": "(B, L, dim)", "memory": "(B, L_m, dim)"},
                out="(B, L, dim)",
                params=("layers", "final_norm"))
    def forward(
        self,
        x,
        memory,
        memory_padding_mask: np.ndarray | None = None,
        memory_kv: list | None = None,
        past_kv: list | None = None,
    ):
        """``memory_kv`` is one ``(k, v)`` pair per layer (see
        :meth:`project_memory_kv`); with it the encoder memory's K/V are
        never re-projected inside the step.  ``past_kv`` is one
        self-attention cache per layer (see :meth:`empty_past_kv`); with
        it ``x`` holds one new row per sequence (incremental decoding).
        """
        for i, layer in enumerate(self.layers):
            x = layer(
                x,
                memory,
                memory_padding_mask=memory_padding_mask,
                memory_kv=memory_kv[i] if memory_kv is not None else None,
                past_kv=past_kv[i] if past_kv is not None else None,
            )
        return self.final_norm(x)

    @shape_spec(inputs={"memory": "(B, L_m, dim)"}, params=("layers",))
    def project_memory_kv(self, memory) -> list:
        """Cross-attention K/V of ``memory`` for every layer, projected
        once per decode and read at every decoder step."""
        return [layer.cross_attn.project_kv(memory) for layer in self.layers]

    def empty_past_kv(self) -> list:
        """A fresh per-layer self-attention cache for incremental
        decoding: ``[k, v]`` per layer, empty until the first step."""
        return [[None, None] for _ in self.layers]
