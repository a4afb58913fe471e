"""Multi-head scaled dot-product attention.

Supports optional boolean masks (True = position masked out), which the
MTMLF-QO model uses both for padding in batched plan sequences and for
the causal mask inside the ``Trans_JO`` decoder.

Cross-attention over a *static* key/value source (the decoder reading
a fixed encoder memory) can skip its K/V projections entirely by passing
precomputed ``static_kv``, which the beam driver projects once per
decode.  Self-attention during incremental decoding
passes ``past_kv`` instead: the K/V of every earlier row, which the call
extends by the rows it is handed, so each decoder step projects only its
one new token.  Cached and inline K/V are the same unsplit ``(B, L, dim)``
projections.

The attention itself — head split, scaled scores, mask, softmax,
weighted sum, merge — is one op of the op table,
:func:`repro.nn.functional.attention`, and so one tape node whose
backward rule mirrors the layouts of the node chain it replaced
(DESIGN.md §11); the layer adds only the four projections and the mask.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import Linear, Module
from .spec import shape_spec

__all__ = ["MultiHeadAttention", "causal_mask"]


@shape_spec(out="(L, L)", dtypes={"out": "bool"})
def causal_mask(length: int) -> np.ndarray:
    """Boolean (length, length) mask forbidding attention to the future."""
    return np.triu(np.ones((length, length), dtype=bool), k=1)


class MultiHeadAttention(Module):
    """Multi-head attention ``Attn(Q, K, V)`` over (batch, seq, dim) tensors.

    Parameters
    ----------
    dim:
        Model dimension; must be divisible by ``num_heads``.
    num_heads:
        Number of attention heads (the paper uses 4).
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator | None = None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        # Same value both paths compute per call; hoisted because a
        # np.sqrt call per attention forward is measurable at decode.
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)

    @staticmethod
    def _combined_mask(
        attn_mask: np.ndarray | None,
        key_padding_mask: np.ndarray | None,
        scores_shape: tuple,
    ) -> np.ndarray | None:
        """Broadcast/merge the masks, guarding fully-masked rows."""
        mask = None
        if attn_mask is not None:
            mask = np.asarray(attn_mask, dtype=bool)[None, None, :, :]
        if key_padding_mask is not None:
            pad = np.asarray(key_padding_mask, dtype=bool)[:, None, None, :]
            mask = pad if mask is None else (mask | pad)
        if mask is None:
            return None
        mask = np.broadcast_to(mask, scores_shape)
        # Guard against fully-masked rows which would produce NaNs.
        all_masked = mask.all(axis=-1, keepdims=True)
        return mask & ~all_masked

    @shape_spec(inputs={"key": "(B, L_k, dim)"},
                out=("(B, L_k, dim)", "(B, L_k, dim)"),
                params=("k_proj", "v_proj"))
    def project_kv(self, key):
        """K/V projections of a static key/value source.

        For cross-attention over an unchanging encoder memory, the
        returned pair is valid for every decoder step of the decode.  It
        also projects each new row appended to a ``past_kv``
        self-attention cache.  The pair is exactly what :meth:`forward`
        would project inline — unsplit ``(batch, Lk, dim)`` arrays, which
        the attention kernel splits into heads with a reshape and a
        transpose view either way — so cached and inline operands reach
        BLAS with identical strides and bit-identical scores.  (A
        C-contiguous copy of the split layout holds the same values but
        can round differently.)  Callers concatenate cached projections
        along axis 0 or 1 freely.
        """
        return self.k_proj(key), self.v_proj(key)

    @shape_spec(inputs={"query": "(B, L_q, dim)",
                        "key": "(B, L_k, dim)",
                        "value": "(B, L_k, dim)",
                        "static_kv": ("(B, L_k, dim)", "(B, L_k, dim)"),
                        "past_kv": ("(B, L_p, dim)", "(B, L_p, dim)")},
                out="(B, L_q, dim)",
                params=("q_proj", "k_proj", "v_proj", "out_proj"))
    def forward(
        self,
        query,
        key=None,
        value=None,
        attn_mask: np.ndarray | None = None,
        key_padding_mask: np.ndarray | None = None,
        static_kv: tuple | None = None,
        past_kv: list | None = None,
    ):
        """Attend ``query`` over ``key``/``value`` (self-attention if omitted).

        ``attn_mask`` is (Lq, Lk) boolean; ``key_padding_mask`` is
        (batch, Lk) boolean.  True entries are excluded from attention.
        ``static_kv`` supplies precomputed K/V (from
        :meth:`project_kv`, projected once per decode), skipping
        the K/V projections; callers must pass projections of the same
        key/value source they would otherwise pass as arrays.
        ``past_kv`` is a self-attention cache, a ``[k, v]`` list in the
        :meth:`project_kv` layout holding the K/V of the rows before
        ``query`` (``[None, None]`` before the first): ``query``'s own
        K/V are appended to it in place and it attends over all of them,
        so a one-row ``query`` needs no causal mask.
        """
        if static_kv is not None:
            k, v = static_kv
        elif past_kv is not None:
            k, v = self.project_kv(query)
            if past_kv[0] is not None:
                k = F.concat([past_kv[0], k], axis=1)
                v = F.concat([past_kv[1], v], axis=1)
            past_kv[0], past_kv[1] = k, v
        else:
            key = query if key is None else key
            k = self.k_proj(key)
            v = self.v_proj(key if value is None else value)
        q = self.q_proj(query)
        scores_shape = (q.shape[0], self.num_heads, q.shape[1], k.shape[1])
        mask = self._combined_mask(attn_mask, key_padding_mask, scores_shape)
        attended = F.attention(q, k, v, self.num_heads, self.scale, mask)
        return self.out_proj(attended)
