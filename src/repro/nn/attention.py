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
one new token.
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

    @shape_spec(inputs={"x": "(B, L, dim)"},
                out="(B, num_heads, L, head_dim)")
    def _split_heads(self, x):
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose((0, 2, 1, 3))

    @shape_spec(inputs={"x": "(B, num_heads, L, head_dim)"},
                out="(B, L, num_heads*head_dim)")
    def _merge_heads(self, x):
        batch, heads, seq, head_dim = x.shape
        return x.transpose((0, 2, 1, 3)).reshape(batch, seq, heads * head_dim)

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
                out=("(B, L_k, num_heads, head_dim)",
                     "(B, L_k, num_heads, head_dim)"),
                params=("k_proj", "v_proj"))
    def project_kv(self, key):
        """Split-head K/V projections of a static key/value source.

        For cross-attention over an unchanging encoder memory, the
        returned pair is valid for every decoder step of the decode.  It also projects each new
        row appended to a ``past_kv`` self-attention cache.

        Layout: ``(batch, Lk, heads, head_dim)`` — the *pre-transpose*
        head split, not the ``(batch, heads, Lk, head_dim)`` the scores
        matmul consumes.  :meth:`forward` applies the same
        transpose-view the inline projection uses, so the cached and
        inline operands have identical strides and BLAS produces
        bit-identical scores.  (A C-contiguous copy of the transposed
        layout holds the same values but can round differently.)  It
        also lets callers concatenate cached projections along axis 0
        without disturbing the layout.
        """
        batch, seq, _ = key.shape
        k = self.k_proj(key).reshape(batch, seq, self.num_heads, self.head_dim)
        v = self.v_proj(key).reshape(batch, seq, self.num_heads, self.head_dim)
        return k, v

    @shape_spec(inputs={"query": "(B, L_q, dim)",
                        "key": "(B, L_k, dim)",
                        "value": "(B, L_k, dim)",
                        "static_kv": ("(B, L_k, num_heads, head_dim)",
                                      "(B, L_k, num_heads, head_dim)"),
                        "past_kv": ("(B, L_p, num_heads, head_dim)",
                                    "(B, L_p, num_heads, head_dim)")},
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
        scratch=None,
        tag: str = "",
    ):
        """Attend ``query`` over ``key``/``value`` (self-attention if omitted).

        ``attn_mask`` is (Lq, Lk) boolean; ``key_padding_mask`` is
        (batch, Lk) boolean.  True entries are excluded from attention.
        ``static_kv`` supplies precomputed split-head K/V (from
        :meth:`project_kv`, projected once per decode), skipping
        the K/V projections; callers must pass projections of the same
        key/value source they would otherwise pass as arrays.
        ``past_kv`` is a self-attention cache, a ``[k, v]`` list in the
        :meth:`project_kv` layout holding the K/V of the rows before
        ``query`` (``[None, None]`` before the first): ``query``'s own
        K/V are appended to it in place and it attends over all of them,
        so a one-row ``query`` needs no causal mask.
        ``scratch``/``tag`` name reusable output buffers for the ndarray
        kernels (ignored on the tape, which must keep its values).
        """
        if static_kv is None and past_kv is None:
            key = query if key is None else key
            value = key if value is None else value
            k = self._split_heads(self.k_proj(key))
            v = self._split_heads(self.v_proj(value))
        else:
            if static_kv is not None:
                k_raw, v_raw = static_kv  # (B, Lk, H, hd): see project_kv
            else:
                k_raw, v_raw = self.project_kv(query)
                if past_kv[0] is not None:
                    k_raw = F.concat([past_kv[0], k_raw], axis=1)
                    v_raw = F.concat([past_kv[1], v_raw], axis=1)
                past_kv[0], past_kv[1] = k_raw, v_raw
            k = k_raw.transpose((0, 2, 1, 3))
            v = v_raw.transpose((0, 2, 1, 3))
        q = self._split_heads(self.q_proj(query, scratch, tag + ".q"))

        scores = F.matmul(q, k.swapaxes(-1, -2), scratch, tag + ".scores")
        scores = F.scale(scores, self.scale)  # (B, H, Lq, Lk)

        mask = self._combined_mask(attn_mask, key_padding_mask, scores.shape)
        if mask is not None:
            scores = F.masked_fill(scores, mask, -1e9)

        weights = F.softmax(scores, axis=-1)
        attended = F.matmul(weights, v, scratch, tag + ".attended")
        return self.out_proj(self._merge_heads(attended))
