"""The op table: every operation a layer body needs, each with one forward.

Each op computes its value once, through its :mod:`repro.nn.kernels`
function (or the one numpy call, for the ops that are one), on the raw
ndarrays of whatever it is handed.  Handed ndarrays it returns that
array; handed :class:`Tensor`s it wraps the very same array in a single
tape node whose hand-written backward rule is all the tape adds.  So
the tape run and the raw run of a layer body compute the same values by
construction, and a kernel that is fused or reordered changes training
and serving together.  Layer bodies are written once against this table
plus the operators ``Tensor`` and ``ndarray`` already share (``+``,
``*``, ``@``, slicing, ``reshape``/``transpose``/``swapaxes``); which
kind of operand they see is decided by ``Module.__call__`` — never by
the body.

This is the only module that calls ``kernels.*``: a layer that
called one itself would skip the tape, and its weights would get no
gradient (``tests/test_tape_boundary.py`` checks every (S)/(T)
parameter gets one).
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .tensor import Tensor, matmul_backward, raw

__all__ = [
    "matmul",
    "linear",
    "layer_norm",
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "masked_fill",
    "attention",
    "concat",
    "repeat_batch",
    "operand",
    "zeros",
    "pad_index_sequences",
    "one_hot",
]


def operand(param: Tensor, like):
    """``param`` as an operand of ``like``'s kind: itself among Tensors,
    its raw ``.data`` among ndarrays."""
    return param.data if isinstance(like, np.ndarray) else param


def zeros(shape: tuple, like):
    """Zeros of ``like``'s kind (e.g. an initial recurrent state)."""
    data = np.zeros(shape)
    return data if isinstance(like, np.ndarray) else Tensor(data)


def _unary(x, out: np.ndarray, grad_fn):
    """The result of a one-operand op whose forward value is ``out``:
    ``out`` itself among ndarrays, one tape node around it sending
    ``grad_fn(grad)`` back to ``x`` among Tensors."""
    if not isinstance(x, Tensor):
        return out
    return Tensor._make(out, (x,), lambda grad: x._accumulate(grad_fn(grad)), x.requires_grad)


def matmul(a, b):
    """``a @ b``."""
    out = kernels.matmul(raw(a), raw(b))
    if not isinstance(a, Tensor):
        return out
    b = b if isinstance(b, Tensor) else Tensor(b)
    return Tensor._make(
        out, (a, b), lambda grad: matmul_backward(a, b, grad), a.requires_grad or b.requires_grad
    )


def linear(x, weight: Tensor, bias: Tensor | None = None):
    """Affine map ``x @ W`` then ``+ b`` over parameters ``weight``/``bias``."""
    out = kernels.linear(raw(x), weight.data, None if bias is None else bias.data)
    if not isinstance(x, Tensor):
        return out

    def backward(grad):
        matmul_backward(x, weight, grad)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad)

    requires = x.requires_grad or weight.requires_grad or (bias is not None and bias.requires_grad)
    return Tensor._make(out, (x, weight, bias), backward, requires)


def layer_norm(x, gamma: Tensor, beta: Tensor, eps: float, dim: int):
    """Normalise the last axis, then ``* gamma + beta``."""
    out = kernels.layer_norm(raw(x), gamma.data, beta.data, eps, dim)
    if not isinstance(x, Tensor):
        return out

    def backward(grad):
        # The kernel keeps no intermediates, so the rule rebuilds the two
        # it needs (normalised input, reciprocal std) from ``x``.
        inv = 1.0 / dim
        centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv
        rstd = ((centered * centered).sum(axis=-1, keepdims=True) * inv + eps) ** -0.5
        normed = centered * rstd
        if beta.requires_grad:
            beta._accumulate(grad)
        if gamma.requires_grad:
            gamma._accumulate(grad * normed)
        if x.requires_grad:
            g = grad * gamma.data
            g_mean = g.sum(axis=-1, keepdims=True) * inv
            gn_mean = (g * normed).sum(axis=-1, keepdims=True) * inv
            x._accumulate(rstd * (g - g_mean - normed * gn_mean))

    requires = x.requires_grad or gamma.requires_grad or beta.requires_grad
    return Tensor._make(out, (x, gamma, beta), backward, requires)


def relu(x):
    out = kernels.relu(raw(x))
    return _unary(x, out, lambda grad: grad * (out > 0))


def sigmoid(x):
    out = kernels.sigmoid(raw(x))
    return _unary(x, out, lambda grad: grad * out * (1.0 - out))


def tanh(x):
    out = np.tanh(raw(x))
    return _unary(x, out, lambda grad: grad * (1.0 - out * out))


def softmax(x, axis: int = -1):
    """Numerically stable softmax along ``axis``."""
    out = kernels.softmax(raw(x), axis)
    return _unary(
        x, out, lambda grad: out * (grad - (grad * out).sum(axis=axis, keepdims=True))
    )


def log_softmax(x, axis: int = -1):
    """Numerically stable log-softmax along ``axis``."""
    out = kernels.log_softmax(raw(x), axis)
    return _unary(x, out, lambda grad: grad - np.exp(out) * grad.sum(axis=axis, keepdims=True))


def masked_fill(x, mask: np.ndarray, value: float):
    """Replace entries where ``mask`` is True by ``value`` (no grad there)."""
    out = kernels.masked_fill(raw(x), mask, value)
    return _unary(x, out, lambda grad: grad * np.logical_not(mask))


def attention(q, k, v, heads: int, scale: float, mask: np.ndarray | None = None):
    """Multi-head scaled dot-product attention of ``(B, L, dim)``
    projections: ``softmax(mask(q kᵀ * scale)) v`` per head, heads merged.

    Among Tensors it is one tape node with parents ``(q, k, v)``.  Its
    rule replays the backward of the chain of nodes the tape used to
    record (head split, scores, scale, mask, softmax, weighted sum,
    merge), operand layouts included: that chain's transposed gradient
    of the weighted sum was a C-contiguous copy by the time it met a
    matmul, so the rule makes the same copy and BLAS sees the same
    strides.
    """
    tensors = (q, k, v)
    out, weights = kernels.attention(raw(q), raw(k), raw(v), heads, scale, mask)
    if not any(isinstance(t, Tensor) for t in tensors):
        return out

    def backward(grad):
        batch, lq, dim = grad.shape
        head_dim = dim // heads

        def split(x):  # (B, L, dim) -> the kernel's (B, H, L, hd) view
            return raw(x).reshape(batch, -1, heads, head_dim).transpose((0, 2, 1, 3))

        def send(x, g):  # (B, H, L, hd) -> x's (B, L, dim), a C-order copy
            x._accumulate(g.transpose((0, 2, 1, 3)).reshape(x.shape))

        wants_q, wants_k, wants_v = (isinstance(t, Tensor) and t.requires_grad for t in tensors)
        d_attended = np.ascontiguousarray(split(grad))
        if wants_q or wants_k:
            d_weights = d_attended @ np.swapaxes(split(v), -1, -2)
            d_scores = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True))
            if mask is not None:
                d_scores = d_scores * np.logical_not(mask)
            d_scores = d_scores * scale
            if wants_q:
                send(q, d_scores @ split(k))
            if wants_k:  # the gradient of kᵀ, read back as k's
                send(k, (np.swapaxes(split(q), -1, -2) @ d_scores).swapaxes(-1, -2))
        if wants_v:
            send(v, np.swapaxes(weights, -1, -2) @ d_attended)

    requires = any(isinstance(t, Tensor) and t.requires_grad for t in tensors)
    return Tensor._make(out, tensors, backward, requires)


def repeat_batch(x, repeats: int):
    """Repeat a ``(1, ...)`` array ``repeats`` times along axis 0.

    Among Tensors gradients sum back over the repeated axis, so this is
    the batched-decoding equivalent of broadcasting one encoder memory
    (or the start token) across every active beam.
    """
    if x.shape[0] != 1:
        raise ValueError(f"repeat_batch expects a leading axis of 1, got shape {x.shape}")
    out = np.ascontiguousarray(np.broadcast_to(raw(x), (repeats,) + x.shape[1:]))
    return _unary(x, out, lambda grad: grad.sum(axis=0, keepdims=True))


def concat(tensors: list, axis: int = 0):
    """Concatenate along ``axis``: the joined array itself unless a Tensor
    is among ``tensors``, else one tape node whose rule hands each
    Tensor its slice of the gradient."""
    out = np.concatenate([raw(t) for t in tensors], axis=axis)
    taped = [t for t in tensors if isinstance(t, Tensor)]
    if not taped:
        return out

    def backward(grad):
        cuts = np.cumsum([t.shape[axis] for t in tensors[:-1]], dtype=np.int64)
        for tensor, piece in zip(tensors, np.split(grad, cuts, axis=axis)):
            if isinstance(tensor, Tensor) and tensor.requires_grad:
                tensor._accumulate(piece)

    return Tensor._make(out, tuple(taped), backward, any(t.requires_grad for t in taped))


def pad_index_sequences(
    sequences: list[list[int]], pad_value: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Pad ragged integer sequences into a dense ``(B, Tmax)`` index batch.

    Returns ``(indices, lengths)``; padded slots hold ``pad_value`` (a
    valid index, so gathers stay in bounds — consumers must read only the
    first ``lengths[i]`` entries of row ``i``).
    """
    lengths = np.asarray([len(s) for s in sequences], dtype=np.int64)
    max_len = int(lengths.max()) if len(sequences) else 0
    indices = np.full((len(sequences), max_len), pad_value, dtype=np.int64)
    for i, seq in enumerate(sequences):
        indices[i, : len(seq)] = seq
    return indices, lengths


def one_hot(indices, depth: int) -> np.ndarray:
    """One-hot encode integer ``indices`` into ``depth`` classes."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (depth,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out
