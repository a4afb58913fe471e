"""The op table: every operation a layer body needs, written twice.

Each function here has two implementations and picks one by the type of
its operand: a :class:`Tensor` runs the autograd op (records tape, same
float-op order as ever, so training is bit-identical), a raw
``np.ndarray`` runs the matching :mod:`repro.nn.kernels` function
(in place where it can, into a ``ScratchArena`` buffer when given one).
Layer bodies are written once against this table plus the operators
``Tensor`` and ``ndarray`` already share (``+``, ``*``, ``@``, slicing,
``reshape``/``transpose``/``swapaxes``); which half runs is decided by
what ``Module.__call__`` hands the body — never by the body.

The two halves of every op are bit-identical (``tests/test_op_table.py``
compares them on contiguous, transposed and broadcast operands), which
is the whole tape↔kernel parity argument: one body over equal ops is
one function.  This is the only module allowed to call ``kernels.*``
(the ``raw-kernel`` checker enforces it).
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .tensor import Tensor

__all__ = [
    "matmul",
    "linear",
    "layer_norm",
    "scale",
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "masked_fill",
    "concat",
    "stack",
    "repeat_batch",
    "operand",
    "zeros",
    "gelu",
    "where",
    "pad_sequences",
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


def matmul(a, b, scratch=None, tag: str = ""):
    """``a @ b``; the ndarray half can write into a ``scratch`` buffer."""
    if isinstance(a, np.ndarray):
        return kernels.matmul(a, b, scratch, tag)
    return a.matmul(b)


def linear(x, weight: Tensor, bias: Tensor | None = None, scratch=None, tag: str = ""):
    """Affine map ``x @ W`` then ``+ b`` over parameters ``weight``/``bias``."""
    if isinstance(x, np.ndarray):
        return kernels.linear(x, weight.data, None if bias is None else bias.data, scratch, tag)
    out = x.matmul(weight)
    if bias is not None:
        out = out + bias
    return out


def layer_norm(x, gamma: Tensor, beta: Tensor, eps: float, dim: int):
    """Normalise the last axis (mean as ``sum * (1/dim)`` in both halves)."""
    if isinstance(x, np.ndarray):
        return kernels.layer_norm(x, gamma.data, beta.data, eps, dim)
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered * (var + eps) ** -0.5
    return normed * gamma + beta


def scale(x, factor: float):
    """``x * factor``; in place on an ndarray (callers pass a fresh one)."""
    if isinstance(x, np.ndarray):
        return np.multiply(x, factor, out=x)
    return x * factor


def relu(x):
    return kernels.relu(x) if isinstance(x, np.ndarray) else x.relu()


def sigmoid(x):
    return kernels.sigmoid(x) if isinstance(x, np.ndarray) else x.sigmoid()


def tanh(x):
    return np.tanh(x) if isinstance(x, np.ndarray) else x.tanh()


def _all_raw(tensors) -> bool:
    return not any(isinstance(t, Tensor) for t in tensors)


def concat(tensors: list, axis: int = 0):
    """Concatenate along ``axis`` (with gradient support among Tensors)."""
    if _all_raw(tensors):
        return np.concatenate(tensors, axis=axis)
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)

    def backward(grad):
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(index)])

    return Tensor._make(data, tuple(tensors), backward, requires)


def stack(tensors: list, axis: int = 0):
    """Stack along a new ``axis`` (with gradient support among Tensors)."""
    if _all_raw(tensors):
        return np.stack(tensors, axis=axis)
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)

    def backward(grad):
        slabs = np.split(grad, len(tensors), axis=axis)
        for tensor, slab in zip(tensors, slabs):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(slab, axis=axis))

    return Tensor._make(data, tuple(tensors), backward, requires)


def softmax(x, axis: int = -1):
    """Numerically stable softmax along ``axis``."""
    if isinstance(x, np.ndarray):
        return kernels.softmax(x, axis)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out = exps / exps.sum(axis=axis, keepdims=True)

    def backward(grad):
        if x.requires_grad:
            dot = (grad * out).sum(axis=axis, keepdims=True)
            x._accumulate(out * (grad - dot))

    return Tensor._make(out, (x,), backward, x.requires_grad)


def log_softmax(x, axis: int = -1):
    """Numerically stable log-softmax along ``axis``."""
    if isinstance(x, np.ndarray):
        return kernels.log_softmax(x, axis)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logsumexp

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad - np.exp(out) * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward, x.requires_grad)


def masked_fill(x, mask: np.ndarray, value: float):
    """Replace entries where ``mask`` is True by ``value`` (no grad there)."""
    if isinstance(x, np.ndarray):
        return kernels.masked_fill(x, mask, value)
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, value, x.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * ~mask)

    return Tensor._make(data, (x,), backward, x.requires_grad)


def repeat_batch(x, repeats: int):
    """Repeat a ``(1, ...)`` array ``repeats`` times along axis 0.

    Among Tensors gradients sum back over the repeated axis, so this is
    the batched-decoding equivalent of broadcasting one encoder memory
    (or the start token) across every active beam.
    """
    if x.shape[0] != 1:
        raise ValueError(f"repeat_batch expects a leading axis of 1, got shape {x.shape}")
    if isinstance(x, np.ndarray):
        return np.ascontiguousarray(np.broadcast_to(x, (repeats,) + x.shape[1:]))
    data = np.ascontiguousarray(np.broadcast_to(x.data, (repeats,) + x.data.shape[1:]))

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad.sum(axis=0, keepdims=True))

    return Tensor._make(data, (x,), backward, x.requires_grad)


# ---------------------------------------------------------------------------
# Tensor-only ops (no layer body uses them, so they have no kernel half)
# ---------------------------------------------------------------------------
def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    c = np.sqrt(2.0 / np.pi)
    inner = c * (x.data + 0.044715 * x.data ** 3)
    t = np.tanh(inner)
    out = 0.5 * x.data * (1.0 + t)

    def backward(grad):
        if x.requires_grad:
            dt = (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * x.data ** 2)
            x._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * x.data * dt))

    return Tensor._make(out, (x,), backward, x.requires_grad)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``condition ? a : b`` (condition is constant)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * condition)
        if b.requires_grad:
            b._accumulate(grad * ~condition)

    return Tensor._make(data, (a, b), backward, a.requires_grad or b.requires_grad)


def pad_sequences(arrays: list[np.ndarray], pad_value: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Pad a list of ``(length_i, dim)`` arrays to a dense batch.

    Returns ``(batch, mask)`` where ``batch`` has shape
    ``(n, max_len, dim)`` and ``mask`` is True at padded positions.
    """
    if not arrays:
        raise ValueError("pad_sequences requires at least one sequence")
    max_len = max(a.shape[0] for a in arrays)
    dim = arrays[0].shape[1]
    batch = np.full((len(arrays), max_len, dim), pad_value, dtype=np.float64)
    mask = np.ones((len(arrays), max_len), dtype=bool)
    for i, array in enumerate(arrays):
        batch[i, : array.shape[0]] = array
        mask[i, : array.shape[0]] = False
    return batch, mask


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
