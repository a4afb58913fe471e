"""Raw-ndarray kernels: the forward of every op in the ``nn.functional`` table.

Each function here is *the* forward of its op: the op table calls it on
raw ndarrays whether a layer body runs on ndarrays (serving, under
``no_grad``) or on ``Tensor``s (training — the table wraps the kernel's
result in one tape node and adds only a backward rule).  Nothing else
computes these values, so a kernel may be fused or reordered freely:
training and serving move together.

Kernels record no gradients, so nothing but the op table calls them, and
it only ever hands a kernel operands that are already raw ndarrays.  A
layer that called one directly would leave its weights without a
gradient; ``tests/test_tape_boundary.py`` fails when one training step
misses any (S)/(T) parameter.

Every kernel returns a freshly allocated array (in-place ufunc calls
only touch intermediates the kernel itself allocated): at
``d_model = 48`` a gemm's cost is call overhead, not allocation, so
reusing output buffers does not pay (DESIGN.md section 11).

:func:`profiled` gives per-op call/time/alloc counters (the kernel
table of the latency ledger, ``bench_batched_decode.py --profile``, the
pinned call-count test).  It costs one module global integer check per
kernel call when inactive.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

from .spec import shape_spec

__all__ = [
    "KernelProfile",
    "profiled",
    "matmul",
    "linear",
    "layer_norm",
    "relu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "masked_fill",
    "attention",
]


# ---------------------------------------------------------------------------
# Profiling counters
# ---------------------------------------------------------------------------
_PROFILE = threading.local()
# Cheap global gate: when no profiled() block is active anywhere in the
# process, kernels skip even the thread-local lookup (a plain module
# global is markedly cheaper per call than threading.local getattr).
_PROFILE_DEPTH = 0


class KernelProfile:
    """Accumulated per-op counters: calls, seconds, bytes written."""

    def __init__(self):
        self.ops: dict[str, list] = {}  # name -> [calls, seconds, nbytes]

    def record(self, name: str, seconds: float, nbytes: int) -> None:
        entry = self.ops.get(name)
        if entry is None:
            self.ops[name] = [1, seconds, nbytes]
        else:
            entry[0] += 1
            entry[1] += seconds
            entry[2] += nbytes

    def as_dict(self) -> dict:
        return {
            name: {"calls": calls, "seconds": seconds, "bytes": nbytes}
            for name, (calls, seconds, nbytes) in sorted(
                self.ops.items(), key=lambda kv: -kv[1][1]
            )
        }

    def table(self) -> str:
        lines = [f"{'op':<18}{'calls':>8}{'time_ms':>10}{'MB':>9}"]
        for name, stats in self.as_dict().items():
            lines.append(
                f"{name:<18}{stats['calls']:>8}"
                f"{1000 * stats['seconds']:>10.2f}"
                f"{stats['bytes'] / 1e6:>9.2f}"
            )
        return "\n".join(lines)


@contextmanager
def profiled():
    """Collect per-op kernel counters for the duration of the block."""
    global _PROFILE_DEPTH
    profile = KernelProfile()
    previous = getattr(_PROFILE, "active", None)
    _PROFILE.active = profile
    _PROFILE_DEPTH += 1
    try:
        yield profile
    finally:
        _PROFILE_DEPTH -= 1
        _PROFILE.active = previous


def _note(name: str, t0: float, nbytes: int) -> None:
    profile = getattr(_PROFILE, "active", None)
    if profile is not None:
        profile.record(name, time.perf_counter() - t0, nbytes)


# ---------------------------------------------------------------------------
# Kernels (the one forward of each op)
#
# Each kernel checks the module-global ``_PROFILE_DEPTH`` inline and only
# touches the timing helpers when a profiled() block is active: decode
# workloads make thousands of kernel calls per run on small operands, so
# even two extra function calls per kernel are measurable.
# ---------------------------------------------------------------------------
@shape_spec(inputs={"a": "(..., M, K)", "b": "(..., K, N)"}, out="(..., M, N)")
def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    out = a @ b
    if _PROFILE_DEPTH:
        _note("matmul", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(..., d_in)", "weight": "(d_in, d_out)", "bias": "(d_out,)"},
            out="(..., d_out)")
def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map: ``x @ W`` then ``+ b``."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    out = x @ weight
    if bias is not None:
        out = out + bias
    if _PROFILE_DEPTH:
        _note("linear", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(..., dim)", "gamma": "(dim,)", "beta": "(dim,)"},
            out="(..., dim)")
def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float, dim: int) -> np.ndarray:
    """Forward of ``functional.layer_norm``: normalise the last axis
    (mean as ``sum * (1/dim)``), then ``* gamma + beta``."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    inv = 1.0 / dim
    mean = x.sum(axis=-1, keepdims=True) * inv
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv
    # In place on the fresh intermediates (an out= ufunc call computes
    # the same bits as the allocating form; it only skips the allocation).
    np.add(var, eps, out=var)
    np.power(var, -0.5, out=var)
    np.multiply(centered, var, out=centered)
    np.multiply(centered, gamma, out=centered)
    out = np.add(centered, beta, out=centered)
    if _PROFILE_DEPTH:
        _note("layer_norm", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(...,)"}, out="(...,)")
def relu(x: np.ndarray) -> np.ndarray:
    """Forward of ``functional.relu``: ``x * (x > 0)``."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    out = x * (x > 0)
    if _PROFILE_DEPTH:
        _note("relu", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(...,)"}, out="(...,)")
def sigmoid(x: np.ndarray) -> np.ndarray:
    """Forward of ``functional.sigmoid``: ``1 / (1 + exp(-x))``."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    out = 1.0 / (1.0 + np.exp(-x))
    if _PROFILE_DEPTH:
        _note("sigmoid", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(...,)"}, out="(...,)")
def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward of ``functional.softmax`` (shift, exp, normalize)."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    shifted = x - x.max(axis=axis, keepdims=True)
    exps = np.exp(shifted, out=shifted)  # in place on the fresh copy
    out = np.divide(exps, exps.sum(axis=axis, keepdims=True), out=exps)
    if _PROFILE_DEPTH:
        _note("softmax", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(...,)"}, out="(...,)")
def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward of ``functional.log_softmax`` (shift, log-sum-exp)."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    shifted = x - x.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logsumexp
    if _PROFILE_DEPTH:
        _note("log_softmax", t0, out.nbytes)
    return out


@shape_spec(inputs={"x": "(...,)", "mask": "(...,)"}, out="(...,)",
            dtypes={"mask": "bool"})
def masked_fill(x: np.ndarray, mask: np.ndarray, value: float) -> np.ndarray:
    """Forward of ``functional.masked_fill``."""
    t0 = time.perf_counter() if _PROFILE_DEPTH else 0.0
    out = np.where(mask, value, x)
    if _PROFILE_DEPTH:
        _note("masked_fill", t0, out.nbytes)
    return out


@shape_spec(inputs={"q": "(B, L_q, dim)", "k": "(B, L_k, dim)", "v": "(B, L_k, dim)",
                    "mask": "(B, heads, L_q, L_k)"},
            out=("(B, L_q, dim)", "(B, heads, L_q, L_k)"),
            dtypes={"mask": "bool"})
def attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    heads: int,
    scale: float,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward of ``functional.attention``: split ``heads``, scaled
    ``q @ kᵀ``, ``-1e9`` where ``mask`` is True, softmax, the weighted
    sum of ``v``, merge.  Returns ``(merged, weights)``; the weights are
    what the backward rule reads.

    Records no profile row of its own: its ``matmul`` / ``masked_fill``
    / ``softmax`` calls record theirs.  Heads are split by a reshape and
    a transpose *view*, so projected and cached K/V (both C-contiguous
    ``(B, L_k, dim)``) reach BLAS with the same strides.
    """
    batch, lq, dim = q.shape
    lk = k.shape[1]
    head_dim = dim // heads
    qh = q.reshape(batch, lq, heads, head_dim).transpose((0, 2, 1, 3))
    kh = k.reshape(batch, lk, heads, head_dim).transpose((0, 2, 1, 3))
    vh = v.reshape(batch, lk, heads, head_dim).transpose((0, 2, 1, 3))
    scores = matmul(qh, kh.swapaxes(-1, -2))
    np.multiply(scores, scale, out=scores)  # in place on the fresh product
    if mask is not None:
        scores = masked_fill(scores, mask, -1e9)
    weights = softmax(scores, -1)
    attended = matmul(weights, vh)
    return attended.transpose((0, 2, 1, 3)).reshape(batch, lq, dim), weights
