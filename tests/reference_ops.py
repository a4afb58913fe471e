"""Test-side references for the op table's fused tape nodes.

``linear`` and ``layer_norm`` as they were recorded on the tape before
each op had one forward: composites of the ``Tensor`` operators
(``matmul`` + ``add``; twelve ``sum/mul/add/pow`` nodes), differentiated
node by node by the autograd engine.  Not production code; they exist so
the hand-written backward rules in ``repro.nn.functional`` have an
independent derivation to be compared against — next to the other one,
central differences.
"""

import numpy as np


def linear(x, weight, bias=None):
    out = x.matmul(weight)
    return out if bias is None else out + bias


def layer_norm(x, gamma, beta, eps):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * gamma + beta


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        gflat[i] = (plus - minus) / (2 * eps)
    return grad
