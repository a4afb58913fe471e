"""Test-side references for the op table's fused tape nodes and for Adam.

``linear`` and ``layer_norm`` as they were recorded on the tape before
each op had one forward: composites of the ``Tensor`` operators
(``matmul`` + ``add``; twelve ``sum/mul/add/pow`` nodes), differentiated
node by node by the autograd engine.  ``attention`` is the chain of
nodes multi-head attention recorded before it was one op: head split,
scores, scale, mask, softmax, weighted sum, merge.  Not production code;
they exist so the hand-written backward rules in ``repro.nn.functional``
have an independent derivation to be compared against — next to the
other one, central differences.

``ReferenceAdam`` is the per-array Adam update ``repro.nn.Adam`` ran
before it packed its parameters into one vector: a loop over the
parameters, each updated in its own arrays and skipped when it has no
gradient.  ``nn.Adam`` must reproduce its weights and moments bit for bit.

``fedavg`` is the per-name FedAvg merge ``aggregate_shared_states`` ran
before a model's (S)/(T) parameters were one vector; the vector merge
must reproduce it byte for byte.
"""

import numpy as np

from repro.nn import functional as F


def linear(x, weight, bias=None):
    out = x.matmul(weight)
    return out if bias is None else out + bias


def layer_norm(x, gamma, beta, eps):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * gamma + beta


def attention(q, k, v, heads, scale, mask=None):
    """``functional.attention`` as 13-14 tape nodes over ``(B, L, dim)``
    Tensors (``mask`` is ``(B, heads, L_q, L_k)``, True = excluded)."""

    def split(x):
        batch, length, dim = x.shape
        return x.reshape(batch, length, heads, dim // heads).transpose((0, 2, 1, 3))

    scores = (split(q) @ split(k).swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = F.masked_fill(scores, mask, -1e9)
    attended = F.softmax(scores, axis=-1) @ split(v)
    batch, _, length, head_dim = attended.shape
    return attended.transpose((0, 2, 1, 3)).reshape(batch, length, heads * head_dim)


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


class ReferenceAdam:
    """Per-array Adam over ``(name, parameter)`` pairs or bare parameters.

    Works on ``p.data`` / ``p.grad`` where they are and never packs, so a
    model trained under it keeps its own arrays.  ``moments()`` returns
    ``{key: (m, v)}`` keyed by the names of ``nn.Adam.layout``.
    """

    def __init__(self, parameters, lr=1e-4, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        entries = list(parameters)
        self.keys = [
            str(entry[0]) if isinstance(entry, tuple) else str(i) for i, entry in enumerate(entries)
        ]
        self.parameters = [entry[1] if isinstance(entry, tuple) else entry for entry in entries]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def zero_grad(self):
        for p in self.parameters:
            p.grad = None

    def moments(self):
        return {key: (m, v) for key, m, v in zip(self.keys, self._m, self._v)}

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def fedavg(states, weights):
    """Example-weighted mean of name-keyed states, one name at a time:
    ``value * (weight / total)`` summed over the clients in order."""
    total = float(sum(weights))
    merged = {}
    for name in sorted(states[0]):
        accumulator = None
        for state, weight in zip(states, weights):
            contribution = np.asarray(state[name], dtype=np.float64) * (weight / total)
            accumulator = contribution if accumulator is None else accumulator + contribution
        merged[name] = accumulator
    return merged
