"""The Adam optimizer and gradient clipping, over one parameter vector.

The paper trains MTMLF-QO with Adam at learning rate 1e-4; the same
optimizer (with the standard bias-corrected moments of Kingma & Ba) is
provided here, plus global-norm gradient clipping used to stabilise the
small-batch CPU training runs in this reproduction.

An optimizer steps one float64 vector per quantity — values, gradients
and Adam's two moments — laid out in parameter order by one rule: the
ordered ``(name, shape)`` pairs of :func:`~repro.nn.layers.vector_layout`,
each segment cache-line aligned.  The value vector is the one a model
owns (``MTMLFQO.weights``), or a new one for a loose parameter list.
Each parameter's first gradient of a backward pass is copied into its
segment of the gradient vector (:meth:`Parameter._accumulate`), so
``zero_grad`` needs no fill, and a step is a fixed sequence of in-place
whole-vector numpy calls running the per-array update's elementwise IEEE
operations in its order: weights and moments are bitwise what the
per-array loop (test-side, ``tests/reference_ops.py``) computes.  Loads
write into the existing arrays, and a step first adopts any parameter
whose ``data`` was rebound or whose gradient was assigned by hand.  A
parameter with no gradient in a step keeps its weights and both moments
bitwise unchanged.  The training state is vectors too:
:meth:`Adam.state` is the step, copies of the two moment vectors and
the layout, which rounds hand to the next trainer and a checkpoint
(``repro.core.checkpoint``) stores; :meth:`Adam.load_state` refuses any
other layout.
"""

from __future__ import annotations

import math

import numpy as np

from .layers import Parameter, aligned_zeros, layout_mismatch, parameter_vector, segment_strides, segment_views
from .layers import vector_layout

__all__ = ["Adam", "clip_grad_norm"]


def clip_grad_norm(parameters: list[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is <= max_norm.

    Returns the pre-clip norm.  Raises ``ValueError`` for a ``max_norm``
    that is not positive (it would flip or zero every gradient) and
    ``FloatingPointError`` for a non-finite norm, before any gradient
    is scaled — a NaN norm fails ``norm > max_norm`` and would otherwise
    let the next step write NaN into every weight and moment.
    """
    if not max_norm > 0.0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    total = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for grad in grads:
        total += float((grad * grad).sum())
    norm = float(np.sqrt(total))
    if not math.isfinite(norm):
        raise FloatingPointError(f"gradient norm is {norm}")
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm


class Adam:
    """Adam optimizer (Kingma & Ba, 2014) with bias correction.

    Accepts either bare parameters or ``(name, parameter)`` pairs (as
    produced by :meth:`Module.named_parameters`).  The names (positions
    for bare parameters) and shapes are its :attr:`layout`, carried in
    every :meth:`state`, so moments only ever restore onto the
    parameters they were computed for.
    """

    def __init__(
        self,
        parameters,
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if not lr > 0.0:
            raise ValueError(f"lr must be > 0, got {lr}")
        if not all(0.0 <= beta < 1.0 for beta in betas):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if not eps > 0.0:
            raise ValueError(f"eps must be > 0, got {eps}")
        entries = [entry if isinstance(entry, tuple) else (None, entry) for entry in parameters]
        names = [str(name) for name, _ in entries if name is not None]
        params = [param for _, param in entries]
        if names and len(names) != len(params):
            raise ValueError("mix of named and unnamed parameters")
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate parameter names: {duplicates}")
        if len({id(p) for p in params}) != len(params):
            raise ValueError("a parameter is listed more than once")
        self.parameters = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._data = parameter_vector(params)
        self._data_views = [p.data for p in params]
        self._shapes = [p.data.shape for p in params]
        # What places every float of the four vectors (positions stand in
        # for the names of unnamed parameters).
        self.layout = vector_layout(zip(names or map(str, range(len(params))), params))
        self._strides = segment_strides(self._shapes)
        self._grad = aligned_zeros(self._data.size)
        self._grad_views = segment_views(self._grad, self._shapes)
        for p, grad in zip(params, self._grad_views):
            p.grad_view = grad
        self._m = aligned_zeros(self._data.size)
        self._v = aligned_zeros(self._data.size)
        # The step's two temporaries, allocated once.
        self._scratch = (aligned_zeros(self._data.size), aligned_zeros(self._data.size))
        self._t = 0

    def _gather(self) -> np.ndarray | None:
        """Bring every parameter's values and gradient into the vectors.

        A parameter whose ``data`` was rebound since packing is adopted
        (its values copied in, ``data`` and its gradient view pointed
        back at this optimizer's segments); a gradient assigned by hand
        is copied in.  Returns the element mask of the parameters with
        no gradient this step, or None when every one has a gradient.
        """
        idle = []
        for i, (p, data, grad) in enumerate(zip(self.parameters, self._data_views, self._grad_views)):
            if p.data is not data:
                data[...] = p.data
                p.data = data
                p.grad_view = grad
            if p.grad is None:
                idle.append(i)
            elif p.grad is not grad:
                grad[...] = p.grad
        if not idle:
            return None
        flags = np.zeros(len(self.parameters), dtype=bool)
        flags[idle] = True
        return np.repeat(flags, self._strides)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    # -- warm-start state ---------------------------------------------------
    def state(self) -> dict:
        """The moments as one state: step ``t``, copies of the ``m`` and
        ``v`` vectors, and the ``layout`` that places their floats."""
        return {"t": self._t, "m": self._m.copy(), "v": self._v.copy(), "layout": list(self.layout)}

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output (other keys are ignored).

        Refuses, with a ``ValueError`` naming the first differing entry,
        a state laid out for other parameters — a renamed, reordered,
        grown or reshaped set — rather than misalign its moments.
        """
        mismatch = layout_mismatch(state["layout"], self.layout)
        if mismatch is not None:
            raise ValueError(
                f"optimizer state does not fit this optimizer's parameters: {mismatch}; "
                "rebuild the optimizer instead of warm-starting"
            )
        for name in ("m", "v"):
            if np.shape(state[name]) != self._m.shape:
                raise ValueError(
                    f"optimizer state {name} has shape {np.shape(state[name])}, not {self._m.shape}"
                )
        np.copyto(self._m, state["m"])
        np.copyto(self._v, state["v"])
        self._t = int(state["t"])

    def step(self) -> None:
        """One update of every parameter with a gradient.

        The per-array update ``m = b1 m + (1 - b1) g``, ``v = b2 v +
        ((1 - b2) g) g``, ``p -= (lr (m / bias1)) / (sqrt(v / bias2) +
        eps)`` run once over the whole vectors, operation for operation.
        Segments of parameters without a gradient are computed on and
        then restored, so they stay bitwise unchanged.
        """
        idle = self._gather()
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        data, m, v, grad = self._data, self._m, self._v, self._grad
        held = None
        if idle is not None:
            held = data[idle], m[idle], v[idle]
            # Their gradient segments hold an earlier step's values, maybe
            # non-finite; zeroed, the throwaway update raises no warning.
            grad[idle] = 0.0
        work, denom = self._scratch
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=denom)
            denom += grad
            grad = denom
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=work)
        m += work
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=work)
        work *= grad
        v += work
        np.divide(m, bias1, out=work)
        work *= self.lr
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        work /= denom
        data -= work
        if held is not None:
            data[idle], m[idle], v[idle] = held
