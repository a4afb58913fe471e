"""The Adam optimizer and gradient clipping, over one parameter vector.

The paper trains MTMLF-QO with Adam at learning rate 1e-4; the same
optimizer (with the standard bias-corrected moments of Kingma & Ba) is
provided here, plus global-norm gradient clipping used to stabilise the
small-batch CPU training runs in this reproduction.

An optimizer steps one float64 vector per quantity — values, gradients
and Adam's two moments — laid out in parameter order.  The value vector
is :func:`~repro.nn.layers.parameter_vector`'s: the one a model owns
(``MTMLFQO.weights``), or a new one for a loose parameter list.  Each
parameter's first gradient of a backward pass is copied into its
segment of the gradient vector (:meth:`Parameter._accumulate`), so
``zero_grad`` needs no fill, and an Adam step is a fixed sequence of
in-place whole-vector numpy calls, whose elementwise IEEE operations are
those of the per-array update, in the same order, so weights and
moments are bitwise what the per-array loop (kept test-side,
``tests/reference_ops.py``) computes.  Two rules keep the views alive:
``Module.load_state_dict`` writes into the existing arrays, and a step
first adopts any parameter whose ``data`` was rebound since (another
optimizer packed it anew, or a caller assigned ``p.data``) or whose
gradient was assigned by hand.  A parameter with no gradient in a step
keeps its weights and both moments bitwise unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from .layers import Parameter, aligned_zeros, parameter_vector, segment_strides, segment_views

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
    produced by :meth:`Module.named_parameters`).  Names make optimizer
    state *portable*: state dicts are keyed by parameter name instead of
    list position, so a warm start restores each moment to the right
    parameter even when the surrounding parameter set changed — and a
    genuine mismatch fails loudly instead of silently misaligning.
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
        names: list[str] = []
        params: list[Parameter] = []
        for entry in parameters:
            if isinstance(entry, tuple):
                name, param = entry
                names.append(str(name))
                params.append(param)
            else:
                params.append(entry)
        if names and len(names) != len(params):
            raise ValueError("mix of named and unnamed parameters")
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate parameter names: {duplicates}")
        if len({id(p) for p in params}) != len(params):
            raise ValueError("a parameter is listed more than once")
        self.parameters = params
        # Per-parameter state keys: names when given, positions otherwise.
        self._keys = names or [str(i) for i in range(len(params))]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._data = parameter_vector(params)
        self._data_views = [p.data for p in params]
        self._shapes = [p.data.shape for p in params]
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
    def state_dict(self) -> dict:
        """Moment estimates and step count, keyed by parameter name.

        Unnamed parameter lists fall back to positional string keys;
        either way :meth:`load_state_dict` refuses a key-set or shape
        mismatch rather than misaligning moments.
        """
        keys = self._keys
        return {
            "t": self._t,
            "m": {key: m.copy() for key, m in zip(keys, segment_views(self._m, self._shapes))},
            "v": {key: v.copy() for key, v in zip(keys, segment_views(self._v, self._shapes))},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; raises on any misalignment.

        A grown or shuffled parameter set (e.g. a featurizer attached
        after the state was saved) surfaces as missing/unexpected keys —
        never as moments silently applied to the wrong parameters.
        """
        keys = self._keys
        saved = set(state["m"])
        if set(state["v"]) != saved:
            raise ValueError("corrupt optimizer state: m/v key sets differ")
        current = set(keys)
        if saved != current:
            missing = sorted(current - saved)
            unexpected = sorted(saved - current)
            raise ValueError(
                "optimizer state does not match the current parameter set "
                f"(missing={missing} unexpected={unexpected}); the model's "
                "parameters changed since the state was saved — rebuild the "
                "optimizer instead of warm-starting"
            )
        for key, param in zip(keys, self.parameters):
            for slot, name in ((state["m"], "m"), (state["v"], "v")):
                value = np.asarray(slot[key], dtype=np.float64)
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"optimizer state shape mismatch for {key!r} ({name}): "
                        f"{value.shape} vs parameter {param.data.shape}"
                    )
        for vector, slot in ((self._m, state["m"]), (self._v, state["v"])):
            for key, view in zip(keys, segment_views(vector, self._shapes)):
                view[...] = slot[key]
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
