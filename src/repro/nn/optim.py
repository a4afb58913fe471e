"""The Adam optimizer and gradient clipping.

The paper trains MTMLF-QO with Adam at learning rate 1e-4; the same
optimizer (with the standard bias-corrected moments of Kingma & Ba) is
provided here, plus global-norm gradient clipping used to stabilise the
small-batch CPU training runs in this reproduction.
"""

from __future__ import annotations

import numpy as np

from .layers import Parameter

__all__ = ["Adam", "clip_grad_norm"]


def clip_grad_norm(parameters: list[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is <= max_norm.

    Returns the pre-clip norm.
    """
    total = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for grad in grads:
        total += float((grad * grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm


class Optimizer:
    """Base optimizer holding a parameter list.

    Accepts either bare parameters or ``(name, parameter)`` pairs (as
    produced by :meth:`Module.named_parameters`).  Names make optimizer
    state *portable*: state dicts are keyed by parameter name instead of
    list position, so a warm start restores each moment to the right
    parameter even when the surrounding parameter set changed — and a
    genuine mismatch fails loudly instead of silently misaligning.
    """

    def __init__(self, parameters):
        entries = list(parameters)
        names: list[str] = []
        params: list[Parameter] = []
        for entry in entries:
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
        self.parameters = params
        self.param_names: list[str] | None = names or None

    def _state_keys(self) -> list[str]:
        """Per-parameter state keys: names when given, positions otherwise."""
        if self.param_names is not None:
            return self.param_names
        return [str(i) for i in range(len(self.parameters))]

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2014) with bias correction."""

    def __init__(
        self,
        parameters,
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    # -- warm-start state ---------------------------------------------------
    def state_dict(self) -> dict:
        """Moment estimates and step count, keyed by parameter name.

        Unnamed parameter lists fall back to positional string keys;
        either way :meth:`load_state_dict` refuses a key-set or shape
        mismatch rather than misaligning moments.
        """
        keys = self._state_keys()
        return {
            "t": self._t,
            "m": {key: m.copy() for key, m in zip(keys, self._m)},
            "v": {key: v.copy() for key, v in zip(keys, self._v)},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output; raises on any misalignment.

        A grown or shuffled parameter set (e.g. a featurizer attached
        after the state was saved) surfaces as missing/unexpected keys —
        never as moments silently applied to the wrong parameters.
        """
        keys = self._state_keys()
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
        self._m = [np.array(state["m"][key], dtype=np.float64) for key in keys]
        self._v = [np.array(state["v"][key], dtype=np.float64) for key in keys]
        self._t = int(state["t"])

    def step(self) -> None:
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
