"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of ``repro.nn``.  The paper's models
(transformer encoders/decoders, tree-LSTMs, MLPs) are implemented on top
of this small autograd engine because no deep-learning framework is
available in the reproduction environment.

The design follows the classic tape-based approach: every ``Tensor``
records the operation that produced it and a closure that propagates
gradients to its parents.  ``Tensor.backward()`` topologically sorts the
graph and runs the closures in reverse order.  The methods here are the
operators ``Tensor`` shares with ``ndarray`` (arithmetic, ``@``, shape
ops, reductions); everything a layer body needs beyond them — ``linear``,
``layer_norm``, the activations, ``softmax`` — is an op of
:mod:`repro.nn.functional`, whose tape nodes are built with
:meth:`Tensor._make` around values the kernels computed.

Only float64 data is used; the models in this reproduction are small, so
numerical robustness is preferred over memory savings.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "no_tape_active",
]

# Grad mode is per-thread (as in torch): a serving thread running under
# no_grad must not disable tape recording for a concurrently training
# thread (tenant fine-tunes run on fleet-coordinator threads while drain
# threads serve inference), and vice versa.
_GRAD_STATE = threading.local()


class no_grad:
    """Context manager that disables gradient recording (like torch.no_grad).

    The flag is thread-local: entering ``no_grad`` on one thread leaves
    every other thread's recording mode untouched.
    """

    def __enter__(self):
        self._prev = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_STATE.enabled = self._prev
        return False


def is_grad_enabled() -> bool:
    """Return True when operations are being recorded on this thread's tape."""
    return getattr(_GRAD_STATE, "enabled", True)


def no_tape_active() -> bool:
    """True when nothing on this thread will ever call ``backward``.

    The selection predicate of the one-body substrate, read at exactly
    one site: ``Module.__call__`` hands a layer body raw ndarrays (so the
    ``nn.functional`` op table returns each kernel result as it is) when
    this is true, and ``Tensor``s (so the table wraps the same result in
    a tape node) otherwise.
    """
    return not is_grad_enabled()


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            return value.astype(np.float64)
        return value
    return np.asarray(value, dtype=np.float64)


def raw(value):
    """A Tensor's ndarray; anything else as it is."""
    return value.data if isinstance(value, Tensor) else value


def matmul_backward(a: "Tensor", b: "Tensor", grad: np.ndarray) -> None:
    """Send the gradient of ``a @ b`` to ``a`` and ``b`` (1-D operands
    included).  The backward rule of the ``@`` operator and of the op
    table's ``matmul`` / ``linear`` nodes alike."""
    if a.requires_grad:
        if b.data.ndim == 1:
            a._accumulate(np.expand_dims(grad, -1) * b.data)
        else:
            a._accumulate(grad @ np.swapaxes(b.data, -1, -2))
    if b.requires_grad:
        if a.data.ndim == 1:
            b._accumulate(np.outer(a.data, grad))
        else:
            b._accumulate(np.swapaxes(a.data, -1, -2) @ grad)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to a float64 ``np.ndarray``.
    requires_grad:
        When True, gradients are accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward = None
        self._prev: tuple = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(data: np.ndarray) -> "Tensor":
        """Cheapest possible Tensor around an already-float64 ndarray.

        The no-tape boundary constructor — a layer body run on raw
        ndarrays is wrapped exactly once, by ``Module.__call__`` — and
        the base of every op node (:meth:`_make`): no ``_as_array``
        dtype probe, no parents, no backward closure.  Callers guarantee
        ``data`` is a float64 ``np.ndarray``.
        """
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._prev = ()
        out.name = ""
        return out

    @staticmethod
    def _make(data: np.ndarray, parents: tuple, backward, requires_grad: bool) -> "Tensor":
        """The node of an op whose value is ``data``, built like
        :meth:`_wrap` (no constructor, one grad-mode probe).  It records
        ``backward`` over the ``parents`` that require grad unless
        nothing will ever backpropagate through it.  A float64 ndarray —
        every kernel result — is kept as it is; anything else (the numpy
        scalar of a full reduction) is converted as the constructor
        would."""
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = _as_array(data)
        out = Tensor._wrap(data)
        if requires_grad and is_grad_enabled():
            out.requires_grad = True
            out._backward = backward
            out._prev = tuple(p for p in parents if isinstance(p, Tensor) and p.requires_grad)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (appropriate for scalar losses).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Its parents have their share: an intermediate's gradient
                # is dead weight from here on.
                node.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._make(data, (self, other), backward, self.requires_grad or other.requires_grad)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor._make(data, (self, other), backward, self.requires_grad or other.requires_grad)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor._make(data, (self,), backward, self.requires_grad)

    # ------------------------------------------------------------------
    # Matrix / shape operations
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data
        return Tensor._make(
            data, (self, other), lambda grad: matmul_backward(self, other, grad),
            self.requires_grad or other.requires_grad,
        )

    __matmul__ = matmul

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward, self.requires_grad)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward, self.requires_grad)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(data, (self,), backward, self.requires_grad)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(data, (self,), backward, self.requires_grad)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            expanded = data if keepdims or axis is None else np.expand_dims(data, axis)
            mask = (self.data == expanded).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            g = grad if keepdims or axis is None else np.expand_dims(grad, axis)
            self._accumulate(mask * g)

        return Tensor._make(data, (self,), backward, self.requires_grad)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward, self.requires_grad)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward, self.requires_grad)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        data = np.abs(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._make(data, (self,), backward, self.requires_grad)

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = np.ones_like(self.data)
        if low is not None:
            mask *= self.data >= low
        if high is not None:
            mask *= self.data <= high

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward, self.requires_grad)
