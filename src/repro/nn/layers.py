"""Neural-network layers built on the autograd :class:`Tensor`.

Provides the ``Module`` base class (parameter registration, state
dicts, and the tape/no-tape boundary in ``__call__``) and the standard
layers used by MTMLF-QO: ``Linear``, ``LayerNorm``, ``Embedding`` and
``MLP``.  A module has weights and no mode: its ``forward`` is one
function of its inputs and parameters.

Every layer has exactly one ``forward`` body, written against the
:mod:`repro.nn.functional` op table; it computes on whatever it is
handed — ``Tensor``s (recording tape) or raw ndarrays (in-place
kernels) — and the two runs are the same function bit for bit.

:func:`parameter_vector` packs a parameter list into one aligned
float64 vector; a model that owns its parameters packs them once, and
every optimizer over that list steps the same vector.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import functional as F
from .spec import shape_spec
from .tensor import Tensor, _unbroadcast, no_tape_active, raw

__all__ = ["Module", "Parameter", "Linear", "LayerNorm", "Embedding", "MLP", "ModuleList", "parameter_vector"]

# float64s per 64 bytes.  Every segment of a parameter vector starts on a
# 64-byte boundary: BLAS reads a weight matrix at a cache-line-aligned
# address faster than one at an arbitrary 8-byte offset (a (128, 48) @
# (48, 96) matmul took ~25 us against ~29 us with OpenBLAS 0.3.31 on a
# 2-core Xeon), and every forward pass reads the weights.
_ALIGN = 8


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable parameter.

    ``grad_view`` is the parameter's segment of its optimizer's gradient
    vector (None until an optimizer packs it): the first gradient of a
    backward pass is written there, so ``grad`` is that view.  A gradient
    with extra leading axes (a weight used by a batched matmul, a bias
    added over ``(B, L, d)``) is summed over them straight into the
    view — the reduction ``_unbroadcast`` makes, without its temporary.
    """

    grad_view: np.ndarray | None = None

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def _accumulate(self, grad: np.ndarray) -> None:
        view = self.grad_view
        if self.grad is not None or view is None:
            super()._accumulate(grad)
            return
        extra = grad.ndim - view.ndim
        if extra > 0 and grad.shape[extra:] == view.shape:
            np.sum(grad, axis=tuple(range(extra)), out=view)
        else:
            np.copyto(view, _unbroadcast(grad, view.shape))
        self.grad = view


def aligned_zeros(size: int) -> np.ndarray:
    """``size`` float64 zeros whose first element is 64-byte aligned."""
    buffer = np.zeros(size + _ALIGN)
    skip = (-buffer.ctypes.data % 64) // 8
    return buffer[skip : skip + size]


def segment_strides(shapes) -> np.ndarray:
    """Each shape's segment length in a parameter vector: its size
    rounded up to whole 64-byte cache lines (the padding stays zero)."""
    sizes = np.array([math.prod(shape) for shape in shapes], dtype=np.int64)
    return -(-sizes // _ALIGN) * _ALIGN


def segment_views(vector: np.ndarray, shapes) -> list[np.ndarray]:
    """``vector`` cut into one view per shape, in that shape."""
    starts = np.cumsum(segment_strides(shapes)).tolist()
    return [
        vector[start : start + math.prod(shape)].reshape(shape)
        for start, shape in zip([0] + starts[:-1], shapes)
    ]


def vector_layout(named_parameters) -> list[tuple[str, tuple[int, ...]]]:
    """The ``(name, shape)`` pair of each segment, in order: with
    :func:`segment_strides`, what places every float of a vector."""
    return [(str(name), tuple(p.data.shape)) for name, p in named_parameters]


def layout_mismatch(saved, current) -> str | None:
    """None when two layouts are equal, else a message naming the first
    differing entry (``saved`` may hold JSON lists)."""
    saved = [(name, tuple(shape)) for name, shape in saved]
    for index, (ours, theirs) in enumerate(itertools.zip_longest(saved, current)):
        if ours != theirs:
            return f"entry {index} is {ours} in the saved layout, {theirs} here"
    return None


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def parameter_vector(parameters: list[Parameter]) -> np.ndarray:
    """The one float64 vector holding ``parameters``' values, in order.

    Each parameter's segment starts on a 64-byte boundary and is padded
    to whole cache lines with zeros.  When the parameters' ``data``
    already are the segments of one such vector, filling it in this
    order, that vector is returned and nothing is copied; otherwise a
    new one is laid out, each parameter's values copied in and its
    ``data`` rebound to its segment.
    """
    datas = [p.data for p in parameters]
    shapes = [data.shape for data in datas]
    strides = segment_strides(shapes)
    total = int(strides.sum())
    owner = datas[0].base if datas else None
    # Only a buffer aligned_zeros made for exactly this layout can hold it.
    if owner is not None and owner.ndim == 1 and owner.size == total + _ALIGN:
        start = _address(datas[0])
        skip = (start - _address(owner)) // 8
        offsets = (start + 8 * (np.cumsum(strides) - strides)).tolist()
        if skip + total <= owner.size and all(
            data.base is owner and data.flags.c_contiguous and _address(data) == offset
            for data, offset in zip(datas, offsets)
        ):
            return owner[skip : skip + total]
    vector = aligned_zeros(total)
    for p, data in zip(parameters, segment_views(vector, shapes)):
        data[...] = p.data
        p.data = data
    return vector


def _wrapped(value):
    """Inverse of ``raw`` for what a body returns (a float64 array)."""
    return Tensor._wrap(value) if isinstance(value, np.ndarray) else value


class Module:
    """Base class with recursive parameter discovery and (de)serialization."""

    # -- parameter traversal -------------------------------------------------
    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        found: list[tuple[str, Parameter]] = []
        for key, value in vars(self).items():
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                found.append((path, value))
            elif isinstance(value, Module):
                found.extend(value.named_parameters(prefix=path + "."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        found.append((f"{path}.{i}", item))
                    elif isinstance(item, Module):
                        found.extend(item.named_parameters(prefix=f"{path}.{i}."))
            elif isinstance(value, dict):
                # Sorted so parameter order (and thus state-dict layout and
                # optimizer alignment) never depends on insertion order.
                for sub_key, item in sorted(value.items(), key=lambda kv: str(kv[0])):
                    if isinstance(item, Parameter):
                        found.append((f"{path}.{sub_key}", item))
                    elif isinstance(item, Module):
                        found.extend(item.named_parameters(prefix=f"{path}.{sub_key}."))
        return found

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # -- serialization ----------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the existing parameter arrays.

        In place, never by rebinding ``param.data``: a packed parameter's
        array is a view into its parameter vector (a model's, or a loose
        list's optimizer's), and a load must not detach it from there.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.data.shape}")
            param.data[...] = value

    def __call__(self, *args, **kwargs):
        # The substrate's one mode-selection site.  With no tape to
        # record, a body handed Tensors runs on their raw ndarrays instead
        # (so every op-table call inside returns its kernel result as it
        # is, sub-module calls included) and is wrapped once on the way out.
        # Bodies already running on ndarrays — nested calls, the beam
        # driver — and every call with the tape on pass straight through.
        if args and isinstance(args[0], Tensor) and no_tape_active():
            kwargs = {key: raw(value) for key, value in kwargs.items()}
            return _wrapped(self.forward(*map(raw, args), **kwargs))
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class ModuleList(Module):
    """A list of sub-modules whose parameters are tracked."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self.items = list(modules or [])

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]


def xavier_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    fan_in, fan_out = shape[0], shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    """Affine layer ``y = x W + b`` supporting arbitrary leading dims."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    @shape_spec(inputs={"x": "(..., in_features)"},
                out="(..., out_features)",
                params=("weight", "bias"))
    def forward(self, x):
        return F.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    @shape_spec(inputs={"x": "(..., dim)"},
                out="(..., dim)",
                params=("gamma", "beta"))
    def forward(self, x):
        return F.layer_norm(x, self.gamma, self.beta, self.eps, self.dim)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)))

    @shape_spec(inputs={"indices": "(...,)"},
                out="(..., dim)",
                params=("weight",),
                dtypes={"indices": "int64"})
    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.min(initial=0) < 0 or (indices.size and indices.max() >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        return self.weight[indices]


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between layers.

    Used for the paper's task heads ``M_CardEst`` and ``M_CostEst``
    (two-layer MLPs in the case study).
    """

    def __init__(self, dims: list[int], rng: np.random.Generator | None = None):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        rng = rng or np.random.default_rng(0)
        self.layers = ModuleList([Linear(a, b, rng=rng) for a, b in zip(dims[:-1], dims[1:])])

    @shape_spec(inputs={"x": "(..., d_in)"},
                out="(..., d_out)",
                params=("layers",))
    def forward(self, x):
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = F.relu(x)
        return x
