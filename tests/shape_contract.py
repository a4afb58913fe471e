"""Call-time ``@shape_spec`` contract: declared shapes against real ones.

Not production code (``shape_spec`` returns the function object itself,
so nothing here is ever on a serving or training path): inside
:func:`enforce` every annotated callable of ``repro.nn`` / ``repro.core``
is rebound to a wrapper that compares its declaration with the shapes
and dtypes of each real call and raises :class:`ShapeContractError`
naming ``Class.method(arg)`` on a mismatch.  The suites that drive the
substrate opt in through the ``shape_contracts`` fixture
(``tests/conftest.py``); ``test_shape_contract.py`` proves the wrapper
is sensitive and that one compact pass reaches every declaration.
"""

import collections
import contextlib
import functools
import importlib
import inspect
import pkgutil

import numpy as np

import repro.core
import repro.nn
from repro.nn import Tensor

_NO_BUILTINS = {"__builtins__": {}}


class ShapeContractError(AssertionError):
    """A real call disagreed with its ``@shape_spec`` declaration."""


def _namespaces():
    """Every module of ``repro.nn`` / ``repro.core`` and every class they
    define — the places a callable can be bound."""
    for package in (repro.nn, repro.core):
        submodules = pkgutil.iter_modules(package.__path__, package.__name__ + ".")
        for name in [package.__name__, *(info.name for info in submodules)]:
            module = importlib.import_module(name)
            yield module
            for value in vars(module).values():
                if inspect.isclass(value) and value.__module__ == name:
                    yield value


def _bindings() -> list:
    """``(namespace, name, function)`` for every place a ``__shape_spec__``
    bearer is bound — by-name imports (``from ..nn.positional import
    tree_path_encoding``) included."""
    return [
        (namespace, name, value)
        for namespace in _namespaces()
        for name, value in vars(namespace).items()
        if inspect.isfunction(value) and hasattr(value, "__shape_spec__")
    ]


def annotated_callables() -> dict:
    """``{qualname: function}``: each annotated function once, however
    many names it is bound under."""
    return {fn.__qualname__: fn for _, _, fn in _bindings()}


class _Symbols(dict):
    """One call's dimension bindings: int arguments, then ``self.<name>``;
    any other name is free and binds to the first size it meets."""

    def __init__(self, arguments):
        super().__init__((k, v) for k, v in arguments.items() if type(v) is int)
        self.owner = arguments.get("self")

    def __missing__(self, name):
        value = getattr(self.owner, name, None)
        if type(value) is not int:
            raise KeyError(name)
        self[name] = value
        return value


@functools.lru_cache(maxsize=None)
def _parse(shape: str):
    """``"(..., a, b*c)"`` -> (leading ``...``?, ((text, compiled), ...))."""
    dims = [dim.strip() for dim in shape.strip()[1:-1].split(",") if dim.strip()]
    star = dims[:1] == ["..."]
    return star, tuple((dim, compile(dim, "<shape_spec>", "eval")) for dim in dims[star:])


def _match(declared, value, dtype, symbols, where):
    if value is None:  # an optional argument left out
        return
    if isinstance(declared, tuple):
        if not isinstance(value, (tuple, list)) or len(value) != len(declared):
            raise ShapeContractError(f"{where}: declared a {len(declared)}-tuple, got {value!r}")
        for index, (item, part) in enumerate(zip(declared, value)):
            _match(item, part, dtype, symbols, f"{where}[{index}]")
        return
    array = value.data if isinstance(value, Tensor) else np.asarray(value)
    star, dims = _parse(declared)
    if array.ndim < len(dims) or not (star or array.ndim == len(dims)):
        raise ShapeContractError(f"{where}: declared {declared}, got {array.shape}")
    for (text, code), size in zip(dims, array.shape[array.ndim - len(dims):]):
        try:
            expected = eval(code, _NO_BUILTINS, symbols)
        except NameError:
            if not text.isidentifier():
                raise ShapeContractError(f"{where}: `{text}` in {declared} has an unbound symbol")
            expected = symbols[text] = size
        if expected != size:
            raise ShapeContractError(
                f"{where}: declared {declared} with {text}={expected}, got {array.shape}"
            )
    if array.dtype != dtype:
        raise ShapeContractError(f"{where}: declared {dtype}, got {array.dtype}")


def _checked(fn, calls):
    names = tuple(inspect.signature(fn).parameters)
    label = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spec = fn.__shape_spec__  # read per call: tests edit declarations in place
        arguments = dict(zip(names, args), **kwargs)
        symbols = _Symbols(arguments)
        calls[label] += 1
        for name in spec["params"]:
            if not hasattr(symbols.owner, name):
                raise ShapeContractError(f"{label}: params names `{name}`, which the owner lacks")
        dtypes = spec["dtypes"]
        for name, declared in spec["inputs"].items():
            _match(declared, arguments.get(name), dtypes.get(name, "float64"), symbols,
                   f"{label}({name})")
        result = fn(*args, **kwargs)
        if spec["out"] is not None:
            _match(spec["out"], result, dtypes.get("out", "float64"), symbols, f"{label} -> out")
        return result

    return wrapper


@contextlib.contextmanager
def enforce():
    """Check every annotated call made inside the block; yields the
    per-callable call counter.  Every binding is restored on exit."""
    calls = collections.Counter()
    bindings = _bindings()
    wrappers = {fn: _checked(fn, calls) for _, _, fn in bindings}
    for namespace, name, fn in bindings:
        setattr(namespace, name, wrappers[fn])
    try:
        yield calls
    finally:
        for namespace, name, fn in bindings:
            setattr(namespace, name, fn)
