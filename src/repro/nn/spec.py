"""Declarative shape/dtype specs for nn layers and kernels.

``shape_spec`` attaches a *symbolic* signature to a forward method or
kernel function: input shapes, output shape(s), the parameter set the
method reads, and any non-default dtypes.  Shapes are strings parsed as
Python tuples of dimension expressions over symbols — free symbols
(``B``, ``L`` …) bind per call; names matching constructor parameters /
attributes (``in_features``, ``dim`` …) are fixed by the layer instance;
``...`` as the first element means "any leading dims"::

    @shape_spec(inputs={"x": "(..., in_features)"},
                out="(..., out_features)",
                params=("weight", "bias"))
    def forward(self, x): ...

The decorator is runtime-inert — it stashes the spec on the function as
``__shape_spec__`` and returns the function object itself, so no
wrapper, gate or extra frame ever sits on a production call.  The
consumer is the test suite: ``tests/shape_contract.py`` rebinds every
``__shape_spec__`` bearer of ``repro.nn`` / ``repro.core`` to a checking
wrapper for the duration of the substrate suites and compares each
declaration with the shapes and dtypes of every real call (DESIGN.md
section 12).  A layer's one ``forward`` runs both on the autograd tape
and on raw ndarrays (see :mod:`repro.nn.functional`), so its one spec
covers — and is checked in — both.
"""

from __future__ import annotations

__all__ = ["shape_spec"]


def shape_spec(
    inputs: dict | None = None,
    out=None,
    params: tuple = (),
    dtypes: dict | None = None,
):
    """Attach a declarative symbolic shape/dtype spec to a callable.

    Parameters
    ----------
    inputs:
        Mapping of argument name to shape string (or tuple of shape
        strings for tuple-valued arguments).  Arguments left out, and
        declared arguments passed as ``None``, are unconstrained.
    out:
        Shape string of the return value, or a tuple of shape strings
        for tuple returns.
    params:
        Names of the parameter-bearing attributes this method reads
        (directly or through sub-modules).  The contract asserts each
        is an attribute of the owner, so a renamed sub-layer cannot
        leave a stale name behind.
    dtypes:
        Mapping of argument name (or ``"out"``) to dtype name for
        anything that is not the canonical ``float64``.
    """

    def wrap(fn):
        fn.__shape_spec__ = {
            "inputs": inputs or {},
            "out": out,
            "params": tuple(params),
            "dtypes": dtypes or {},
        }
        return fn

    return wrap
