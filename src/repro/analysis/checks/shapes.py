"""Symbolic shape / dtype checkers.

These wrap :mod:`repro.analysis.shapes` — the abstract interpreter over
``@shape_spec``-annotated modules — in the standard :class:`Checker`
interface, so its findings flow through the same suppression, baseline
and fingerprint machinery as every AST lint.

Two checkers, two failure classes:

- ``shape-spec`` — interprets every annotated method/function body over
  symbolic dims and reports shape mismatches, unintended implicit
  broadcasts, and declared-dtype violations at call boundaries.
- ``dtype-lattice`` — lexical dtype-creep scan: any concrete ``dtype=``
  or ``astype(...)`` outside the canonical {float64, int64, bool} set.
  Scoped to the numeric core (``nn/``, ``core/``) where the canonical-
  dtype rule applies; tools and tests may use narrow dtypes freely.

Cross-file resolution: when the checked file is a real file inside a
``repro`` package checkout, the interpreter loads specs for the whole
``nn``/``core`` library so e.g. ``core/trans_jo.py`` sees the decoder's
specs.  Findings are still anchored to the checked module only — each
file reports its own classes, so a repo sweep never duplicates them.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from ..findings import Finding
from ..linter import SourceModule
from ..shapes import (
    Problem,
    SpecRegistry,
    collect_registry,
    decorated_function_names,
    dtype_problems,
    interpret_class,
    interpret_function,
    library_registry,
)
from .base import Checker

__all__ = ["ShapeChecker", "DtypeChecker"]

# Where the canonical-dtype rule (and the annotated substrate) lives.
_NUMERIC_SCOPE = ("*nn/*.py", "*core/*.py")


def _registries(module: SourceModule) -> tuple[SpecRegistry, set, set]:
    """``(registry, own class names, own function names)`` for a file.

    The registry collects the module *with* the on-disk nn/core library
    as context (own definitions win, so a scratch copy with seeded
    violations is interpreted as written, not as checked in); synthetic
    paths (fixtures) resolve against themselves only.  The name sets
    anchor findings: a file only ever reports its own definitions, so a
    repo sweep never duplicates them.
    """
    library = library_registry(module.rel_path)
    registry = collect_registry([module], context=library)
    own_classes = {
        node.name for node in module.tree.body if isinstance(node, ast.ClassDef)
    }
    return registry, own_classes, decorated_function_names(module.tree)


class ShapeChecker(Checker):
    """Abstract interpretation of every ``@shape_spec`` body."""

    name = "shape-spec"
    description = (
        "symbolic shape/dtype interpretation of @shape_spec-annotated "
        "methods: mismatches, implicit broadcasts, declared-dtype breaks"
    )

    def check(self, module: SourceModule) -> list[Finding]:
        registry, own_classes, own_functions = _registries(module)
        problems: list[Problem] = []
        for name in sorted(own_classes):
            problems.extend(interpret_class(registry, registry.classes[name]))
        for name in sorted(own_functions):
            problems.extend(interpret_function(registry, registry.functions[name]))
        return sorted(
            Finding(
                path=module.rel_path,
                line=problem.lineno,
                checker=self.name,
                symbol=problem.symbol,
                message=problem.message,
            )
            for problem in problems
        )


class DtypeChecker(Checker):
    """Lexical dtype-lattice discipline over the numeric core."""

    name = "dtype-lattice"
    description = (
        "dtype creep in nn/ and core/: concrete dtypes outside the "
        "canonical {float64, int64, bool} set"
    )

    def __init__(self, scope: tuple[str, ...] = _NUMERIC_SCOPE):
        self.scope = tuple(scope)

    def check(self, module: SourceModule) -> list[Finding]:
        if not any(fnmatch(module.rel_path, pattern) for pattern in self.scope):
            return []
        return sorted(
            Finding(
                path=module.rel_path,
                line=problem.lineno,
                checker=self.name,
                symbol=problem.symbol,
                message=problem.message,
            )
            for problem in dtype_problems(module.tree)
        )
