"""Checker interface and shared AST utilities.

Every checker is a small object with a stable ``name`` (the id used by
``# analysis: ignore[name]`` suppressions) and a
``check(module) -> list[Finding]`` method.  Checkers are configured by
constructor arguments so tests can point them at fixture conventions;
module-level defaults encode this repo's actual invariants.
"""

from __future__ import annotations

import ast
import re

from ..findings import Finding
from ..linter import SourceModule

__all__ = [
    "Checker",
    "dotted_name",
    "self_attr",
    "iter_functions",
    "lock_attrs_of_class",
    "GUARDED_BY_RE",
    "HOLDS_RE",
    "COARSE_LOCK_RE",
]

# "# guarded-by: _mutex" on a field's __init__ assignment line.
GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*(\w+)")
# "# holds: _mutex[, _other]" on a def line: the method documents that
# its callers own the lock(s) (the repo's *_locked suffix, spelled out).
HOLDS_RE = re.compile(r"#\s*holds:\s*([\w, ]+)")
# "# analysis: coarse-lock" on a lock's creation line: held across long
# operations by design (e.g. the model's inference lock), so the
# blocking-under-mutex rule does not apply to it.
COARSE_LOCK_RE = re.compile(r"#\s*analysis:\s*coarse-lock")


class Checker:
    """Base class; subclasses set ``name`` and implement ``check``."""

    name = "checker"
    description = ""

    def check(self, module: SourceModule) -> list[Finding]:
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST, message: str, symbol: str = "") -> Finding:
        return Finding(
            path=module.rel_path,
            line=getattr(node, "lineno", 1),
            checker=self.name,
            symbol=symbol,
            message=message,
        )


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.AST) -> str | None:
    """``x`` when ``node`` is exactly ``self.x``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_functions(tree: ast.AST):
    """Yield ``(qualname, class_node_or_None, func_node)`` for every
    function/method, with qualnames like ``Class.method`` or ``func``."""

    def walk(node: ast.AST, prefix: str, cls: ast.ClassDef | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, cls, child
                yield from walk(child, f"{qual}.", cls)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", child)
            else:
                yield from walk(child, prefix, cls)

    yield from walk(tree, "", None)


_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}


def lock_attrs_of_class(
    cls: ast.ClassDef, module: SourceModule
) -> tuple[dict[str, str], set[str]]:
    """Discover a class's lock attributes from its ``__init__``.

    Returns ``(aliases, coarse)``: ``aliases`` maps each lock-ish
    attribute to its root lock (``self._cond = threading.Condition(self._mutex)``
    makes ``_cond`` an alias of ``_mutex``; a standalone
    ``threading.Lock()`` maps to itself), and ``coarse`` holds the roots
    whose creation line carries ``# analysis: coarse-lock``.
    """
    aliases: dict[str, str] = {}
    coarse: set[str] = set()
    for item in cls.body:
        if not (isinstance(item, ast.FunctionDef) and item.name == "__init__"):
            continue
        for node in ast.walk(item):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = self_attr(node.targets[0])
            if target is None:
                continue
            value = node.value
            # self.A = self.B -> plain alias.
            source = self_attr(value)
            if source is not None and source in aliases:
                aliases[target] = aliases[source]
                continue
            if not isinstance(value, ast.Call):
                continue
            factory = dotted_name(value.func)
            if factory is None:
                continue
            leaf = factory.rsplit(".", 1)[-1]
            if leaf not in _LOCK_FACTORIES:
                continue
            root = target
            if leaf == "Condition" and value.args:
                wrapped = self_attr(value.args[0])
                if wrapped is not None:
                    root = aliases.get(wrapped, wrapped)
            aliases[target] = root
            if COARSE_LOCK_RE.search(module.comment_on(node.lineno)):
                coarse.add(root)
    return aliases, coarse
