"""``dtype-lattice`` — lexical dtype-creep scan over the numeric core.

The substrate's canonical dtypes are {float64, int64, bool}
(``nn.tensor`` coerces to float64, the kernels allocate it, bit-identity
across tape and kernel runs depends on it).  A stray ``dtype=np.float32``
or ``astype("float16")`` silently de-canonicalizes everything it touches
through numpy promotion, and no test fails until a tolerance does — so
any concrete narrow dtype in ``nn/`` or ``core/`` is a finding.  Tools
and tests may use narrow dtypes freely.

Shapes themselves are not checked statically: every ``@shape_spec`` is
compared with the real shapes of real calls by ``tests/shape_contract.py``
(DESIGN.md section 12).
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from ..findings import Finding
from ..linter import SourceModule
from .base import Checker, dotted_name

__all__ = ["DtypeChecker"]

# Where the canonical-dtype rule lives.
_NUMERIC_SCOPE = ("*nn/*.py", "*core/*.py")
# Spellings of the concrete dtypes outside the canonical set.
_NARROW = {"float32": "float32", "single": "float32", "float16": "float16", "int32": "int32"}


def _narrow_dtype(node: ast.AST) -> str | None:
    """The narrow dtype ``node`` spells (``np.float32`` / ``"float32"``), else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _NARROW.get(node.value)
    name = dotted_name(node)
    return _NARROW.get(name.rsplit(".", 1)[-1]) if name else None


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
        findings: list[Finding] = []

        def visit(node: ast.AST, symbol: str) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                symbol = f"{symbol}.{node.name}" if symbol else node.name
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    dtype = _narrow_dtype(keyword.value) if keyword.arg == "dtype" else None
                    if dtype:
                        findings.append(self.finding(
                            module, keyword.value,
                            f"dtype={dtype} is outside the canonical set {{float64, int64, "
                            f"bool}} — numpy promotion will silently spread it", symbol))
                if isinstance(node.func, ast.Attribute) and node.func.attr == "astype" and node.args:
                    dtype = _narrow_dtype(node.args[0])
                    if dtype:
                        findings.append(self.finding(
                            module, node,
                            f"astype({dtype}) leaves the canonical dtype set "
                            f"{{float64, int64, bool}}", symbol))
            for child in ast.iter_child_nodes(node):
                visit(child, symbol)

        visit(module.tree, "")
        return sorted(findings)
