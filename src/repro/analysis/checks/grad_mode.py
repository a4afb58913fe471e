"""No-tape-in-serving checker: forward passes in decode/serve paths run
under ``nn.no_grad()``.

The autodiff tape records every tensor op while grad is enabled; a
serving path that forgets ``no_grad`` silently allocates tape nodes for
every request — exactly the class of leak PR 5 fixed by making grad
mode thread-local.  This checker pins the convention statically: inside
the registered *serving scopes* (inference methods of the model, the
beam driver, everything under ``serve/``), every call to a registered
*forward op* must sit lexically inside a ``with nn.no_grad():`` (or
bare ``no_grad()``) block.

Training code (``core/trainer.py``, losses) is intentionally outside
the scopes — it needs the tape.

A second checker, :class:`RawKernelChecker`, pins the nn substrate's
central invariant from the other side: the raw-ndarray kernels
(``nn.kernels.*``) skip all autograd bookkeeping, so code that calls one
directly could silently train on garbage gradients.  Layer bodies never
need to — they are written once against the ``nn.functional`` op table,
which picks the kernel only for operands that are already raw ndarrays —
so the rule is simply that the op table is the kernels' only caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatch

from ..findings import Finding
from ..linter import SourceModule
from .base import Checker, dotted_name, iter_functions

__all__ = ["GradModeChecker", "GradModeScope", "FORWARD_CALLS", "RawKernelChecker", "KERNEL_OPS"]

# Calls that run module forwards / record tape ops when grad is enabled.
FORWARD_CALLS = frozenset(
    {
        "forward_batch",
        "predict_log_nodes",
        "encode_filter",
        "column_embedding",
        "decode_step",
    }
)


@dataclass(frozen=True)
class GradModeScope:
    """Functions matching ``qualname_glob`` in files matching ``path_glob``."""

    path_glob: str
    qualname_glob: str


# predict_log_nodes / forward_batch are deliberately NOT scopes: they
# are the shared forward building blocks the trainer calls with the
# tape on; the no_grad obligation sits on their inference-side callers.
DEFAULT_SCOPES = (
    GradModeScope("*core/model.py", "MTMLFQO.predict_cardinalities"),
    GradModeScope("*core/model.py", "MTMLFQO.predict_costs"),
    GradModeScope("*core/model.py", "MTMLFQO.predict_join_order"),
    GradModeScope("*core/model.py", "MTMLFQO.predict_join_orders"),
    GradModeScope("*core/model.py", "MTMLFQO._decode_candidate_chunks"),
    GradModeScope("*core/model.py", "MTMLFQO._rerank_by_cost_batch"),
    GradModeScope("*core/model.py", "MTMLFQO._node_content"),
    GradModeScope("*core/beam.py", "drive_beam_states"),
    GradModeScope("*/serve/*.py", "*"),
)


class GradModeChecker(Checker):
    name = "grad-mode"
    description = "serving-path forward calls wrapped in nn.no_grad()"

    def __init__(self, scopes=DEFAULT_SCOPES, forward_calls=FORWARD_CALLS):
        self.scopes = tuple(scopes)
        self.forward_calls = frozenset(forward_calls)

    def _in_scope(self, rel_path: str, qualname: str) -> bool:
        return any(
            fnmatch(rel_path, scope.path_glob) and fnmatch(qualname, scope.qualname_glob)
            for scope in self.scopes
        )

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for qual, _, func in iter_functions(module.tree):
            if not self._in_scope(module.rel_path, qual):
                continue
            self._walk(module, func, under_no_grad=False, symbol=qual, findings=findings)
        return findings

    @staticmethod
    def _enters_no_grad(node: ast.With) -> bool:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                name = dotted_name(expr.func)
                if name is not None and name.rsplit(".", 1)[-1] == "no_grad":
                    return True
        return False

    def _walk(self, module, node, under_no_grad, symbol, findings) -> None:
        if isinstance(node, ast.With) and self._enters_no_grad(node):
            for child in node.body:
                self._walk(module, child, True, symbol, findings)
            return
        if not under_no_grad and isinstance(node, ast.Call):
            name = dotted_name(node.func)
            leaf = name.rsplit(".", 1)[-1] if name else None
            if leaf in self.forward_calls:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"forward call {leaf}() on a serving path outside "
                        f"nn.no_grad() — this records autodiff tape per request",
                        symbol=symbol,
                    )
                )
        for child in ast.iter_child_nodes(node):
            # Nested defs get their own iter_functions visit.
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self._walk(module, child, under_no_grad, symbol, findings)


# The raw-ndarray compute kernels of repro.nn.kernels.  A call like
# ``kernels.linear(...)`` / ``nn.kernels.softmax(...)`` bypasses the tape;
# ScratchArena/profiled/KernelProfile are mode-neutral plumbing.
KERNEL_OPS = frozenset(
    {
        "matmul",
        "linear",
        "layer_norm",
        "relu",
        "sigmoid",
        "softmax",
        "log_softmax",
        "masked_fill",
    }
)


class RawKernelChecker(Checker):
    """Only the op table may call ``kernels.*``.

    ``nn/functional.py`` dispatches each op on its operand's type, so a
    kernel there can only ever see raw ndarrays; any other call site
    would have to re-argue that for itself, and none needs to.
    ``nn.kernels`` itself is exempt: it defines the ops.
    """

    name = "raw-kernel"
    description = "nn.kernels ops called only from the nn.functional op table"

    def __init__(
        self,
        exempt_globs=("*nn/kernels.py", "*nn/functional.py"),
        kernel_ops=KERNEL_OPS,
    ):
        self.exempt_globs = tuple(exempt_globs)
        self.kernel_ops = frozenset(kernel_ops)

    def check(self, module: SourceModule) -> list[Finding]:
        if any(fnmatch(module.rel_path, glob) for glob in self.exempt_globs):
            return []
        findings: list[Finding] = []
        self._walk(module, module.tree, "<module>", findings)
        return findings

    def _walk(self, module, node, symbol, findings) -> None:
        for child in ast.iter_child_nodes(node):
            inner = symbol
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if symbol == "<module>" else f"{symbol}.{child.name}"
            elif isinstance(child, ast.Call):
                parts = (dotted_name(child.func) or "").split(".")
                if len(parts) >= 2 and parts[-2] == "kernels" and parts[-1] in self.kernel_ops:
                    findings.append(
                        self.finding(
                            module,
                            child,
                            f"raw kernel call {'.'.join(parts)}() outside the op table — "
                            f"it skips the tape whatever the grad mode; call the "
                            f"nn.functional op of the same name instead",
                            symbol=symbol,
                        )
                    )
            self._walk(module, child, inner, findings)
