"""Hygiene checkers: small, repo-wide mechanical invariants.

- **atomic-write** — durable artifacts go through
  :func:`repro.nn.serialize.atomic_savez` (tmp + fsync + ``os.replace``);
  direct ``np.savez``/``np.save``/``pickle.dump`` calls anywhere else can
  leave a truncated file on a crash mid-write.
- **thread-discipline** — every ``threading.Thread`` is constructed with
  an explicit ``daemon=`` argument.  Daemon threads can't wedge
  interpreter shutdown; a deliberate non-daemon thread states
  ``daemon=False`` and its owner is expected to join it.
- **silent-except** — no ``except Exception/BaseException/bare: pass``.
  Worker loops must *count* or re-raise what they swallow; an invisible
  failure in a drain/feedback/adaptation loop is how experience flow
  silently stops.
- **wall-clock** — ``time.time()`` is wall clock and jumps under NTP;
  all latency/interval math uses ``time.monotonic()`` or
  ``time.perf_counter()``.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from ..findings import Finding
from ..linter import SourceModule
from .base import Checker, dotted_name, iter_functions

__all__ = [
    "AtomicWriteChecker",
    "ThreadDisciplineChecker",
    "SilentExceptChecker",
    "WallClockChecker",
]


def _enclosing_symbols(tree: ast.AST) -> dict[int, str]:
    """Map statement ids to their enclosing function qualname."""
    owners: dict[int, str] = {}
    for qual, _, func in iter_functions(tree):
        for node in ast.walk(func):
            owners.setdefault(id(node), qual)
    return owners


class _CallChecker(Checker):
    """Shared walk for checkers that flag specific call patterns."""

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        owners = _enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            message = self.match(module, node)
            if message is not None:
                findings.append(
                    self.finding(module, node, message, symbol=owners.get(id(node), ""))
                )
        return findings

    def match(self, module: SourceModule, node: ast.AST) -> str | None:
        raise NotImplementedError


class AtomicWriteChecker(_CallChecker):
    name = "atomic-write"
    description = "durable writes go through atomic_savez"

    # Files allowed to call the raw primitives (the atomic writer itself).
    def __init__(self, exempt_globs=("*nn/serialize.py",)):
        self.exempt_globs = tuple(exempt_globs)

    _RAW_WRITERS = {
        "np.savez", "np.savez_compressed", "np.save",
        "numpy.savez", "numpy.savez_compressed", "numpy.save",
        "pickle.dump",
    }

    def match(self, module, node):
        if any(fnmatch(module.rel_path, glob) for glob in self.exempt_globs):
            return None
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in self._RAW_WRITERS:
                return (
                    f"direct {name}() — write durable artifacts through "
                    f"repro.nn.serialize.atomic_savez so a crash mid-save "
                    f"cannot leave a truncated file"
                )
        return None


class ThreadDisciplineChecker(_CallChecker):
    name = "thread-discipline"
    description = "threads are constructed with an explicit daemon="

    def match(self, module, node):
        if not isinstance(node, ast.Call):
            return None
        name = dotted_name(node.func)
        if name not in ("threading.Thread", "Thread"):
            return None
        if any(kw.arg == "daemon" for kw in node.keywords):
            return None
        return (
            "threading.Thread without an explicit daemon= argument — pass "
            "daemon=True, or daemon=False with the owner responsible for "
            "joining it"
        )


class SilentExceptChecker(Checker):
    name = "silent-except"
    description = "no except Exception/BaseException/bare handlers that only pass"

    _BROAD = {"Exception", "BaseException"}

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        owners = _enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is not None:
                name = dotted_name(node.type)
                if name is None or name.rsplit(".", 1)[-1] not in self._BROAD:
                    continue
                caught = name
            else:
                caught = "everything (bare except)"
            if all(self._is_noop(stmt) for stmt in node.body):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"handler catches {caught} and does nothing — count, "
                        f"log, or re-raise; a silent swallow in a worker loop "
                        f"hides real failures",
                        symbol=owners.get(id(node), ""),
                    )
                )
        return findings

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            return True
        return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


class WallClockChecker(_CallChecker):
    name = "wall-clock"
    description = "interval math uses monotonic clocks"

    def match(self, module, node):
        if isinstance(node, ast.Call) and dotted_name(node.func) == "time.time":
            return (
                "time.time() is wall clock (jumps under NTP) — use "
                "time.monotonic() or time.perf_counter() for durations"
            )
        return None
