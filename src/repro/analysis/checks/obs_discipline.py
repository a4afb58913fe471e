"""Telemetry-usage discipline for the ``repro.obs`` substrate.

One rule keeps instrumentation from degrading the code it observes:

- **no recording under a service mutex** — metric and SLO recording
  takes the metric's private lock; doing it while lexically holding one
  of the enclosing class's own locks both serializes unrelated request
  threads behind telemetry and threads the service lock into the
  metric-lock order.  Record after releasing, the way
  ``ServiceStats.note_completed`` does.  A ``*.stats.note_*`` call
  records too: it is a ``ServiceStats`` writer wrapping ``inc()`` /
  ``observe()``.

(Balanced spans need no rule: ``TraceRecorder`` has only the
context-manager form, so there is no open-span handle to leak.)
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..linter import SourceModule
from .base import Checker, dotted_name, iter_functions, lock_attrs_of_class, self_attr

__all__ = ["ObsDisciplineChecker"]

# Attribute leaves that record into a metric: Counter.inc,
# Histogram.observe, Gauge.update_max — every recording method a metric
# has.
_RECORDING_LEAVES = frozenset({"inc", "observe", "update_max"})
# Dotted-name suffixes that record through a telemetry handle even
# though their leaf ("record") is generic: SLOTracker.record and
# TraceRecorder.record reached via *.slo / *.tracer.
_RECORDING_SUFFIXES = ("slo.record", "tracer.record")


class ObsDisciplineChecker(Checker):
    """No telemetry recording while holding a service mutex."""

    name = "obs-discipline"
    description = "no metric recording while holding a service lock"

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for qualname, cls, func in iter_functions(module.tree):
            if cls is None:
                continue
            aliases, _ = lock_attrs_of_class(cls, module)
            if not aliases:
                continue
            for stmt in ast.walk(func):
                if not isinstance(stmt, ast.With):
                    continue
                held = self._held_lock(stmt, aliases)
                if held is None:
                    continue
                for call in self._body_walk(stmt):
                    label = self._recording_call(call)
                    if label is not None:
                        findings.append(
                            self.finding(
                                module,
                                call,
                                f"{label} while holding self.{held} — telemetry "
                                f"recording takes the metric's own lock; move it "
                                f"after the 'with self.{held}:' block",
                                symbol=qualname,
                            )
                        )
        return findings

    @staticmethod
    def _held_lock(node: ast.With, aliases: "dict[str, str]") -> "str | None":
        for item in node.items:
            attr = self_attr(item.context_expr)
            if attr is not None and attr in aliases:
                return attr
        return None

    @staticmethod
    def _body_walk(with_node: ast.With):
        """Calls lexically inside the with body (including nested withs)."""
        for stmt in with_node.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    yield node

    @staticmethod
    def _recording_call(call: ast.Call) -> "str | None":
        if not isinstance(call.func, ast.Attribute):
            return None
        leaf = call.func.attr
        if leaf in _RECORDING_LEAVES:
            return f"{leaf}()"
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        if leaf == "record" and any(dotted.endswith(suffix) for suffix in _RECORDING_SUFFIXES):
            return f"{dotted}()"
        # ServiceStats writers, reached as <owner>.stats.note_*().
        if leaf.startswith("note_") and dotted.rsplit(".", 2)[-2:-1] == ["stats"]:
            return f"{dotted}()"
        return None
