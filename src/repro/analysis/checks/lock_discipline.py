"""Lock-discipline checker: entry-point locking + no blocking under a mutex.

Two rules:

**Entry-lock rule.**  Classes registered in ``entry_rules`` (by default:
``MTMLFQO``) must take their inference lock in every public entry point
matching the registered name patterns — either a lexical
``with self.<lock>:`` in the method body, or a delegation call to
another entry point of the same class (``predict_join_order`` calling
``self.predict_join_orders`` is compliant).

**Blocking-under-mutex rule.**  Inside a ``with self.<lock>:`` block for
any lock created in the class's ``__init__`` (``threading.Lock`` /
``RLock`` / ``Condition``), the following are findings:

- ``time.sleep(...)``;
- zero-argument ``.join()`` calls (a thread join; ``str.join`` always
  takes an argument);
- calls whose name is in the configured blocking set — model decodes,
  trainer runs, engine executions, checkpoint IO;
- ``.wait(...)`` on anything *other* than the lock object the ``with``
  entered (``Condition.wait`` releases its own lock while sleeping;
  ``Event.wait`` under someone else's mutex just blocks holding it).

Locks that are long-held *by design* (the model's coarse inference
lock, the coordinator's round lock) opt out with an
``# analysis: coarse-lock`` comment on their creation line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatch

from ..findings import Finding
from ..linter import SourceModule
from .base import Checker, dotted_name, iter_functions, lock_attrs_of_class, self_attr

__all__ = ["EntryLockRule", "LockDisciplineChecker", "BLOCKING_CALLS"]

# Callable names (last dotted segment) that block for model/engine/IO
# timescales — never acceptable while holding a fine-grained mutex.
BLOCKING_CALLS = frozenset(
    {
        "predict_join_orders",
        "predict_join_order",
        "predict_cardinalities",
        "predict_costs",
        "beam_candidates_batch",
        "label_with_order",
        "label_many",
        "join_order_execution_time",
        "evaluate_regret_gate",
        "_regret_gate",
        "save_checkpoint",
        "load_checkpoint",
        "run_round",
        "train_encoders",
        "transfer",
    }
)


@dataclass(frozen=True)
class EntryLockRule:
    """Entry points of ``class_name`` matching ``patterns`` must take ``lock``."""

    class_name: str
    lock: str
    patterns: tuple[str, ...]


# Explicit entry points, not "predict_*": predict_log_nodes is the
# shared forward building block the trainer calls with grad enabled —
# it must stay lock-free (its inference-side callers hold the lock).
DEFAULT_ENTRY_RULES = (
    EntryLockRule(
        "MTMLFQO",
        "_infer_lock",
        (
            "predict_cardinalities",
            "predict_costs",
            "predict_join_order",
            "predict_join_orders",
            "beam_candidates_batch",
        ),
    ),
)


class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    description = "entry points take their lock; nothing blocks under a mutex"

    def __init__(self, entry_rules=DEFAULT_ENTRY_RULES, blocking_calls=BLOCKING_CALLS):
        self.entry_rules = {rule.class_name: rule for rule in entry_rules}
        self.blocking_calls = frozenset(blocking_calls)

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    def _check_class(self, module: SourceModule, cls: ast.ClassDef) -> list[Finding]:
        findings: list[Finding] = []
        aliases, coarse = lock_attrs_of_class(cls, module)
        rule = self.entry_rules.get(cls.name)
        for func in cls.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            symbol = f"{cls.name}.{func.name}"
            if rule is not None and self._is_entry(func.name, rule):
                if not self._takes_lock(func, rule):
                    findings.append(
                        self.finding(
                            module,
                            func,
                            f"public inference entry point does not acquire "
                            f"self.{rule.lock} (and does not delegate to one "
                            f"that does)",
                            symbol=symbol,
                        )
                    )
            if aliases:
                self._walk_blocking(module, func, aliases, coarse, [], symbol, findings)
        return findings

    # -- entry-lock rule -----------------------------------------------
    @staticmethod
    def _is_entry(name: str, rule: EntryLockRule) -> bool:
        return not name.startswith("_") and any(fnmatch(name, p) for p in rule.patterns)

    @staticmethod
    def _takes_lock(func: ast.FunctionDef, rule: EntryLockRule) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.With):
                for item in node.items:
                    if self_attr(item.context_expr) == rule.lock:
                        return True
            if isinstance(node, ast.Call):
                callee = node.func
                if (
                    isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"
                    and LockDisciplineChecker._is_entry(callee.attr, rule)
                ):
                    return True
        return False

    # -- blocking-under-mutex rule -------------------------------------
    def _walk_blocking(self, module, node, aliases, coarse, held, symbol, findings) -> None:
        """``held`` is a stack of (root lock name, context expr dump)."""
        if isinstance(node, ast.With):
            entered = list(held)
            for item in node.items:
                attr = self_attr(item.context_expr)
                if attr is not None and attr in aliases:
                    root = aliases[attr]
                    if root not in coarse:
                        entered.append((root, ast.dump(item.context_expr)))
            for child in node.body:
                self._walk_blocking(module, child, aliases, coarse, entered, symbol, findings)
            return
        if held and isinstance(node, ast.Call):
            self._check_call(module, node, held, symbol, findings)
        for child in ast.iter_child_nodes(node):
            self._walk_blocking(module, child, aliases, coarse, held, symbol, findings)

    def _check_call(self, module, call: ast.Call, held, symbol, findings) -> None:
        locks = ", ".join(sorted({name for name, _ in held}))
        name = dotted_name(call.func)
        leaf = name.rsplit(".", 1)[-1] if name else (
            call.func.attr if isinstance(call.func, ast.Attribute) else None
        )
        if leaf is None:
            return
        if name == "time.sleep":
            findings.append(
                self.finding(module, call, f"time.sleep while holding {locks}", symbol=symbol)
            )
        elif leaf == "join" and not call.args and not call.keywords:
            findings.append(
                self.finding(
                    module, call,
                    f"zero-argument .join() (thread join) while holding {locks}",
                    symbol=symbol,
                )
            )
        elif leaf in self.blocking_calls:
            findings.append(
                self.finding(
                    module, call,
                    f"blocking call {leaf}() while holding {locks}",
                    symbol=symbol,
                )
            )
        elif leaf == "wait" and isinstance(call.func, ast.Attribute):
            waited = ast.dump(call.func.value)
            if all(expr != waited for _, expr in held):
                findings.append(
                    self.finding(
                        module, call,
                        f"waiting on a primitive that is not the held lock "
                        f"while holding {locks} (only Condition.wait on the "
                        f"entered lock releases it)",
                        symbol=symbol,
                    )
                )
