"""Runtime concurrency checking: traced locks + a global lock-order graph.

Static analysis pins lexical discipline; this module checks the
*dynamic* properties no AST walk can see:

- **lock-order inversions** — every traced acquisition records a
  ``held -> acquired`` edge in a global directed graph.  A cycle in
  that graph means two threads can acquire the same pair of locks in
  opposite orders: a latent deadlock, even if this run got lucky with
  scheduling.  Detection is on-edge-insert, so the violation surfaces
  the moment the second ordering first occurs — no deadlock required.
- **long holds / long waits under a hot mutex** — each traced lock
  records how long it was held and how long acquirers blocked; holds or
  waits beyond the configured thresholds become findings.  A
  fine-grained service mutex held across a model decode shows up here
  even when the static blocking-under-mutex rule was structurally
  evaded.

Usage inside a stress test::

    monitor = LockMonitor(max_hold_s=0.25)
    instrument_service(service, monitor)      # before service.start()
    instrument_collector(collector, monitor)  # before collector.start()
    ... drive traffic ...
    monitor.assert_clean()                    # raises LockOrderError on a cycle

Tracing is cooperative (only wrapped locks are observed) and cheap
enough for test traffic.  It is test-side code: nothing under
``src/repro`` imports it, and CI lints it with the same
``--fail-on-findings`` sweep as ``src/repro``.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field

__all__ = [
    "LockOrderError",
    "HoldViolation",
    "TracedLock",
    "LockMonitor",
    "instrument_service",
    "instrument_collector",
    "instrument_model",
]


class LockOrderError(RuntimeError):
    """The acquisition-order graph contains a cycle (potential deadlock)."""


@dataclass
class HoldViolation:
    """A lock was held (or waited for) longer than the threshold."""

    kind: str        # "hold" or "wait"
    lock: str
    seconds: float
    thread: str
    stack: str = ""


@dataclass
class _Edge:
    src: str
    dst: str
    thread: str
    stack: str = ""


class TracedLock:
    """A Lock/RLock wrapper that reports acquisitions to a monitor.

    Quacks enough like its inner lock to back a ``threading.Condition``
    (``acquire``/``release``/``_is_owned``); reentrant acquisitions of a
    wrapped RLock are counted but only the outermost one records edges
    and hold time.
    """

    def __init__(self, inner, name: str, monitor: "LockMonitor"):
        self._inner = inner
        self.name = name
        self._monitor = monitor

    def acquire(self, blocking: bool = True, timeout: float = -1):
        started = time.monotonic()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            try:
                self._monitor._on_acquired(self, waited_s=time.monotonic() - started)
            except LockOrderError:
                # raise_on_cycle mode: don't leave the lock held behind a
                # raising __enter__ — back the acquisition out first.
                self._monitor._drop_entry(self)
                self._inner.release()
                raise
        return acquired

    def release(self):
        self._monitor._on_release(self)
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()
        return False

    def locked(self) -> bool:
        inner_locked = getattr(self._inner, "locked", None)
        return inner_locked() if inner_locked is not None else False

    def _is_owned(self) -> bool:
        """Condition support: is this lock held by the current thread?"""
        return self._monitor._held_depth(self) > 0


class LockMonitor:
    """Global acquisition-order graph plus hold/wait timing findings.

    Thread-safe; one monitor typically spans every lock of a test.
    ``raise_on_cycle=True`` raises :class:`LockOrderError` inside the
    acquiring thread the moment an inversion closes a cycle (useful for
    targeted tests); either way the violation is recorded and
    :meth:`assert_clean` / :meth:`check` re-raise it from the test
    thread, so a worker loop that swallows exceptions cannot hide it.
    """

    def __init__(
        self,
        max_hold_s: float | None = None,
        max_wait_s: float | None = None,
        raise_on_cycle: bool = False,
        capture_stacks: bool = True,
        registry=None,
    ):
        self.max_hold_s = max_hold_s
        self.max_wait_s = max_wait_s
        self.raise_on_cycle = raise_on_cycle
        self.capture_stacks = capture_stacks
        # Optional repro.obs.MetricsRegistry: every traced hold/wait
        # duration lands in a per-lock histogram, not just the ones
        # beyond the violation thresholds.
        self.registry = registry
        self._glock = threading.Lock()
        self._edges: dict[str, set[str]] = {}
        self._edge_examples: dict[tuple[str, str], _Edge] = {}
        self.cycles: list[str] = []          # rendered cycle descriptions
        self.hold_violations: list[HoldViolation] = []
        self._tls = threading.local()

    # -- instrumentation -------------------------------------------------
    def wrap(self, lock, name: str) -> TracedLock:
        return TracedLock(lock, name, self)

    def lock(self, name: str) -> TracedLock:
        return self.wrap(threading.Lock(), name)

    def rlock(self, name: str) -> TracedLock:
        return self.wrap(threading.RLock(), name)

    # -- per-thread held stack -------------------------------------------
    def _stack(self) -> list[dict]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _held_depth(self, lock: TracedLock) -> int:
        for entry in self._stack():
            if entry["lock"] is lock:
                return entry["depth"]
        return 0

    def _short_stack(self) -> str:
        if not self.capture_stacks:
            return ""
        frames = traceback.extract_stack(limit=10)[:-3]
        return " <- ".join(f"{f.name}:{f.lineno}" for f in reversed(frames[-5:]))

    # -- events ----------------------------------------------------------
    def _observe(self, name: str, lock_name: str, seconds: float) -> None:
        """Record a hold/wait duration; runs outside ``_glock``."""
        if self.registry is not None:
            self.registry.histogram(name, {"lock": lock_name}).observe(seconds)

    def _on_acquired(self, lock: TracedLock, waited_s: float) -> None:
        thread = threading.current_thread().name
        self._observe("lock.wait_s", lock.name, waited_s)
        if self.max_wait_s is not None and waited_s > self.max_wait_s:
            with self._glock:
                self.hold_violations.append(
                    HoldViolation("wait", lock.name, waited_s, thread, self._short_stack())
                )
        stack = self._stack()
        for entry in stack:
            if entry["lock"] is lock:  # reentrant RLock acquire: no new edges
                entry["depth"] += 1
                return
        held_names = [entry["lock"].name for entry in stack]
        stack.append({"lock": lock, "depth": 1, "acquired_at": time.monotonic()})
        if held_names:
            self._record_edges(held_names, lock.name, thread)

    def _on_release(self, lock: TracedLock) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            entry = stack[index]
            if entry["lock"] is lock:
                entry["depth"] -= 1
                if entry["depth"] == 0:
                    held_s = time.monotonic() - entry["acquired_at"]
                    del stack[index]
                    self._observe("lock.hold_s", lock.name, held_s)
                    if self.max_hold_s is not None and held_s > self.max_hold_s:
                        with self._glock:
                            self.hold_violations.append(
                                HoldViolation(
                                    "hold", lock.name, held_s,
                                    threading.current_thread().name, self._short_stack(),
                                )
                            )
                return
        # Release of a lock this monitor never saw acquired on this
        # thread (e.g. Condition internals after a fork of ownership):
        # ignore rather than corrupt the stack.

    def _drop_entry(self, lock: TracedLock) -> None:
        """Remove a just-pushed stack entry without hold-time accounting."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index]["lock"] is lock:
                del stack[index]
                return

    def _record_edges(self, held_names: list[str], acquired: str, thread: str) -> None:
        with self._glock:
            for src in held_names:
                if src == acquired:
                    continue
                successors = self._edges.setdefault(src, set())
                if acquired in successors:
                    continue
                cycle = self._find_path(acquired, src)
                successors.add(acquired)
                key = (src, acquired)
                if key not in self._edge_examples:
                    self._edge_examples[key] = _Edge(src, acquired, thread, self._short_stack())
                if cycle is not None:
                    description = self._render_cycle(src, acquired, cycle, thread)
                    self.cycles.append(description)
                    if self.raise_on_cycle:
                        raise LockOrderError(description)

    def _find_path(self, start: str, goal: str) -> list[str] | None:
        """DFS: a path start -> ... -> goal in the current edge set."""
        seen = {start}
        frontier = [(start, [start])]
        while frontier:
            node, path = frontier.pop()
            if node == goal:
                return path
            for succ in self._edges.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append((succ, path + [succ]))
        return None

    def _render_cycle(self, src: str, dst: str, back_path: list[str], thread: str) -> str:
        # back_path runs dst -> ... -> src; closing it with dst again
        # renders the full cycle the new edge (src -> dst) completes.
        chain = " -> ".join(back_path + [back_path[0]])
        lines = [
            f"lock-order inversion: thread {thread!r} acquired {dst!r} while "
            f"holding {src!r}, but the reverse order {' -> '.join(back_path)} "
            f"was already observed (cycle: {chain})",
        ]
        for a, b in zip(back_path, back_path[1:]):
            example = self._edge_examples.get((a, b))
            if example is not None:
                lines.append(f"  {a} -> {b} first seen on {example.thread!r} at {example.stack}")
        return "\n".join(lines)

    # -- verdicts --------------------------------------------------------
    def edges(self) -> dict[str, set[str]]:
        with self._glock:
            return {src: set(dst) for src, dst in self._edges.items()}

    def check(self) -> list[HoldViolation]:
        """Raise on any recorded cycle; return timing violations."""
        with self._glock:
            if self.cycles:
                raise LockOrderError("\n\n".join(self.cycles))
            return list(self.hold_violations)

    def assert_clean(self) -> None:
        """Raise on cycles *and* on hold/wait threshold violations."""
        violations = self.check()
        if violations:
            rendered = "; ".join(
                f"{v.kind} of {v.lock} for {v.seconds:.3f}s on {v.thread} ({v.stack})"
                for v in violations
            )
            raise AssertionError(f"lock timing violations: {rendered}")

    def report(self) -> dict:
        with self._glock:
            return {
                "edges": {src: sorted(dst) for src, dst in sorted(self._edges.items())},
                "cycles": list(self.cycles),
                "hold_violations": [
                    {"kind": v.kind, "lock": v.lock, "seconds": v.seconds, "thread": v.thread}
                    for v in self.hold_violations
                ],
            }


# -- repo-specific instrumentation helpers -------------------------------
# Each helper swaps an object's internal lock for a traced one *before*
# its threads start, rebuilding any Condition that wrapped the original
# lock so waiters keep releasing the traced lock (and the monitor keeps
# an accurate held-set across waits).

def instrument_service(service, monitor: LockMonitor, name: str | None = None):
    """Trace an :class:`~repro.serve.service.OptimizerService`'s mutex."""
    label = name or f"service[{service.db_name}]._mutex"
    traced = monitor.wrap(threading.Lock(), label)
    service._mutex = traced
    service._nonempty = threading.Condition(traced)
    return service


def instrument_collector(collector, monitor: LockMonitor, name: str | None = None):
    """Trace a :class:`~repro.serve.feedback.FeedbackCollector`'s mutex."""
    label = name or f"feedback[{collector.db.name}]._mutex"
    traced = monitor.wrap(threading.Lock(), label)
    collector._mutex = traced
    collector._wakeup = threading.Condition(traced)
    collector._idle = threading.Condition(traced)
    return collector


def instrument_model(model, monitor: LockMonitor, name: str | None = None):
    """Trace a :class:`~repro.core.model.MTMLFQO`'s inference RLock.

    Call before building sessions/services so every ``with
    model._infer_lock`` goes through the traced wrapper.
    """
    label = name or f"model[v{model.version}]._infer_lock"
    model._infer_lock = monitor.wrap(threading.RLock(), label)
    return model
