"""Structured trace spans with request-scoped trace IDs.

A *trace* is one causally-linked unit of work — a serving request, an
adaptation cycle, a federation round — identified by an integer trace
ID minted by :meth:`TraceRecorder.new_trace`.  The ID is plain data: it
travels across threads inside the request object / queue tuple, so a
span recorded by a drain worker or the feedback thread lands on the
same trace as the client-side enqueue.  *Spans* are named, timed
intervals on a trace (zero-duration spans are *events*, e.g.
``cache.hit``), recorded into one bounded ring.

Disabled-path discipline (same as ``nn.kernels.profiled``): the gate is
a single int attribute, ``TraceRecorder.on``.  When it is 0,
``new_trace`` returns 0, ``span`` returns the module-level
:data:`NOOP_SPAN` singleton, and ``record``/``event`` return before
touching the clock — no allocation, no lock, one int check.

A timed span has one form, the context manager (``with
tracer.span(tid, name) as sp``), which cannot leak an open span past an
exception; there is no imperative start/end pair to misuse.  A span
whose endpoints were measured elsewhere goes through
:meth:`TraceRecorder.record`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

__all__ = ["Span", "TraceRecorder", "NOOP_SPAN", "maybe_span"]


class Span:
    """One recorded interval: immutable once in the ring."""

    __slots__ = ("trace_id", "name", "start_s", "end_s", "thread", "attrs")

    def __init__(
        self,
        trace_id: int,
        name: str,
        start_s: float,
        end_s: float,
        thread: str,
        attrs: "dict | None" = None,
    ):
        self.trace_id = trace_id
        self.name = name
        self.start_s = start_s
        self.end_s = end_s
        self.thread = thread
        self.attrs = attrs

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "thread": self.thread,
            "attrs": self.attrs or {},
        }

    def __repr__(self) -> str:  # debugging aid only
        return (
            f"Span(trace={self.trace_id}, name={self.name!r}, "
            f"dur={self.duration_s * 1e3:.3f}ms)"
        )


class _NoopSpan:
    """Shared do-nothing span: the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """Open span handle; records itself on ``__exit__``."""

    __slots__ = ("_recorder", "trace_id", "name", "start_s", "attrs")

    def __init__(self, recorder: "TraceRecorder", trace_id: int, name: str):
        self._recorder = recorder
        self.trace_id = trace_id
        self.name = name
        self.start_s = 0.0
        self.attrs: "dict | None" = None

    def set(self, key: str, value) -> "_LiveSpan":
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value
        return self

    def __enter__(self) -> "_LiveSpan":
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.set("error", exc_type.__name__)
        self._recorder.record(
            self.trace_id, self.name, self.start_s, time.perf_counter(), self.attrs
        )
        return False


class TraceRecorder:
    """Bounded ring of spans; thread-safe; zero-alloc when disabled."""

    def __init__(self, capacity: int = 4096, enabled: bool = True):
        self._lock = threading.Lock()
        self._ring: "deque[Span]" = deque(maxlen=max(1, capacity))  # guarded-by: _lock
        self._dropped = 0  # guarded-by: _lock
        self._ids = itertools.count(1)
        # Hot-path gate, read without the lock (single int, same
        # discipline as nn.kernels._PROFILE_DEPTH).
        self.on = 1 if enabled else 0

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.on = 1

    def disable(self) -> None:
        self.on = 0

    def new_trace(self) -> int:
        """Mint a trace ID (0 — the "not traced" ID — when disabled)."""
        if not self.on:
            return 0
        return next(self._ids)

    # -- span recording -------------------------------------------------
    def span(self, trace_id: int, name: str):
        """Context manager timing one interval on ``trace_id``.

        ``with tracer.span(tid, "decode") as sp: sp.set("queries", 4)``.
        The disabled path returns the shared :data:`NOOP_SPAN`.
        """
        if not self.on or not trace_id:
            return NOOP_SPAN
        return _LiveSpan(self, trace_id, name)

    def record(
        self,
        trace_id: int,
        name: str,
        start_s: float,
        end_s: float,
        attrs: "dict | None" = None,
    ) -> None:
        """Append a finished span (used for derived spans, e.g. queue
        wait reconstructed from a request's enqueue timestamp)."""
        if not self.on or not trace_id:
            return
        span = Span(trace_id, name, start_s, end_s, threading.current_thread().name, attrs)
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                self._dropped += 1
            self._ring.append(span)

    def event(self, trace_id: int, name: str, attrs: "dict | None" = None) -> None:
        """Zero-duration span (``cache.hit``, ``gate.accept``, ...)."""
        if not self.on or not trace_id:
            return
        now = time.perf_counter()
        self.record(trace_id, name, now, now, attrs)

    # -- readers --------------------------------------------------------
    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def spans(self) -> "list[Span]":
        with self._lock:
            return list(self._ring)

    def trace(self, trace_id: int) -> "list[Span]":
        return sorted(
            (s for s in self.spans() if s.trace_id == trace_id),
            key=lambda s: (s.start_s, s.end_s),
        )

    def traces(self) -> "dict[int, list[Span]]":
        grouped: "dict[int, list[Span]]" = {}
        for span in self.spans():
            grouped.setdefault(span.trace_id, []).append(span)
        for spans in grouped.values():
            spans.sort(key=lambda s: (s.start_s, s.end_s))
        return grouped

    def complete_traces(self, required: "set[str]") -> "list[int]":
        """Trace IDs whose span-name set covers ``required``."""
        return sorted(
            tid
            for tid, spans in self.traces().items()
            if required <= {s.name for s in spans}
        )

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._dropped = 0

    def to_dict(self) -> dict:
        with self._lock:
            spans = list(self._ring)
            dropped = self._dropped
            capacity = self._ring.maxlen
        return {
            "capacity": capacity,
            "dropped": dropped,
            "spans": [span.to_dict() for span in spans],
        }


def maybe_span(telemetry, trace_id: int, name: str):
    """``telemetry.tracer.span(...)`` tolerating ``telemetry=None``.

    The standard guard for call sites where telemetry is optional:
    ``with maybe_span(self.telemetry, tid, "feedback.label"): ...``.
    """
    if telemetry is None:
        return NOOP_SPAN
    return telemetry.tracer.span(trace_id, name)
