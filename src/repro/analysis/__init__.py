"""Concurrency & invariant analysis for the repro codebase.

A stdlib-only static layer (DESIGN.md "Static analysis & concurrency
invariants"); its runtime twin, the lock monitor, lives with the tests
that use it (``tests/lock_monitor.py``):

- **static** (:mod:`.linter`, :mod:`.checks`) — a stdlib-only AST lint
  pass that enforces the repo's hand-maintained conventions
  mechanically: guarded-by annotations, inference-lock discipline,
  no-blocking-under-mutex, atomic writes, thread daemonization, no
  silent excepts, monotonic latency clocks, private scratch arenas,
  telemetry outside locks, canonical dtypes.  Each checker is kept
  because a mutation of the real tree shows the test suite would miss,
  or cannot see, what it catches (DESIGN.md section 10); where a
  runtime test can, the rule is a test instead (serving records no
  tape, every (S)/(T) parameter learns: ``tests/test_tape_boundary.py``).  Run it with ``python -m repro.analysis`` (CI
  runs ``--fail-on-findings``).  Shapes are not its business: every
  ``@shape_spec`` is checked on real calls by ``tests/shape_contract.py``.
- **runtime** (``tests/lock_monitor.py``) — traced lock wrappers that
  record the global lock acquisition-order graph and fail on inversion
  cycles or over-threshold holds/waits; activated inside the
  serve/federation stress suites.
"""

from .findings import Finding
from .linter import Linter, SourceModule

__all__ = [
    "Finding",
    "Linter",
    "SourceModule",
]
