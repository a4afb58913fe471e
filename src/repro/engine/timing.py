"""Deterministic simulated execution timing.

The paper's Tables 2 and 3 report wall-clock totals of executing join
orders in PostgreSQL.  Real wall-clock is neither available offline nor
reproducible, so this module defines a deterministic substitute: each
operator's row counts are converted to simulated milliseconds with
PostgreSQL-flavoured weights (sequential reads cheap, random index
lookups and per-pair nested-loop work expensive).

Each operator's time is written once, as a function of row counts
(:meth:`TimingModel.scan_time`, :meth:`TimingModel.join_time`): the
executor passes an operator's :class:`WorkReport` counts, and
``TimingAlignedCostModel`` the optimal-order DP's rows.

Because the weights are applied to *true* observed tuple counts, two
plans are ranked exactly as a real system dominated by tuple-processing
costs would rank them — which is the property Tables 2/3 measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["TimingModel", "DEFAULT_TIMING", "over_limit_penalty_ms", "Stopwatch"]


class Stopwatch:
    """Monotonic duration helper for the few places that *do* measure
    real wall time (examples, benchmarks).

    ``time.time()`` jumps under NTP adjustment, so every duration in the
    repo is measured against the monotonic clock; this tiny class keeps
    the idiom in one place instead of scattering ``time.monotonic()``
    pairs.
    """

    __slots__ = ("_started",)

    def __init__(self):
        self._started = time.monotonic()

    @property
    def elapsed_s(self) -> float:
        return time.monotonic() - self._started

    @property
    def elapsed_ms(self) -> float:
        return 1000.0 * (time.monotonic() - self._started)


@dataclass(frozen=True)
class TimingModel:
    """Cost weights (simulated milliseconds per tuple of work)."""

    scan_ms: float = 0.001          # sequential tuple read
    index_lookup_ms: float = 0.05   # per index-lookup overhead (random IO)
    index_tuple_ms: float = 0.004   # per tuple fetched through an index
    build_ms: float = 0.004         # hash-table insert
    probe_ms: float = 0.002         # hash-table probe
    pair_ms: float = 0.0005         # nested-loop pair examination
    emit_ms: float = 0.001          # materializing an output tuple

    def scan_time(self, scanned, emitted, lookups=None) -> float:
        """A scan's time: ``scanned`` rows read, ``emitted`` rows output,
        and ``lookups`` random index lookups, or None for a sequential
        scan."""
        if lookups is None:
            return scanned * self.scan_ms + emitted * self.emit_ms
        return lookups * self.index_lookup_ms + scanned * self.index_tuple_ms + emitted * self.emit_ms

    def join_time(self, emitted, built, probed, pairs) -> float:
        """A join's time: ``emitted`` rows output, ``built`` hash-table
        inserts, ``probed`` hash probes and ``pairs`` nested-loop pairs
        examined (a hash join examines no pair, a nested loop builds and
        probes nothing)."""
        ms = emitted * self.emit_ms
        ms += built * self.build_ms
        ms += probed * self.probe_ms
        ms += pairs * self.pair_ms
        return ms


DEFAULT_TIMING = TimingModel()


def over_limit_penalty_ms(max_intermediate_rows: int) -> float:
    """Simulated charge for a plan that blew the intermediate-row cap.

    The moral equivalent of the paper's query timeouts: instead of
    executing a pathological order to completion, charge it as if the
    cap's worth of tuples had each been emitted and probed — strictly
    worse than any order that stayed under the cap.  Shared by the
    Table 2/3 harness and the online-adaptation regret gate so both
    penalize runaway orders identically.
    """
    return max_intermediate_rows * (DEFAULT_TIMING.emit_ms + DEFAULT_TIMING.probe_ms)
