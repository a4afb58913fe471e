"""Host-speed calibration for the latency ledger.

The sandbox this benchmark is accepted on is a shared 2-vCPU VM whose
execution speed (not steal: ``/proc/stat`` shows none, user time equals
wall time) switches between a fast state and one 1.4-1.8x slower, per
core, in phases of 0.1 s to a minute, about half of the time (README,
"Host noise").  A median over a 16 s run lands in either state, so raw
times spread 20-35% between runs of one commit.

:class:`HostClock` therefore times a fixed reference kernel — small
numpy ops, plain bytecode and reads scattered over 14 MB of small
objects, the program's own mix (a kernel without the scattered reads
tracked the plan-cache hit path half as well) — right before and after
every measured section, and each section is
reported in **reference time**: ``wall * NOMINAL_S / kernel_time``.
With the process pinned to one core (:func:`pin_to_one_core`), so that
the kernel and the program's threads share the core whose speed is
being sampled, the same statistics spread 2-9%.  ``proc.host_factor``
(traced run) is the median ``kernel_time / NOMINAL_S`` of a run, so the
raw wall time is always recoverable: ``raw = reported * factor``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np

__all__ = ["NOMINAL_S", "HostClock", "Section", "pin_to_one_core"]

# What the reference kernel takes on the acceptance host in its fast
# state when it runs between rounds of work, on caches the program has
# just used (run back to back it takes 1.2 ms).  It is a unit
# definition, not a tunable: changing it rescales every reported time.
NOMINAL_S = 0.00150


def pin_to_one_core() -> int:
    """Pin this process (all threads) to one usable core; returns it.

    The highest-numbered core of the affinity set: system daemons and
    the shell that launched the run sit on core 0.
    """
    try:
        core = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {core})
    except (AttributeError, OSError):  # non-Linux / restricted
        return -1
    return core


class Section:
    """One measured interval: raw wall time and its host-speed factor."""

    __slots__ = ("wall_s", "factor")

    def __init__(self, wall_s: float = 0.0, factor: float = 1.0):
        self.wall_s = wall_s
        self.factor = factor

    @property
    def ref_s(self) -> float:
        """The interval in reference time (what the ledger reports)."""
        return self.wall_s / self.factor


class HostClock:
    """Reference-kernel readings and the factors derived from them.

    Main-thread only.  Readings are kept with their timestamps, so a
    section is calibrated piecewise by every reading taken inside it:
    a long loop calls :meth:`tick` as it goes and gets a factor per
    quarter second instead of one for the whole loop.
    """

    _OBJECTS = 50_000    # ~14 MB of small objects: more than L2, within the shared L3
    _CHASE = 1200        # of them visited per reading, in a fixed random order

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((32, 48))
        self._b = rng.random((48, 48))
        self._objects = [(i, str(i), [i]) for i in range(self._OBJECTS)]
        self._order = rng.permutation(self._OBJECTS).tolist()
        self._cursor = 0
        self.readings: list[float] = []
        self._starts: list[float] = []
        self._ends: list[float] = []

    def reading(self) -> float:
        """Run the reference kernel once; returns (and keeps) its time."""
        a, b = self._a, self._b
        objects, order, cursor = self._objects, self._order, self._cursor
        start = time.perf_counter()
        acc = 0.0
        seen: dict = {}
        for i in range(20):             # small numpy ops, as the nn kernels
            c = a @ b
            c = c * (c > 0)
            e = np.exp(c - c.max(axis=-1, keepdims=True))
            acc += float(e[0, 0])
            seen[(i, "k")] = i
        for i in range(3000):           # plain bytecode
            acc += i
        for i in range(cursor, cursor + self._CHASE):   # cache-missing object access
            item = objects[order[i % self._OBJECTS]]
            acc += item[0] + len(item[1]) + item[2][0]
        end = time.perf_counter()
        self._cursor = cursor + self._CHASE
        self.readings.append(end - start)
        self._starts.append(start)
        self._ends.append(end)
        return end - start

    @staticmethod
    def factor(before_s: float, after_s: float) -> float:
        """Host slowdown over an interval bracketed by two readings."""
        return 0.5 * (before_s + after_s) / NOMINAL_S

    def tick(self, min_gap_s: float = 0.25) -> None:
        """Take a reading unless the last one is younger than ``min_gap_s``
        (host phases are as short as 100 ms: an old reading says little)."""
        if not self._ends or time.perf_counter() - self._ends[-1] >= min_gap_s:
            self.reading()

    @contextmanager
    def section(self):
        """Time a block; the yielded :class:`Section` is filled on exit.

        The opening reading is the previous section's closing one when
        that is younger than 50 ms, so back-to-back sections cost one
        reading each.  Kernel time is not part of ``wall_s``.
        """
        section = Section()
        self.tick(0.05)
        first = len(self.readings) - 1
        start = time.perf_counter()
        try:
            yield section
        finally:
            stop = time.perf_counter()
            self.reading()
            wall_s = ref_s = 0.0
            for k in range(first, len(self.readings) - 1):
                gap = min(self._starts[k + 1], stop) - max(self._ends[k], start)
                wall_s += gap
                ref_s += gap / self.factor(self.readings[k], self.readings[k + 1])
            section.wall_s = wall_s
            section.factor = wall_s / ref_s if ref_s > 0 else 1.0

    def median_factor(self) -> float:
        ordered = sorted(self.readings)
        return ordered[len(ordered) // 2] / NOMINAL_S if ordered else 1.0
