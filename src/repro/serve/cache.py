"""Thread-safe bounded LRU cache of served join orders.

Distinct from :class:`repro.core.FeatureCache` (which memoizes
(F)-module encodings on their featurizer, shared by every model it is
attached to): this cache stores finished *results* — join orders — and
sits in front of the queue, so it is read and written concurrently by
every client thread plus the drain loop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["CacheStats", "PlanCache"]


@dataclass(frozen=True)
class CacheStats:
    """One atomic reading of a :class:`PlanCache`'s counters and size.

    All three fields are captured under the cache's lock in a single
    critical section, so ``hits + misses`` is consistent with itself —
    unlike reading ``cache.hits`` / ``cache.misses`` / ``len(cache)``
    as three separate locked operations, which can interleave with a
    concurrent ``get``.
    """

    hits: int
    misses: int
    size: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """Bounded LRU of ``key -> join order`` with hit/miss accounting.

    Keys are the structural request signatures built by
    :meth:`OptimizerService.request_key`; values are join orders
    (lists of table names).  ``maxsize == 0`` disables the cache (every
    ``get`` misses, ``put`` is a no-op).  Stored orders are copied on
    the way in and out so callers can never mutate a cached entry.
    """

    def __init__(self, maxsize: int):
        if maxsize < 0:
            raise ValueError(f"cache size must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, list[str]]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def get(self, key: tuple, count_miss: bool = True) -> "list[str] | None":
        """Look up a key; ``count_miss=False`` for the drain loop's
        recheck of keys that already missed on the request fast path
        (otherwise every served query would count two misses)."""
        if not self.enabled:
            return None  # off, not thrashing: counters stay untouched
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count_miss:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return list(entry)

    def put(self, key: tuple, order: list[str]) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = list(order)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def stats(self) -> CacheStats:
        """Atomic snapshot of (hits, misses, size) in one critical
        section — the only race-free way to compute a hit rate while
        the cache is live."""
        with self._lock:
            return CacheStats(hits=self.hits, misses=self.misses, size=len(self._entries))

    def clear(self, reset_stats: bool = False) -> CacheStats:
        """Drop every entry; with ``reset_stats`` also zero the hit/miss
        counters in the same critical section.

        Returns the pre-clear :class:`CacheStats`, so a caller starting a
        new accounting epoch (e.g. ``swap_model`` invalidating the cache)
        can retire the old epoch's numbers instead of losing them or —
        worse — blending pre-swap hits into the post-swap hit rate.
        """
        with self._lock:
            retired = CacheStats(hits=self.hits, misses=self.misses, size=len(self._entries))
            self._entries.clear()
            if reset_stats:
                self.hits = 0
                self.misses = 0
            return retired

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries
