"""LRU result cache with generation-based invalidation.

Entries are keyed on the planner's cache key (embedded coordinates + query
parameters) and tagged with the index *generation* they were computed at
(:attr:`repro.core.semtree.SemTreeIndex.generation`).  Every mutation of the
built index bumps the generation, so a lookup that finds an entry from
another generation treats it as a miss and drops it — stale k-NN answers are
never served after incremental inserts, without the mutation path having to
know which keys are affected.

Because an entry can only ever hit while it is exact, ``capacity`` is the one
bound: beyond it the least-recently-used entry goes.  All operations are
guarded by a lock so the cache can be shared by every thread serving queries.

The counts live on instruments of the cache's own :attr:`ResultCache.registry`
(a serving shell adopts it), each incremented where its event happens;
:attr:`ResultCache.stats` reads them back.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

from repro.errors import QueryError
from repro.obs.registry import MetricsRegistry

__all__ = ["CacheStats", "ResultCache"]


@dataclass(frozen=True, slots=True)
class CacheStats:
    """The cache's counts and size, read back at one moment."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    size: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 with no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        """Every count plus the derived readings, snake_case.

        This is the *single* dictionary form of the cache counts: both
        :meth:`repro.service.engine.QueryEngine.statistics` and the server's
        ``/v1/metrics`` payload publish it verbatim.
        """
        return {
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions, "invalidations": self.invalidations,
            "size": self.size, "lookups": self.lookups, "hit_rate": self.hit_rate,
        }


class ResultCache:
    """A bounded, thread-safe LRU of values tagged with their generation."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise QueryError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[Hashable, ...], Tuple[int, Any]]" = OrderedDict()
        self.registry = registry = MetricsRegistry()
        self._hits = registry.counter(
            "repro_cache_hits_total", "Result cache hits.").labels()
        self._misses = registry.counter(
            "repro_cache_misses_total", "Result cache misses.").labels()
        self._evictions = registry.counter(
            "repro_cache_evictions_total", "Result cache LRU evictions.").labels()
        self._invalidations = registry.counter(
            "repro_cache_invalidations_total",
            "Result cache generation invalidations.").labels()
        registry.gauge(
            "repro_cache_size", "Entries currently resident in the result cache.",
        ).set_function(lambda: float(len(self)))

    def get(self, key: Tuple[Hashable, ...], generation: int) -> Optional[Any]:
        """Return the cached value, or ``None`` on a miss.

        ``generation`` is the index's current generation; an entry written at
        another generation is dropped and counted as an invalidation (and a
        miss).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == generation:
                self._entries.move_to_end(key)
                self._hits.inc()
                return entry[1]
            if entry is not None:
                del self._entries[key]
                self._invalidations.inc()
            self._misses.inc()
            return None

    def put(self, key: Tuple[Hashable, ...], value: Any, generation: int) -> None:
        """Store a value computed at ``generation`` as the most recently used."""
        with self._lock:
            self._entries[key] = (generation, value)
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """The counts and size, read under the cache lock (so consistent)."""
        with self._lock:
            return CacheStats(
                hits=self._hits.get(),
                misses=self._misses.get(),
                evictions=self._evictions.get(),
                invalidations=self._invalidations.get(),
                size=len(self._entries),
            )

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"ResultCache(size={stats.size}/{self.capacity}, "
            f"hits={stats.hits}, misses={stats.misses}, hit_rate={stats.hit_rate:.2f})"
        )
