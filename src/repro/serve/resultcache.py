"""Thread-safe LRU cache of query results for the serving layer.

A production deployment sees heavily repeated queries (the same hot spots,
the same keyword combinations), and a distance-first top-k answer is a
pure function of the engine state it ran against — so identical queries
can be answered from memory without touching a single block.
:class:`QueryResultCache` memoizes :class:`~repro.core.query.QueryExecution`
objects keyed on the query's *semantic identity*: spatial target (point or
area), keyword tuple, ``k``, and the ranking function (if any).

Correctness has two layers:

* **Explicit invalidation** — any effective mutation of the underlying
  engine may change answers, so :class:`repro.serve.QueryService` calls
  :meth:`QueryResultCache.invalidate` on every write that actually
  changed something.  A generation counter is exposed so tests can
  assert the flush happened.
* **Per-version stamping** — every entry is stamped with the
  :class:`~repro.serve.maintenance.EngineVersion` number that produced
  it, and :meth:`get` drops entries whose stamp
  differs from the reader's pinned version.  This closes the race
  invalidation alone cannot: an execution pinned to version *V* may
  finish (and :meth:`put` its answer) *after* a writer published *V+1*
  and invalidated — the stale stamp keeps that late write from ever
  answering a *V+1* reader.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.query import QueryExecution, SpatialKeywordQuery

#: Cache key: (point, area, keywords, k, ranking).  ``Rect`` is a frozen
#: dataclass of tuples, so area queries are hashable too; ranking
#: callables hash by identity, so distinct ranking objects never collide.
CacheKey = tuple


class QueryResultCache:
    """LRU map from query identity to a completed execution.

    Args:
        capacity: maximum number of cached executions (must be >= 1).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("result cache capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        # key -> (execution, engine-version stamp)
        self._entries: OrderedDict[
            CacheKey, tuple[QueryExecution, int]
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.generation = 0

    @staticmethod
    def key_of(query: SpatialKeywordQuery) -> CacheKey:
        """The semantic identity of a query (its answer's determinants)."""
        return (query.point, query.area, query.keywords, query.k, query.ranking)

    def get(
        self, query: SpatialKeywordQuery, version: int
    ) -> QueryExecution | None:
        """Return the cached execution for ``query``, if any.

        Args:
            query: the lookup key.
            version: the reader's pinned engine version; an entry
                stamped with a *different* version is stale (the engine
                moved underneath it) and is dropped on sight.

        Bumps the hit or miss counter and refreshes LRU recency.
        """
        key = self.key_of(query)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            cached, stamp = entry
            if stamp != version:
                del self._entries[key]
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return cached

    def put(
        self,
        query: SpatialKeywordQuery,
        execution: QueryExecution,
        version: int,
    ) -> None:
        """Memoize a completed execution (evicting the LRU entry if full).

        ``version`` stamps the entry with the engine version that
        answered it; later :meth:`get` calls pinned to another version
        will refuse it.
        """
        key = self.key_of(query)
        with self._lock:
            self._entries[key] = (execution, version)
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self) -> int:
        """Drop every cached answer; returns the number of entries dropped.

        Called by the service on any effective engine mutation.  Hit and
        miss counters survive (they describe service history, not current
        contents); the generation counter increments so staleness is
        observable.
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.generation += 1
            return dropped

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when none)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, query: SpatialKeywordQuery) -> bool:
        with self._lock:
            return self.key_of(query) in self._entries
