"""Tie-aware scatter-gather merging for sharded query execution.

The merge problem: every shard streams (or returns) its results in
non-decreasing distance order; the global answer is the k smallest
``(distance, oid)`` pairs across all shards.  :class:`TopKMerger` is the
accumulator every shard of a query offers its results to — it keeps the
running top-k under a lock and exposes the current k-th distance as a
*threshold* a shard uses to stop pulling (and a whole shard uses to
prune itself before doing any I/O).

Tie handling mirrors the differential harness's notion of equivalence: a
shard keeps pulling while its next result's distance is ``<=`` the
threshold (so every member of the tie group at the k-th distance is
offered), and the merger keeps the tie members with the smallest oids —
making the merged list deterministic and byte-identical to the
brute-force oracle's ``(distance, oid)`` ordering.
"""

from __future__ import annotations

import heapq
import threading

from repro.model import SearchResult

#: Threshold meaning "fewer than k results so far — nothing can be pruned".
OPEN = float("inf")


class TopKMerger:
    """Thread-safe, tie-aware accumulator of the global top-k results.

    Args:
        k: number of requested results.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self._lock = threading.Lock()
        # Max-heap on (distance, oid) via negation: the root is the
        # current worst member of the top-k, i.e. the pruning threshold.
        self._heap: list[tuple[float, int, SearchResult]] = []
        # Oids currently in the heap: duplicate offers (a shard retried
        # after a transient device error re-offers what it already sent)
        # must be idempotent, not occupy two of the k slots.
        self._oids: set[int] = set()

    def threshold(self) -> float:
        """Current k-th distance, or +inf while fewer than k results."""
        with self._lock:
            return self._threshold_locked()

    def _threshold_locked(self) -> float:
        if len(self._heap) < self.k:
            return OPEN
        return -self._heap[0][0]

    def offer(self, result: SearchResult) -> float:
        """Offer one result; returns the (possibly tightened) threshold.

        Results farther than the threshold are discarded; ties at the
        threshold displace members with larger oids, keeping the merged
        answer deterministic.  Offering a result that is already a member
        (same oid) is a no-op, and only the ``(-distance, -oid)`` key is
        ever compared — a full-entry comparison would fall through to the
        unorderable :class:`SearchResult` payload on an exact
        ``(distance, oid)`` tie and raise ``TypeError``.
        """
        entry = (-result.distance, -result.obj.oid, result)
        with self._lock:
            if result.obj.oid in self._oids:
                return self._threshold_locked()
            if len(self._heap) < self.k:
                heapq.heappush(self._heap, entry)
                self._oids.add(result.obj.oid)
            elif entry[:2] > self._heap[0][:2]:
                evicted = heapq.heapreplace(self._heap, entry)
                self._oids.discard(evicted[2].obj.oid)
                self._oids.add(result.obj.oid)
            return self._threshold_locked()

    def results(self) -> list[SearchResult]:
        """The merged top-k, sorted by ``(distance, oid)``."""
        with self._lock:
            members = [entry[2] for entry in self._heap]
        members.sort(key=lambda r: (r.distance, r.obj.oid))
        return members
