"""Slow-query log: a bounded buffer of the worst served queries.

Latency histograms say *that* p99 regressed; the slow-query log says
*which queries did it*.  :class:`SlowQueryLog` keeps the ``capacity``
worst :class:`~repro.serve.tracing.TraceSpan` records whose total
latency crossed a configurable threshold, so a ``--serve-metrics`` dump
(or ``repro metrics``) always carries concrete offender queries next to
the aggregate distributions.  Its rows are the records' own
:meth:`~repro.serve.tracing.TraceSpan.as_dict` rows — keywords, k,
cache disposition, per-query I/O — read from each query's execution
when the log is dumped.
"""

from __future__ import annotations

import heapq
import itertools
import threading


class SlowQueryLog:
    """Keep the ``capacity`` worst spans at or above a latency threshold.

    Args:
        threshold_ms: minimum total latency for a span to be considered.
        capacity: maximum retained spans; once full, a new span must be
            slower than the current fastest member to enter.
    """

    def __init__(self, threshold_ms: float = 100.0, capacity: int = 32) -> None:
        if threshold_ms < 0:
            raise ValueError("slow-query threshold must be >= 0 ms")
        if capacity < 1:
            raise ValueError("slow-query log capacity must be >= 1")
        self.threshold_ms = float(threshold_ms)
        self.capacity = capacity
        self._lock = threading.Lock()
        # Min-heap on (total_ms, seq): the root is the fastest retained
        # span, i.e. the first to be displaced by a slower arrival.
        self._heap: list[tuple[float, int, object]] = []
        self._seq = itertools.count()
        self._observed = 0

    def offer(self, span) -> bool:
        """Consider one finished span; True when it was retained.

        ``span`` is any object with a ``total_ms`` attribute and an
        ``as_dict()`` method (in practice a
        :class:`~repro.serve.tracing.TraceSpan`).
        """
        total_ms = float(span.total_ms)
        with self._lock:
            self._observed += 1
            if total_ms < self.threshold_ms:
                return False
            entry = (total_ms, next(self._seq), span)
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, entry)
                return True
            if total_ms > self._heap[0][0]:
                heapq.heapreplace(self._heap, entry)
                return True
            return False

    def spans(self) -> list:
        """The retained spans, slowest first."""
        with self._lock:
            entries = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        return [entry[2] for entry in entries]

    @property
    def observed(self) -> int:
        """Spans offered to the log over its lifetime."""
        with self._lock:
            return self._observed

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def clear(self) -> None:
        """Forget every retained span (counters too)."""
        with self._lock:
            self._heap = []
            self._observed = 0

    def as_dicts(self) -> list[dict]:
        """JSON-ready rows, slowest first (the dump's ``slow_queries``)."""
        return [span.as_dict() for span in self.spans()]
