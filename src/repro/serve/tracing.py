"""Lightweight per-query tracing for the concurrent service layer.

Every execution dispatched through :class:`repro.serve.QueryService`
carries one :class:`TraceSpan` recording the span of its life inside the
service: when it was submitted, how long it waited in the worker queue,
how long the search itself took, how much I/O it performed, and whether
it was answered from the result cache.  Spans are collected in a
thread-safe :class:`TraceLog` and can be exported as JSON (the CLI's
``serve --serve-trace`` dump) for offline latency analysis.

Timestamps use :func:`time.perf_counter` — monotonic and comparable
within one process, not wall-clock times.

Since the hierarchical tracing layer (:mod:`repro.obs.trace`) landed,
this flat span is a *view over the root span* of a query's span tree:
when the service's :class:`~repro.obs.trace.QueryTracer` retains a trace
for a query, the span carries its ``trace_id`` and its timestamps equal
the root span's interval (``work_ms`` == root duration).  The flat keys
exported by :meth:`TraceSpan.as_dict` are unchanged, so existing
``--serve-trace`` consumers keep working.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.trace import Trace, atomic_write_json

#: Cache dispositions a span can carry.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_BYPASS = "bypass"  # caching disabled for the service
CACHE_COALESCED = "coalesced"  # answered by another in-flight duplicate


@dataclass(slots=True)
class TraceSpan:
    """The traced lifecycle of one query execution inside the service.

    Attributes:
        query_id: service-wide monotonically increasing sequence number.
        algorithm: executing index label ("IR2", "RTREE", ...).
        strategy: the adaptive planner's chosen strategy (e.g. "iio",
            or a "+"-joined set for mixed sharded routing); None for
            fixed index kinds — makes misrouted slow queries
            attributable in the slow-query log and trace report.
        keywords: the query's keywords.
        k: requested result count.
        cache: one of ``"hit"`` / ``"miss"`` / ``"bypass"``.
        submitted_at: perf-counter time the query entered the service.
        started_at: perf-counter time a worker picked it up.
        lock_acquired_at: perf-counter time the worker, holding its
            pinned engine version, started the cache lookup and engine
            call (0.0 if it never got that far).
        search_done_at: perf-counter time the engine search (or the
            cache lookup, for hits) returned (0.0 if it never got there).
        finished_at: perf-counter time the execution completed.
        random_reads: per-query random block reads.
        sequential_reads: per-query sequential block reads.
        shared_reads: block reads served by the batch's shared-read
            session instead of the device (0 outside batched execution).
        objects_loaded: per-query logical object loads.
        pruned_by_keywords: shards this query skipped entirely because
            keyword routing proved they hold no matching term (0 for
            unsharded executions and coalesced followers, which fanned
            out to nothing) — mirrors the per-shard
            ``pruned_by_keywords`` flags on
            :attr:`repro.core.query.QueryExecution.shards`.
        num_results: number of results returned.
        retries: transient-error retries spent by this execution.
        worker: name of the thread that executed the query.
        error: exception message when the execution failed, else None.
        trace_id: id of the retained hierarchical trace for this query
            (None when the query was not sampled / not retained).
        batch_id: id of the batch group this query executed in (None for
            unbatched execution).  The ``cache`` disposition
            ``"coalesced"`` marks members answered by another in-flight
            duplicate of the same batch.
        engine_version: the published engine snapshot this query was
            pinned to.  :attr:`lock_wait_ms` measures the (near-zero)
            time from worker pickup to the engine call: version pinning
            and, for a batch member, its group's setup.
    """

    query_id: int
    algorithm: str = ""
    strategy: str | None = None
    keywords: tuple[str, ...] = ()
    k: int = 0
    cache: str = CACHE_BYPASS
    submitted_at: float = 0.0
    started_at: float = 0.0
    lock_acquired_at: float = 0.0
    search_done_at: float = 0.0
    finished_at: float = 0.0
    random_reads: int = 0
    sequential_reads: int = 0
    shared_reads: int = 0
    objects_loaded: int = 0
    pruned_by_keywords: int = 0
    num_results: int = 0
    retries: int = 0
    worker: str = ""
    error: str | None = None
    trace_id: str | None = None
    batch_id: int | None = None
    engine_version: int | None = None

    @property
    def queue_wait_ms(self) -> float:
        """Milliseconds the query waited before a worker picked it up."""
        return max(0.0, self.started_at - self.submitted_at) * 1000.0

    @property
    def search_ms(self) -> float:
        """Milliseconds the search itself took (cache hits are ~0).

        Measured ``lock_acquired_at → search_done_at`` — the engine call
        proper, excluding lock wait and merge/finalize, which
        :attr:`lock_wait_ms` and :attr:`merge_ms` already report
        separately.  (Historically this measured the whole
        ``started_at → finished_at`` window, double-counting both;
        that value is still available as :attr:`work_ms`.)
        """
        if not self.lock_acquired_at or not self.search_done_at:
            return 0.0
        return max(0.0, self.search_done_at - self.lock_acquired_at) * 1000.0

    @property
    def work_ms(self) -> float:
        """Milliseconds from worker pickup to completion (the old
        ``search_ms``): lock wait + engine search + merge/finalize."""
        return max(0.0, self.finished_at - self.started_at) * 1000.0

    @property
    def lock_wait_ms(self) -> float:
        """Milliseconds from worker pickup to the engine call (0.0 if
        unknown): pinning the engine version, never a lock wait."""
        if not self.lock_acquired_at:
            return 0.0
        return max(0.0, self.lock_acquired_at - self.started_at) * 1000.0

    @property
    def merge_ms(self) -> float:
        """Milliseconds merging/finalizing the answer (cache put, span)."""
        if not self.search_done_at:
            return 0.0
        return max(0.0, self.finished_at - self.search_done_at) * 1000.0

    @property
    def total_ms(self) -> float:
        """Milliseconds from submission to completion."""
        return max(0.0, self.finished_at - self.submitted_at) * 1000.0

    def as_dict(self) -> dict:
        """JSON-serializable view of the span (the ``--serve-trace`` rows)."""
        return {
            "query_id": self.query_id,
            "algorithm": self.algorithm,
            "strategy": self.strategy,
            "keywords": list(self.keywords),
            "k": self.k,
            "cache": self.cache,
            "queue_wait_ms": self.queue_wait_ms,
            "lock_wait_ms": self.lock_wait_ms,
            "engine_ms": self.search_ms,
            "merge_ms": self.merge_ms,
            "search_ms": self.search_ms,
            "work_ms": self.work_ms,
            "total_ms": self.total_ms,
            "random_reads": self.random_reads,
            "sequential_reads": self.sequential_reads,
            "shared_reads": self.shared_reads,
            "objects_loaded": self.objects_loaded,
            "pruned_by_keywords": self.pruned_by_keywords,
            "num_results": self.num_results,
            "retries": self.retries,
            "worker": self.worker,
            "error": self.error,
            "trace_id": self.trace_id,
            "batch_id": self.batch_id,
            "engine_version": self.engine_version,
        }

    def emit_phases(self, trace: Trace, parent=None) -> None:
        """Synthesize phase spans for this query under ``parent``.

        ``parent`` defaults to ``trace``'s root (the unbatched case: the
        query *is* the root).  Under batched execution the batch span is
        the root and each member query passes its own "query" span here,
        so the tree reads batch root → member query → phases.

        The engine search itself is traced live (it opens its own spans
        while running); the lock-wait and finalize phases only exist as
        flat timestamps on this span, so once the query completes they
        are back-filled as already-finished children of the parent.  The
        parent's interval is ``started_at → finished_at``: queue wait is
        deliberately *not* a span (the query was idle, and a span would
        overlap the previous query's tree on the same worker lane) — it
        stays an annotation on the parent.
        """
        root = parent if parent is not None else trace.root
        if root is None:
            return
        if self.batch_id is not None:
            root.annotate(batch_id=self.batch_id)
        root.annotate(
            query_id=self.query_id,
            algorithm=self.algorithm,
            keywords=list(self.keywords),
            k=self.k,
            cache=self.cache,
            queue_wait_ms=self.queue_wait_ms,
            worker=self.worker,
        )
        if self.strategy is not None:
            root.annotate(strategy=self.strategy)
        if self.pruned_by_keywords:
            root.annotate(pruned_by_keywords=self.pruned_by_keywords)
        if self.engine_version is not None:
            root.annotate(engine_version=self.engine_version)
        if self.error is not None:
            root.annotate(error=self.error)
        if self.lock_acquired_at and self.started_at:
            trace.new_span(
                "lock-wait", category="service", parent=root,
                start=self.started_at, end=self.lock_acquired_at,
                tid=root.tid,
            )
        if self.search_done_at and self.finished_at:
            trace.new_span(
                "finalize", category="service", parent=root,
                start=self.search_done_at, end=self.finished_at,
                tid=root.tid,
            )


class TraceLog:
    """Append-only, thread-safe collection of :class:`TraceSpan` objects.

    Args:
        capacity: maximum retained spans; the oldest are dropped once the
            log is full.  ``None`` retains everything.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("trace log capacity must be >= 1 (or None)")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: list[TraceSpan] = []
        self._dropped = 0

    def append(self, span: TraceSpan) -> int:
        """Record one finished span; returns how many old spans it evicted."""
        with self._lock:
            self._spans.append(span)
            overflow = 0
            if self.capacity is not None and len(self._spans) > self.capacity:
                overflow = len(self._spans) - self.capacity
                del self._spans[:overflow]
                self._dropped += overflow
            return overflow

    def spans(self) -> list[TraceSpan]:
        """A snapshot of the retained spans, in completion order."""
        with self._lock:
            return list(self._spans)

    @property
    def dropped(self) -> int:
        """Spans evicted because the log reached its capacity."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        """Forget every retained span (the drop counter too)."""
        with self._lock:
            self._spans = []
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def as_dicts(self) -> list[dict]:
        """Every retained span as a JSON-ready dict."""
        return [span.as_dict() for span in self.spans()]

    def dump_json(self, path: str, extra: dict | None = None) -> None:
        """Write the spans (plus optional metadata) to ``path`` as JSON.

        The write is atomic (tmp file + fsync + rename, the persist
        layer's protocol), so a crash mid-dump never leaves a truncated
        file, and the payload carries the ``dropped`` counter so a log
        truncated by its capacity bound is detectable offline.
        """
        with self._lock:
            spans = list(self._spans)
            dropped = self._dropped
        payload = dict(extra or {})
        payload["dropped"] = dropped
        payload["spans"] = [span.as_dict() for span in spans]
        atomic_write_json(path, payload)
