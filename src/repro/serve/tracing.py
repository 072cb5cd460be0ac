"""The service's one record of a served query.

Every execution dispatched through :class:`repro.serve.QueryService`
carries one :class:`TraceSpan`.  It holds what only the service knows —
when the query was submitted, picked up, pinned and answered, its cache
disposition, retries, worker, error, batch and pinned engine version —
and references the query and its execution for everything else.  Every
per-query view reads that one record: the ``--serve-trace`` and
slow-log rows (:meth:`TraceSpan.as_dict`), the query-log record
(:func:`repro.obs.querylog.build_record`) and the annotations on the
query's span in a retained hierarchical trace
(:meth:`TraceSpan.emit_phases`).  Records are collected in a
thread-safe :class:`TraceLog` and can be exported as JSON (the CLI's
``serve --serve-trace`` dump) for offline latency analysis.

Timestamps use :func:`time.perf_counter` — monotonic and comparable
within one process, not wall-clock times.  When the service's
:class:`~repro.obs.trace.QueryTracer` retains a trace for a query, the
record carries its ``trace_id``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.query import QueryExecution, SpatialKeywordQuery
from repro.obs.trace import Trace, atomic_write_json
from repro.storage.iostats import IOCounts

#: Cache dispositions a span can carry.
CACHE_HIT = "hit"
CACHE_MISS = "miss"
CACHE_BYPASS = "bypass"  # caching disabled for the service
CACHE_COALESCED = "coalesced"  # answered by another in-flight duplicate

#: The I/O a query without an execution (a failed one) reports.
_NO_IO = IOCounts()

#: Row keys annotated on a query's span in its trace, in this order;
#: None values are left out, and so is a zero ``pruned_by_keywords``.
_SPAN_NOTES = (
    "batch_id", "query_id", "algorithm", "keywords", "k", "cache",
    "queue_wait_ms", "worker", "strategy", "pruned_by_keywords",
    "engine_version", "error",
)


@dataclass(slots=True)
class TraceSpan:
    """The service's record of one served query.

    Attributes:
        query_id: service-wide monotonically increasing sequence number.
        cache: one of ``"hit"`` / ``"miss"`` / ``"bypass"`` /
            ``"coalesced"``.
        submitted_at: perf-counter time the query entered the service.
        started_at: perf-counter time a worker picked it up.
        lock_acquired_at: perf-counter time the worker, holding its
            pinned engine version, started the cache lookup and engine
            call (0.0 if it never got that far).
        search_done_at: perf-counter time the engine search (or the
            cache lookup, for hits) returned (0.0 if it never got there).
        finished_at: perf-counter time the execution completed.
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
        query: the submitted query (set by the service).
        execution: the query's execution (set by the service once it is
            answered); None when the execution failed.  Its algorithm,
            plan, per-query I/O, shards and results are what the views
            report, read when a view is rendered.
    """

    query_id: int
    cache: str = CACHE_BYPASS
    submitted_at: float = 0.0
    started_at: float = 0.0
    lock_acquired_at: float = 0.0
    search_done_at: float = 0.0
    finished_at: float = 0.0
    retries: int = 0
    worker: str = ""
    error: str | None = None
    trace_id: str | None = None
    batch_id: int | None = None
    engine_version: int | None = None
    query: SpatialKeywordQuery | None = field(default=None, init=False)
    execution: QueryExecution | None = field(default=None, init=False)

    @property
    def queue_wait_ms(self) -> float:
        """Milliseconds the query waited before a worker picked it up."""
        return max(0.0, self.started_at - self.submitted_at) * 1000.0

    @property
    def search_ms(self) -> float:
        """Milliseconds the search itself took (cache hits are ~0).

        Measured ``lock_acquired_at → search_done_at`` — the engine call
        proper, excluding lock wait and merge/finalize, which
        :attr:`lock_wait_ms` and :attr:`merge_ms` report separately
        (:attr:`work_ms` covers all three).
        """
        if not self.lock_acquired_at or not self.search_done_at:
            return 0.0
        return max(0.0, self.search_done_at - self.lock_acquired_at) * 1000.0

    @property
    def work_ms(self) -> float:
        """Milliseconds from worker pickup to completion: lock wait +
        engine search + merge/finalize."""
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
        """JSON-serializable view of the record (the ``--serve-trace`` and
        slow-log rows); a failed query reports no results and no I/O."""
        query, execution = self.query, self.execution
        answered = execution is not None
        io = execution.io if answered else _NO_IO
        plan = (execution.plan if answered else None) or {}
        shards = (execution.shards if answered else None) or ()
        return {
            "query_id": self.query_id,
            "algorithm": execution.algorithm if answered else "",
            "strategy": plan.get("strategy"),
            "keywords": list(query.keywords) if query is not None else [],
            "k": query.k if query is not None else 0,
            "cache": self.cache,
            "queue_wait_ms": self.queue_wait_ms,
            "lock_wait_ms": self.lock_wait_ms,
            "engine_ms": self.search_ms,
            "merge_ms": self.merge_ms,
            "search_ms": self.search_ms,
            "work_ms": self.work_ms,
            "total_ms": self.total_ms,
            "random_reads": io.random_reads,
            "sequential_reads": io.sequential_reads,
            "shared_reads": io.shared_reads,
            "objects_loaded": io.objects_loaded,
            "pruned_by_keywords": sum(
                1 for shard in shards if shard.get("pruned_by_keywords")
            ),
            "num_results": len(execution.results) if answered else 0,
            "retries": self.retries,
            "worker": self.worker,
            "error": self.error,
            "trace_id": self.trace_id,
            "batch_id": self.batch_id,
            "engine_version": self.engine_version,
        }

    def emit_phases(self, trace: Trace, parent=None) -> None:
        """Annotate the query's span and synthesize its service phases.

        ``parent`` defaults to ``trace``'s root (the unbatched case: the
        query *is* the root).  Under batched execution the batch span is
        the root and each member query passes its own "query" span here,
        so the tree reads batch root → member query → phases.  The
        parent is annotated from :meth:`as_dict`.

        The engine search itself is traced live (it opens its own spans
        while running); the lock-wait and finalize phases only exist as
        flat timestamps on this record, so once the query completes they
        are back-filled as already-finished children of the parent.  The
        parent's interval is ``started_at → finished_at``: queue wait is
        deliberately *not* a span (the query was idle, and a span would
        overlap the previous query's tree on the same worker lane) — it
        stays an annotation on the parent.
        """
        root = parent if parent is not None else trace.root
        if root is None:
            return
        row = self.as_dict()
        notes = {key: row[key] for key in _SPAN_NOTES if row[key] is not None}
        if not notes["pruned_by_keywords"]:
            del notes["pruned_by_keywords"]
        root.annotate(**notes)
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
    """Append-only, thread-safe collection of :class:`TraceSpan` records.

    Args:
        capacity: maximum retained records; the oldest are dropped once
            the log is full.  ``None`` retains everything.  A record
            references its execution, so the bound also caps the
            executions (and their results) the log keeps alive.
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
