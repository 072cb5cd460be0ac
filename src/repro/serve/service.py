"""Concurrent query service over a built engine.

The paper's algorithms are strictly single-query; this module turns a
built engine — a :class:`SpatialKeywordEngine` or a
:class:`repro.shard.ShardedEngine`, anything exposing the unified
``search()`` surface — into something that can take parallel traffic
while staying byte-for-byte faithful to them:

* queries submitted with ``submit``/``submit_many`` (and batched reads)
  are dispatched across a thread pool and executed by the engine's
  unmodified search algorithms; a synchronous ``search`` that bypasses
  the batch scheduler runs the same worker body on its caller's thread;
* per-query I/O accounting is exact under concurrency because each
  execution collects its own delta in a thread-local collector
  (:func:`repro.storage.iostats.collecting_io`) instead of diffing the
  shared device counters;
* mutations never stall the reader pool: every query pins an immutable
  published :class:`~repro.serve.maintenance.EngineVersion` with one
  lock-free attribute read, while ``add``/``delete``/``build`` append to
  a write buffer that a background merge folds into a copy-on-write
  replacement engine (see :mod:`repro.serve.maintenance`);
* every read — a direct ``submit``/``search``, a ``search(at_version=)``,
  or a scheduler batch — runs through one worker body: a direct read is
  a :class:`~repro.serve.scheduler.BatchGroup` of one, with no batch id
  and no shared-read session, so it costs exactly its standalone reads;
* an LRU result cache (:class:`~repro.serve.resultcache.QueryResultCache`)
  answers repeated queries from memory, is invalidated on every
  *effective* mutation, and stamps every entry with the engine version
  that produced it so a reader pinned to one version can never be
  answered from another; both cache hits and cached entries carry
  *copies* of the result objects, so a caller mutating a returned
  result can never corrupt later answers;
* every execution carries one :class:`~repro.serve.tracing.TraceSpan`
  record (timings, cache disposition, batch, pinned version, and the
  query and execution it describes), counted once, completed or
  failed, into a :class:`repro.obs.MetricsRegistry`:
  per-stage latency histograms and cache / degradation / retry / I/O
  counters, which :class:`ServiceStats` and
  :meth:`QueryService.export_metrics` read; the trace log, the slow-query
  log and the query log keep or render that same record;
* attaching a :class:`repro.obs.trace.QueryTracer` turns on hierarchical
  tracing: sampled (and slow) queries get a full span tree — service
  root, per-shard fan-out, engine phases, block-level I/O events — whose
  ``trace_id`` lands on the query's record, and
  which exports to Chrome trace-event JSON via
  :meth:`QueryService.export_chrome_trace`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Sequence

from repro.core.engine import SpatialKeywordEngine
from repro.core.query import QueryExecution, SpatialKeywordQuery
from repro.errors import ServiceError, ServiceOverloadError
from repro.model import SpatialObject
from repro.obs import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_MS,
    MetricHandles,
    MetricsRegistry,
    SlowQueryLog,
    export_engine,
)
from repro.obs import trace as qtrace
from repro.obs.export import render_prometheus
from repro.obs.querylog import QueryLogWriter
from repro.obs.trace import QueryTracer
from repro.plan import attach_planner_metrics
from repro.serve.maintenance import EngineVersion, SnapshotMaintainer
from repro.serve.resultcache import QueryResultCache
from repro.serve.scheduler import (
    BatchConfig,
    BatchGroup,
    BatchMember,
    BatchScheduler,
)
from repro.serve.tracing import (
    CACHE_BYPASS,
    CACHE_COALESCED,
    CACHE_HIT,
    CACHE_MISS,
    TraceLog,
    TraceSpan,
)
from repro.storage.faults import retry_transient
from repro.storage.iostats import IOCounts, fresh_scope
from repro.storage.sharedread import SharedReadSession, activate_session

def _resolve_result(future: Future, result) -> None:
    """Complete a submission future, tolerating cancellation races."""
    try:
        future.set_result(result)
    except InvalidStateError:
        pass  # cancelled between pickup and completion


def _resolve_exception(future: Future, exc: BaseException) -> None:
    """Fail a submission future, tolerating cancellation races."""
    if future.cancelled():
        return
    try:
        future.set_exception(exc)
    except InvalidStateError:
        pass


class _Answered(NamedTuple):
    """One executed (or failed) submission, awaiting logging and resolution.

    ``future`` is None when the caller cancelled but a coalesced rider
    still needed the execution; on failure the span holds no execution
    and ``error`` carries the exception the caller's future receives.
    """

    span: TraceSpan
    future: Future | None
    error: Exception | None


def _fail_group(group: BatchGroup, exc: BaseException) -> None:
    """Fail every still-unresolved future of a group with ``exc``."""
    for member in group.members:
        for each in (member, *member.followers):
            _resolve_exception(each.future, exc)


def _settle(answered: Iterable[_Answered]) -> None:
    """Resolve each answered submission's future exactly once."""
    for each in answered:
        if each.future is None:
            continue
        if each.error is not None:
            _resolve_exception(each.future, each.error)
        else:
            _resolve_result(each.future, each.span.execution)


#: The per-query I/O counters, named after their :class:`IOCounts` fields.
_IO_FIELDS = (
    "random_reads", "sequential_reads", "shared_reads", "objects_loaded",
)

#: The service histograms of counts; the others are latencies in ms.
_COUNT_HISTOGRAMS = frozenset({"service.batch.size", "service.reads_per_query"})


@dataclass(frozen=True)
class ServiceStats:
    """A frozen view of one :meth:`repro.obs.MetricsRegistry.snapshot`.

    Every field is read from the registry metric that counts the same
    event (see :meth:`from_metrics`), so the two can never disagree.  A
    registry passed to two services sums both, as all its metrics do.
    Counters are read one at a time, so a view taken while queries run
    may be a few executions apart across fields.

    Attributes:
        queries: completed query executions (including cache hits).
        cache_hits: executions answered from the result cache.
        cache_misses: executions that ran the search algorithms (with the
            cache enabled); with caching disabled both counters stay 0.
        errors: executions that raised.
        degraded: executions answered with partial results because one
            or more shards failed (see
            :attr:`repro.core.query.QueryExecution.degraded`).
        batches: batch groups executed (0 with batching disabled).
        coalesced: executions answered by riding along on an identical
            in-flight query of the same batch group.
        shed: submissions refused with
            :class:`~repro.errors.ServiceOverloadError` because the
            admission queue was at ``max_pending``.
        io: element-wise sum of every execution's per-query I/O delta
            (``io.shared_reads`` counts batch-session hits, which cost
            no device I/O); it carries no per-category breakdown.
        queue_wait_ms_total: summed queue wait across executions.
        search_ms_total: summed search time across executions.
        retries: transient-error retries spent across executions,
            failed ones included.
        metrics: the JSON-ready snapshot the fields were read from —
            per-stage latency histograms, cache/degradation/retry
            counters, per-shard fan-out counters, and device I/O gauges.
    """

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    errors: int = 0
    degraded: int = 0
    batches: int = 0
    coalesced: int = 0
    shed: int = 0
    io: IOCounts = field(default_factory=IOCounts)
    queue_wait_ms_total: float = 0.0
    search_ms_total: float = 0.0
    retries: int = 0
    metrics: dict = field(default_factory=dict)

    @classmethod
    def from_metrics(cls, snapshot: dict) -> "ServiceStats":
        """Read every field from one registry ``snapshot``."""
        counters = snapshot["counters"]
        histograms = snapshot["histograms"]

        def count(name: str) -> int:
            return counters.get(f"service.{name}", 0)

        def total(name: str) -> float:
            return histograms.get(f"service.{name}", {}).get("sum", 0.0)

        return cls(
            queries=count("queries"),
            cache_hits=count("cache.hit"),
            cache_misses=count("cache.miss"),
            errors=count("errors"),
            degraded=count("degraded"),
            batches=count("batches"),
            coalesced=count("cache.coalesced"),
            shed=count("shed"),
            io=IOCounts(**{name: count(f"io.{name}") for name in _IO_FIELDS}),
            queue_wait_ms_total=total("queue_wait_ms"),
            search_ms_total=total("search_ms"),
            retries=count("retries"),
            metrics=snapshot,
        )

    @property
    def cache_hit_rate(self) -> float:
        """Hits as a fraction of cache-eligible executions."""
        eligible = self.cache_hits + self.cache_misses
        return self.cache_hits / eligible if eligible else 0.0

    @property
    def avg_queue_wait_ms(self) -> float:
        return self.queue_wait_ms_total / self.queries if self.queries else 0.0

    @property
    def avg_search_ms(self) -> float:
        return self.search_ms_total / self.queries if self.queries else 0.0

    def as_dict(self) -> dict:
        """JSON-serializable summary (the ``--serve-trace`` header)."""
        return {
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "errors": self.errors,
            "degraded": self.degraded,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "shed": self.shed,
            "retries": self.retries,
            "avg_queue_wait_ms": self.avg_queue_wait_ms,
            "avg_search_ms": self.avg_search_ms,
            "random_reads": self.io.random_reads,
            "sequential_reads": self.io.sequential_reads,
            "shared_reads": self.io.shared_reads,
            "objects_loaded": self.io.objects_loaded,
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        io = self.io
        return (
            f"{self.queries} queries ({self.cache_hits} cache hits, "
            f"{self.errors} errors, {self.degraded} degraded), "
            f"avg wait {self.avg_queue_wait_ms:.2f} ms, "
            f"avg search {self.avg_search_ms:.2f} ms, "
            f"{io.random_reads} random + {io.sequential_reads} sequential reads, "
            f"{io.objects_loaded} objects loaded"
        )


class QueryService:
    """Thread-pooled, cached, traced front-end for one built engine.

    Args:
        engine: a built :class:`SpatialKeywordEngine` or
            :class:`repro.shard.ShardedEngine` (building it through the
            service afterwards is also supported via :meth:`build`).
        workers: worker threads of the pool that answers
            :meth:`submit` / :meth:`submit_many` and batched reads.  A
            synchronous :meth:`search` that bypasses the scheduler
            (batching off, or ``at_version``) runs on its caller's
            thread instead.
        cache: enable the LRU result cache.
        cache_capacity: maximum cached executions.
        trace_capacity: maximum retained trace spans; the oldest are
            dropped past it and counted in ``service.trace_log.dropped``
            (None = unbounded).
        retries: bounded retries (exponential backoff) per execution for
            :class:`~repro.errors.TransientDeviceError` raised by the
            engine's devices.  A :class:`~repro.shard.ShardedEngine` also
            retries internally per shard; this is the outer guard for
            single engines and fail-fast sharded ones.
        retry_backoff_s: initial retry backoff; doubles per retry.
        metrics: the :class:`repro.obs.MetricsRegistry` to record into
            and that :meth:`stats` reads (one shared by two services
            sums both); a private one is created when omitted.  A sharded
            engine with no registry of its own is attached to the
            service's, so its fan-out counters land in the same snapshot.
        slow_query_ms: total-latency threshold above which a query's
            span is admitted to the slow-query log.
        slow_log_capacity: maximum spans retained by the slow-query log
            (the slowest ones win when it overflows).
        tracer: a :class:`repro.obs.trace.QueryTracer` enabling
            hierarchical tracing (None = off).  A tracer attached
            without its own slow threshold inherits ``slow_query_ms``,
            so every slow-log entry links to a retained span tree by
            ``trace_id``.
        batching: enable the batch front-end — a
            :class:`~repro.serve.scheduler.BatchConfig` (or ``True`` for
            the defaults; ``None``/``False`` disables).  When enabled,
            submissions are grouped by a work-conserving
            :class:`~repro.serve.scheduler.BatchScheduler`: a submission
            is dispatched at once while a worker is free and waits in
            the open group only while every worker is busy
            (``submit_many`` batches are dispatched as given).
            Duplicate waiting queries coalesce onto one execution,
            every group runs under one shared-read session (one block
            read serves the whole group), and — when ``max_pending`` is
            set — excess submissions shed with
            :class:`~repro.errors.ServiceOverloadError`.
        merge_threshold: buffered writes that trigger a background merge
            (``None`` disables automatic merging; :meth:`build` and
            ranked queries still fold the buffer).  Mutations never
            block readers: queries pin immutable published engine
            versions, writes buffer into an overlay, and merges build a
            copy-on-write replacement engine
            (:mod:`repro.serve.maintenance`).
        query_log: workload capture — a
            :class:`repro.obs.querylog.QueryLogWriter` or a path string.
            Every answered query (both submission paths, batched or
            not, including failures) appends one JSON-lines record with
            its shape, plan, fan-out, I/O, latency stages, and result
            digest; see :mod:`repro.obs.querylog`.  A path constructs a
            writer owned (and closed) by the service, recording into the
            service's metrics registry; a writer instance is shared and
            left open on :meth:`close`.
        query_log_sample: capture every Nth query (applies only when
            ``query_log`` is a path; a passed writer keeps its own
            sampling).  Unsampled queries pay one counter increment.

    Submission surface: :meth:`submit` (one query → ``Future``),
    :meth:`submit_many` (a batch → list of ``Future``\\ s, the batch
    entry point), and :meth:`search` (synchronous, optionally at a
    retained version; it runs on the caller's thread unless the batch
    scheduler takes it).

    The service is a context manager; :meth:`close` drains the pool::

        with QueryService(engine, workers=8) as service:
            executions = service.run_batch(queries)
    """

    def __init__(
        self,
        engine: SpatialKeywordEngine,
        workers: int = 4,
        cache: bool = True,
        cache_capacity: int = 256,
        trace_capacity: int | None = 4096,
        retries: int = 2,
        retry_backoff_s: float = 0.005,
        metrics: MetricsRegistry | None = None,
        slow_query_ms: float = 100.0,
        slow_log_capacity: int = 32,
        tracer: QueryTracer | None = None,
        batching: BatchConfig | bool | None = None,
        merge_threshold: int | None = 64,
        query_log: QueryLogWriter | str | None = None,
        query_log_sample: int = 1,
    ) -> None:
        if workers < 1:
            raise ServiceError("a query service needs at least one worker")
        self.tracer = tracer
        if tracer is not None and tracer.slow_query_ms is None:
            tracer.slow_query_ms = slow_query_ms
        self.workers = workers
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # The metrics every read records, each looked up in the registry
        # on first use only.
        registry = self.metrics
        self._counters = MetricHandles(registry.counter)
        self._gauges = MetricHandles(registry.gauge)
        self._histograms = MetricHandles(
            lambda name: registry.histogram(
                name,
                COUNT_BUCKETS if name in _COUNT_HISTOGRAMS else LATENCY_BUCKETS_MS,
            )
        )
        self._owns_query_log = isinstance(query_log, str)
        if isinstance(query_log, str):
            query_log = QueryLogWriter(
                query_log,
                sample_every=query_log_sample,
                metrics=self.metrics,
            )
        self.query_log: QueryLogWriter | None = query_log
        self._maintainer = SnapshotMaintainer(
            engine,
            merge_threshold=merge_threshold,
            metrics=self.metrics,
            tracer=tracer,
        )
        # Copy-on-write merges swap fresh engines in; each one gets
        # wired into the service's observability like the first.
        self._maintainer.on_base_swap = self._adopt_engine
        self._adopt_engine(engine)
        self.slow_log = SlowQueryLog(
            threshold_ms=slow_query_ms, capacity=slow_log_capacity
        )
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-query"
        )
        self.cache = QueryResultCache(cache_capacity) if cache else None
        self.trace_log = TraceLog(trace_capacity)
        self._qid = itertools.count()
        self._closed = False
        if batching is True:
            batching = BatchConfig()
        elif batching is False:
            batching = None
        self.batching: BatchConfig | None = batching
        self._scheduler = (
            BatchScheduler(batching, self._dispatch_group, workers=workers)
            if batching is not None
            else None
        )
        # Admission depth: submissions admitted but not yet completed.
        self._depth_lock = threading.Lock()
        self._pending = 0

    @property
    def engine(self):
        """The current base engine (snapshot merges swap in fresh ones)."""
        return self._maintainer.base

    @property
    def engine_version(self) -> int:
        """The currently published snapshot version."""
        return self._maintainer.current.version

    @property
    def buffer_depth(self) -> int:
        """Buffered writes not yet merged."""
        return self._maintainer.current.buffer_depth

    @property
    def maintainer(self) -> SnapshotMaintainer:
        """The snapshot maintainer."""
        return self._maintainer

    def _adopt_engine(self, engine) -> None:
        """Wire an engine (initial or freshly merged) into observability."""
        if getattr(engine, "metrics", False) is None:
            # A sharded engine built without a registry inherits ours.
            engine.metrics = self.metrics
        # Adaptive ("auto") indexes get their planner counters
        # (planner.chosen.* / planner.won.*) recorded here too.
        attach_planner_metrics(engine, self.metrics)

    # -- Query dispatch ---------------------------------------------------------

    def submit(self, query: SpatialKeywordQuery) -> Future:
        """Asynchronously run one query; returns a ``Future``.

        With batching enabled the submission is dispatched at once as a
        group of its own when a worker is free; while every worker is
        busy it joins the open group (and may coalesce onto an
        identical query waiting there), which the next worker to finish
        takes.  With batching off it runs alone, straight on the worker
        pool.
        """
        return self._submit_one(self._require_query(query))

    def submit_many(
        self, queries: Iterable[SpatialKeywordQuery]
    ) -> list[Future]:
        """Asynchronously run a batch; one ``Future`` per query, in order.

        The batch entry point: with batching enabled the queries form
        their own group(s) (dispatched immediately, never merged with
        other traffic, so execution is deterministic), duplicates
        coalesce within each group, and each group runs under one
        shared-read session.  With batching disabled this is simply N
        :meth:`submit` calls.
        """
        queries = [self._require_query(query) for query in queries]
        if self._closed:
            raise ServiceError("cannot submit to a closed QueryService")
        if self._scheduler is None:
            return [self._submit_one(query) for query in queries]
        self._admit(len(queries))
        members = [self._make_member(query) for query in queries]
        try:
            self._scheduler.submit_group(members)
        except ServiceError:
            self._release(len(queries))
            raise
        return [member.future for member in members]

    def search(
        self,
        query: SpatialKeywordQuery,
        at_version: int | None = None,
    ) -> QueryExecution:
        """Synchronously run one query.

        With batching on, the read goes through the scheduler like a
        :meth:`submit` and this waits for it.  A read that bypasses the
        scheduler — batching off, or an ``at_version`` read — runs the
        same worker body (:meth:`_execute_group`) on the calling thread,
        so its record's ``worker`` is the caller's thread name.

        ``at_version`` answers the query against a specific *retained*
        published snapshot version instead of the current one — a
        consistent read-at-timestamp over the maintainer's bounded
        retention window (``version_window`` versions).  The execution's
        :attr:`~repro.core.query.QueryExecution.engine_version` echoes
        the version that answered.  Raises
        :class:`~repro.errors.VersionRetiredError` when the version has
        aged out of the window (or never existed).  Versioned reads
        bypass the batch scheduler (they must not coalesce with
        current-version traffic) but are admitted, captured, traced,
        and counted like any other query.
        """
        query = self._require_query(query)
        pinned = (
            self._maintainer.version_at(at_version)
            if at_version is not None
            else None
        )
        # A read that bypasses the scheduler runs the worker body on the
        # calling thread: handing it to the pool only to block on the
        # future would cost two thread switches and gain nothing.
        inline = self._scheduler is None or pinned is not None
        return self._submit_one(query, pinned, inline).result()

    def run_batch(
        self, queries: Iterable[SpatialKeywordQuery]
    ) -> list[QueryExecution]:
        """Dispatch a whole batch and wait; results keep the batch order."""
        return [future.result() for future in self.submit_many(queries)]

    # -- Submission internals ---------------------------------------------------

    @staticmethod
    def _require_query(query) -> SpatialKeywordQuery:
        if not isinstance(query, SpatialKeywordQuery):
            raise ServiceError(
                f"expected a SpatialKeywordQuery, got {type(query).__name__}"
            )
        return query

    def _submit_one(
        self,
        query: SpatialKeywordQuery,
        pinned: EngineVersion | None = None,
        inline: bool = False,
    ) -> Future:
        """Admit one query: into the scheduler, or alone onto the pool.

        A read runs alone — a :class:`BatchGroup` of one with no batch
        id — when batching is off or when it carries its own ``pinned``
        version (an ``at_version`` read).  ``inline`` runs such a read
        on the calling thread (a synchronous :meth:`search`); the
        returned future is then already resolved.
        """
        if self._closed:
            raise ServiceError("cannot submit to a closed QueryService")
        self._admit(1)
        member = self._make_member(query)
        if inline:
            # The caller's collectors, session and spans stay out of it,
            # as they would on a pool thread.
            with fresh_scope():
                self._execute_group(BatchGroup(None, [member], pinned))
            return member.future
        try:
            if self._scheduler is not None and pinned is None:
                self._scheduler.submit(member)
            else:
                self._pool.submit(
                    self._execute_group, BatchGroup(None, [member], pinned)
                )
        except (ServiceError, RuntimeError) as exc:
            # close() ran between the _closed check and the hand-off.
            self._release(1)
            raise ServiceError("cannot submit to a closed QueryService") from exc
        return member.future

    def _make_member(self, query: SpatialKeywordQuery) -> BatchMember:
        future: Future = Future()
        future.add_done_callback(self._on_future_done)
        return BatchMember(query, future, next(self._qid), time.perf_counter())

    def _admit(self, count: int) -> None:
        """Admission control: claim ``count`` queue slots or shed.

        Shedding needs a ``max_pending`` bound, which only a
        :class:`BatchConfig` sets; the depth gauge counts either way.
        """
        max_pending = (
            self.batching.max_pending if self.batching is not None else None
        )
        with self._depth_lock:
            if max_pending is not None and self._pending + count > max_pending:
                self._counters["service.shed"].inc(count)
                raise ServiceOverloadError(self._pending, max_pending)
            self._pending += count
            depth = self._pending
        self._gauges["service.queue_depth"].set(depth)

    def _release(self, count: int) -> None:
        with self._depth_lock:
            self._pending -= count
            depth = self._pending
        self._gauges["service.queue_depth"].set(depth)

    def _on_future_done(self, future: Future) -> None:
        self._release(1)

    @property
    def queue_depth(self) -> int:
        """Submissions admitted but not yet completed (the shed gauge)."""
        with self._depth_lock:
            return self._pending

    def _dispatch_group(self, group: BatchGroup) -> None:
        """Hand a sealed group to the worker pool (scheduler callback).

        A group the closed pool refuses fails its callers and releases
        its scheduler slot, as a finished group would.
        """
        try:
            self._pool.submit(self._execute_group, group)
        except RuntimeError:
            exc = ServiceError("cannot execute batch: QueryService is closed")
            _fail_group(group, exc)
            self._scheduler.done()

    # -- The worker body --------------------------------------------------------

    def _execute_group(self, group: BatchGroup) -> None:
        """Run one group; a fault outside the engine calls fails its callers.

        An engine error reaches only its own member's futures (see
        :meth:`_run_member`); anything else that escapes — tracing or
        logging, say — fails every future of the group still unresolved,
        so no caller waits forever.  A scheduler group then tells the
        scheduler it finished, whichever way it ended, so the freed
        worker takes the open group and no slot leaks.
        """
        try:
            self._run_group(group)
        except BaseException as exc:
            _fail_group(group, exc)
            raise
        finally:
            if group.batch_id is not None:
                self._scheduler.done()

    def _run_group(self, group: BatchGroup) -> None:
        """The worker body every read runs through.

        ``group`` is a scheduler group (``batch_id`` set) or a read of
        one that runs alone (``batch_id`` None: a direct submission or
        an ``at_version`` read).  Every future is claimed at pickup, so
        a member cancelled before then does no work.  One pinned engine
        version — the group's own, else the current published one —
        covers the group; members execute sequentially (answers are
        byte-identical to serial execution on that version), each with
        its own record and per-query I/O delta.

        Only a scheduler group opens a shared-read session: a query
        re-reads blocks, and a lone read must cost exactly its
        standalone device reads (the paper's cold-cache accounting).
        Likewise its hierarchical trace gets a "batch" root with one
        "query" child per executed member, while a lone read's root is
        its "query" span.  Records reach the trace, slow-query, and query
        logs once the trace is committed, so they carry its
        ``trace_id``.  Batch members resolve as each one finishes; a
        lone read resolves after it is logged.
        """
        started = time.perf_counter()
        claimed = []
        for member in group.members:
            alive = member.future.set_running_or_notify_cancel()
            followers = [
                follower
                for follower in member.followers
                if follower.future.set_running_or_notify_cancel()
            ]
            if alive or followers:
                claimed.append((member, alive, followers))
        if not claimed:
            return
        batched = group.batch_id is not None
        trace = (
            self.tracer.begin("batch" if batched else "query", start=started)
            if self.tracer is not None
            else None
        )
        root = trace.root if trace is not None else None
        if batched and root is not None:
            root.category = "batch"
        session = SharedReadSession() if batched else None
        version = (
            group.version if group.version is not None
            else self._maintainer.current
        )
        pinned_at = time.perf_counter()
        answered: list[_Answered] = []
        with qtrace.activate(root), activate_session(session):
            member_started = started
            for member, alive, followers in claimed:
                done = self._run_member(
                    member, alive, followers, group.batch_id, version,
                    trace, member_started,
                )
                if batched:
                    _settle(done)
                answered.extend(done)
                member_started = time.perf_counter()
        finished = time.perf_counter()
        if trace is not None:
            if batched:
                if root is not None:
                    trace.new_span(
                        "lock-wait", category="service", parent=root,
                        start=started, end=pinned_at, tid=root.tid,
                    )
                    root.annotate(
                        batch_id=group.batch_id,
                        batch_size=len(group),
                        coalesced=len(group) - len(group.members),
                        shared_reads=session.hits,
                        engine_version=version.version,
                    )
                    root.finish(finished)
                latency_ms = (finished - started) * 1000.0
            else:
                latency_ms = answered[0].span.total_ms
            if self.tracer.commit(trace, latency_ms):
                for each in answered:
                    each.span.trace_id = trace.trace_id
        for each in answered:
            span = each.span
            if self.trace_log.append(span):
                self._counters["service.trace_log.dropped"].inc()
            self.slow_log.offer(span)
            if self.query_log is not None:
                self.query_log.offer(span)
        if not batched:
            _settle(answered)
            return
        self._counters["service.batches"].inc()
        self._histograms["service.batch.size"].observe(len(group))

    def _run_member(
        self,
        member: BatchMember,
        alive: bool,
        followers: list[BatchMember],
        batch_id: int | None,
        version: EngineVersion,
        trace,
        started: float,
    ) -> list[_Answered]:
        """Execute one member (plus its coalesced followers) of a group.

        ``alive`` says whether the member's own caller still waits;
        ``followers`` are the coalesced riders still waiting.  Returns
        one :class:`_Answered` per span (leader first), already counted
        into the metrics but not yet logged or resolved.  A member
        failure fails its own futures and never aborts the rest of the
        group.
        """
        query = member.query
        span = TraceSpan(
            query_id=member.query_id,
            submitted_at=member.submitted_at,
            started_at=started,
            worker=threading.current_thread().name,
            batch_id=batch_id,
            engine_version=version.version,
        )
        span.query = query
        # A batch member gets its own "query" span under the batch root;
        # a lone read's trace root is its "query" span.
        qspan = None
        if trace is not None:
            qspan = (
                trace.new_span("query", category="query", parent=trace.root,
                               start=started)
                if batch_id is not None
                else trace.root
            )
        future = member.future if alive else None
        try:
            with qtrace.activate(qspan):
                span.lock_acquired_at = time.perf_counter()
                execution = self._answer(query, span, version)
        except Exception as exc:
            span.finished_at = time.perf_counter()
            span.error = f"{type(exc).__name__}: {exc}"
            if qspan is not None:
                qspan.finish(span.finished_at)
            if trace is not None:
                span.emit_phases(trace, parent=qspan)
            self._record(span, failures=(1 if alive else 0) + len(followers))
            failed = [_Answered(span, future, exc)]
            for follower in followers:
                fspan = self._follower_span(
                    follower, span, batch_id, error=span.error,
                )
                failed.append(_Answered(fspan, follower.future, exc))
            return failed
        finished = time.perf_counter()
        span.execution = execution
        execution.trace = span
        span.finished_at = finished
        if qspan is not None:
            qspan.finish(finished)
        if trace is not None:
            span.emit_phases(trace, parent=qspan)
        self._record(span)
        answered = [_Answered(span, future, None)]
        for follower in followers:
            fspan = self._follower_span(follower, span, batch_id)
            fspan.execution = self._follower_execution(
                follower.query, execution
            )
            fspan.execution.trace = fspan
            self._record(fspan)
            answered.append(_Answered(fspan, follower.future, None))
        return answered

    def _record(self, span: TraceSpan, failures: int = 0) -> None:
        """Count one execution into the metrics registry.

        A span without an execution failed and is counted as
        ``failures`` errors (the member and its waiting riders); a failed
        execution's transient retries are counted all the same.
        """
        counters = self._counters
        histograms = self._histograms
        if span.retries:
            counters["service.retries"].inc(span.retries)
        execution = span.execution
        if execution is None:
            counters["service.errors"].inc(failures)
            return
        counters["service.queries"].inc()
        counters[f"service.cache.{span.cache}"].inc()
        if execution.degraded:
            counters["service.degraded"].inc()
        io = execution.io
        for attr in _IO_FIELDS:
            counters[f"service.io.{attr}"].inc(getattr(io, attr))
        histograms["service.queue_wait_ms"].observe(span.queue_wait_ms)
        histograms["service.lock_wait_ms"].observe(span.lock_wait_ms)
        histograms["service.search_ms"].observe(span.search_ms)
        histograms["service.merge_ms"].observe(span.merge_ms)
        histograms["service.total_ms"].observe(span.total_ms)
        histograms["service.reads_per_query"].observe(
            io.random_reads + io.sequential_reads
        )

    def _answer(
        self,
        query: SpatialKeywordQuery,
        span: TraceSpan,
        version: EngineVersion,
    ) -> QueryExecution:
        """Resolve one query against a pinned version: cache, then search.

        Cache lookups and stores carry the version stamp, so an answer
        computed against one version can never serve a reader pinned to
        another.
        """
        stamp = version.version
        if self.cache is not None:
            cached = self.cache.get(query, version=stamp)
            if cached is not None:
                span.cache = CACHE_HIT
                span.search_done_at = time.perf_counter()
                # A fresh execution carrying *copies* of the cached
                # results — a caller mutating its answer in place must
                # never reach the cached entry.  A hit costs no I/O and
                # inspects no objects.
                return QueryExecution(
                    query=query,
                    results=[result.copy() for result in cached.results],
                    io=IOCounts(),
                    objects_inspected=0,
                    false_positive_candidates=0,
                    nodes_visited=0,
                    algorithm=cached.algorithm,
                    plan=dict(cached.plan) if cached.plan is not None else None,
                    engine_version=stamp,
                )
            span.cache = CACHE_MISS
        else:
            span.cache = CACHE_BYPASS

        def count_retry(attempt: int, exc: Exception) -> None:
            span.retries += 1

        execution = retry_transient(
            lambda: version.search(query),
            self.retries, self.retry_backoff_s,
            on_retry=count_retry,
        )
        execution.engine_version = stamp
        span.search_done_at = time.perf_counter()
        if self.cache is not None and not execution.degraded:
            # A degraded (partial) answer must not outlive the fault that
            # caused it: once the shard recovers, the same query should
            # run fully, not replay the partial result from cache.
            # The cached entry gets its own result copies so the caller
            # of *this* (miss) execution cannot mutate them afterwards.
            self.cache.put(query, execution.with_result_copies(), version=stamp)
        return execution

    @staticmethod
    def _follower_span(
        follower: BatchMember, leader_span: TraceSpan, batch_id: int,
        error: str | None = None,
    ) -> TraceSpan:
        """The record of a coalesced rider (zero-width execution).

        The follower never pinned a version or touched a device; its
        record holds its queue wait (submission → leader completion) and
        the ``"coalesced"`` disposition.
        """
        finished = leader_span.finished_at
        span = TraceSpan(
            query_id=follower.query_id,
            cache=CACHE_COALESCED,
            submitted_at=follower.submitted_at,
            started_at=leader_span.started_at,
            lock_acquired_at=finished,
            search_done_at=finished,
            finished_at=finished,
            worker=leader_span.worker,
            batch_id=batch_id,
            error=error,
            engine_version=leader_span.engine_version,
        )
        span.query = follower.query
        return span

    @staticmethod
    def _follower_execution(
        query: SpatialKeywordQuery, leader: QueryExecution
    ) -> QueryExecution:
        """An independent copy of the leader's answer for a coalesced rider.

        Built through :meth:`QueryExecution.with_result_copies` so no two
        callers ever share mutable result objects; the follower's own
        I/O delta is zero (it executed nothing), keeping per-query
        attribution exact — the per-query deltas of a batch still sum to
        the device totals.
        """
        copy = leader.with_result_copies()
        return replace(
            copy,
            query=query,
            io=IOCounts(),
            objects_inspected=0,
            false_positive_candidates=0,
            nodes_visited=0,
            trace=None,
            shards=None,
            plan=dict(leader.plan) if leader.plan is not None else None,
            failed_shards=(
                list(leader.failed_shards) if leader.failed_shards else None
            ),
        )

    # -- Mutations (buffered; readers never block) ---------------------------

    def add_object(self, oid: int, point: Sequence[float], text: str) -> None:
        """Insert one object; invalidates the result cache."""
        self.add(SpatialObject(oid, tuple(float(c) for c in point), text))

    def add(self, obj: SpatialObject) -> None:
        """Insert one :class:`SpatialObject`; invalidates the result cache.

        The insert is buffered and a new version published without ever
        blocking a reader.
        """
        self._maintainer.add(obj)
        self._invalidate()

    def delete(self, oid: int) -> bool:
        """Delete one object; invalidates the result cache *if effective*.

        A delete of an oid that is not live is a no-op and must leave
        the service untouched: no cold-started result cache, no planner
        statistics bump, no plan-cache flush.
        """
        removed = self._maintainer.delete(oid) is not None
        if removed:
            self._invalidate()
        return removed

    def build(self, bulk: bool = True) -> None:
        """(Re)build the engine's index; invalidates the result cache.

        Folds the write buffer and rebuilds copy-on-write (in-flight
        readers keep their pinned version).
        """
        self._maintainer.rebuild(bulk=bulk)
        self._invalidate()

    def flush(self) -> int:
        """Fold every buffered write into the base engine.

        Returns the resulting published version.
        """
        return self._maintainer.flush().version

    def save(self, directory: str) -> str:
        """Persist a consistent engine snapshot; returns the manifest path.

        Safe against concurrent writers and merges: first folds the
        write buffer (waiting out any in-flight merge) and saves the
        resulting clean version's base — a save issued mid-merge
        captures a consistent published version, never a torn
        half-mutation.
        """
        from repro.persist import save_engine

        version = self._maintainer.flush(reason="save")
        return save_engine(version.base, directory)

    def _invalidate(self) -> None:
        if self.cache is not None:
            self.cache.invalidate()

    # -- Introspection ----------------------------------------------------------

    def stats(self) -> ServiceStats:
        """The service counters, read from one metrics snapshot.

        Refreshes the storage gauges from the engine's
        devices first, so :attr:`ServiceStats.metrics` is current.
        """
        export_engine(self.metrics, self.engine)
        return ServiceStats.from_metrics(self.metrics.snapshot())

    def slow_queries(self) -> list[TraceSpan]:
        """The retained slow-query spans, slowest first."""
        return self.slow_log.spans()

    def export_metrics(
        self, path: str | None = None, fmt: str = "json"
    ) -> str:
        """Render the service's metrics; optionally write them to ``path``.

        ``fmt="json"`` (the default, the CLI's ``serve --serve-metrics``
        output) renders the service summary, metrics snapshot, and
        slow-query log as one JSON document.  ``fmt="prometheus"``
        renders the metrics snapshot in the Prometheus text exposition
        format (:func:`repro.obs.export.render_prometheus`) for
        scraping.  Returns the rendered payload either way, and also
        writes it to ``path`` when one is given.
        """
        stats = self.stats()
        if fmt == "prometheus":
            payload = render_prometheus(stats.metrics)
        elif fmt == "json":
            payload = json.dumps(
                {
                    "service": stats.as_dict(),
                    "metrics": stats.metrics,
                    "slow_queries": self.slow_log.as_dicts(),
                },
                indent=2,
            )
        else:
            raise ServiceError(
                f"unknown metrics format {fmt!r}; use 'json' or 'prometheus'"
            )
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        return payload

    def trace_spans(self) -> list[TraceSpan]:
        """Snapshot of the retained per-query trace spans."""
        return self.trace_log.spans()

    def export_traces(
        self, path: str, executions: Iterable[QueryExecution] | None = None
    ) -> None:
        """Dump the service summary plus every retained span to JSON.

        Args:
            path: output file.
            executions: optionally, completed executions to embed as
                JSON payloads (:meth:`QueryExecution.to_dict`) under an
                ``"executions"`` key — results, per-query I/O, and the
                per-shard breakdown for sharded engines.
        """
        extra: dict = {"service": self.stats().as_dict()}
        if executions is not None:
            extra["executions"] = [
                execution.to_dict() for execution in executions
            ]
        self.trace_log.dump_json(path, extra=extra)

    def traces(self) -> list:
        """The retained hierarchical traces (empty without a tracer)."""
        return self.tracer.traces() if self.tracer is not None else []

    def export_chrome_trace(self, path: str) -> None:
        """Write the retained span trees as Chrome trace-event JSON.

        Load the file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``; requires a :class:`QueryTracer` attached
        at construction.
        """
        if self.tracer is None:
            raise ServiceError(
                "hierarchical tracing is not enabled; construct the "
                "service with a QueryTracer"
            )
        self.tracer.dump_chrome(path, extra={"workers": self.workers})

    # -- Lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Drain in-flight queries and shut the worker pool down.

        With batching enabled the scheduler's open group is dispatched
        first, so every admitted submission's future completes
        before the pool drains.  A service-owned query-log writer (one
        constructed from a path) is drained and finalized; a caller-
        provided writer is left open for its owner to close.
        """
        if not self._closed:
            self._closed = True
            if self._scheduler is not None:
                self._scheduler.close()
            self._pool.shutdown(wait=True)
            if self.query_log is not None and self._owns_query_log:
                self.query_log.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
