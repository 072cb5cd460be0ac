"""Structured query logging: durable workload capture for the service.

Metrics (:mod:`repro.obs.metrics`) aggregate and traces
(:mod:`repro.obs.trace`) sample, but neither leaves a durable record of
*what the workload actually was* — the per-query stream that
query-log-driven repartitioning and learned cost models need as
training data, and that deterministic replay (:mod:`repro.obs.replay`)
needs as its input.  This module fills that gap:

* :func:`build_record` — one JSON-ready dict per answered query: the
  query shape (point/area/keywords/k/ranking), the planner's strategy
  with estimated vs actual cost, the per-shard fan-out including
  keyword pruning, per-query I/O totals including shared (batch
  session) reads, the latency stages, the cache / batch / degradation
  outcome, the pinned ``engine_version``, the ``trace_id`` linking to a
  retained span tree, and a deterministic digest of the answer;
* :class:`QueryLogWriter` — an append-only JSON-lines writer that never
  blocks the query path: records go through a bounded queue to one
  background thread (overflow increments a drop counter, mirroring the
  trace-log discipline), segments rotate by size, and every finalized
  segment is published with flush + fsync + atomic rename;
* :func:`iter_query_log` / :func:`read_query_log` — read a log back in
  capture order across its rotated segments, tolerating a final line
  truncated by a crash.

Sampling (``sample_every=N``) keeps capture overhead bounded on hot
services: unsampled queries pay one counter increment, nothing else.

Answer digests are position-exact: :func:`result_digest` hashes the
``(oid, distance, score)`` sequence in rank order using exact float
``repr``, so two executions digest equal iff their answers are
byte-identical — the property the replay regression gate relies on,
and one the engine guarantees across shard layouts (the canonical
``(distance, oid)`` / ``(-score, distance, oid)`` tie-breaks).
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import threading

from repro.core.query import SpatialKeywordQuery
from repro.core.ranking import DistanceDecayRanking, LinearRanking
from repro.errors import ReproError

#: Version stamp carried by every record; bump on breaking layout changes.
SCHEMA_VERSION = 1

#: Default active-segment size that triggers rotation (8 MiB).
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024

#: Default bounded-queue capacity between the query path and the writer.
DEFAULT_QUEUE_CAPACITY = 4096

_SENTINEL = object()


def result_digest(results) -> str:
    """Deterministic short digest of a ranked answer.

    Hashes ``oid:repr(distance):repr(score)`` per result in rank order —
    exact float representations, no rounding — so equal digests mean
    byte-identical answers (oids, order, distances, and scores).
    """
    canonical = "|".join(
        f"{result.obj.oid}:{result.distance!r}:{result.score!r}"
        for result in results
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def ranking_spec(ranking) -> dict | None:
    """Serialize a query's ranking function into a replayable spec.

    The library's own ranking families round-trip exactly
    (``distance_decay`` / ``linear`` with their parameters); arbitrary
    callables are recorded as ``{"kind": "custom"}`` — their records
    replay-skip, since an opaque function cannot be reconstructed.
    """
    if ranking is None:
        return None
    if isinstance(ranking, DistanceDecayRanking):
        return {
            "kind": "distance_decay",
            "half_distance": ranking.half_distance,
        }
    if isinstance(ranking, LinearRanking):
        return {
            "kind": "linear",
            "alpha": ranking.alpha,
            "max_distance": ranking.max_distance,
        }
    return {"kind": "custom"}


def query_spec(query: SpatialKeywordQuery) -> dict:
    """The JSON-ready query shape a record carries (replay's input)."""
    return {
        "point": list(query.point),
        "keywords": list(query.keywords),
        "k": query.k,
        "area": (
            [list(query.area.lo), list(query.area.hi)]
            if query.area is not None else None
        ),
        "ranking": ranking_spec(query.ranking),
    }


def _plan_summary(plan: dict | None) -> dict | None:
    """Compact the execution's plan payload for the log.

    Keeps the chosen strategy, the estimated and actual cost, and each
    alternative's estimated cost (``estimates`` maps strategy ->
    cost_ms) — exactly the fields the workload report's won/lost
    aggregation and future learned-cost training need — and drops the
    per-estimate read breakdowns, which would dominate record size.
    """
    if plan is None:
        return None
    summary: dict = {"strategy": plan.get("strategy")}
    for key in ("query_class", "estimated_cost_ms", "actual_cost_ms",
                "cached", "forced"):
        if key in plan:
            summary[key] = plan[key]
    estimates = plan.get("estimates")
    if estimates:
        summary["estimates"] = {
            kind: estimate.get("cost_ms")
            for kind, estimate in estimates.items()
        }
    if "per_shard" in plan:
        summary["per_shard"] = plan["per_shard"]
    return summary


def _fanout_summary(shards: list[dict] | None) -> dict | None:
    """Aggregate the per-shard reports into the record's fan-out block."""
    if shards is None:
        return None
    return {
        "shards": len(shards),
        "searched": sum(
            1 for s in shards if not s.get("pruned") and not s.get("failed")
        ),
        "pruned": sum(1 for s in shards if s.get("pruned")),
        "pruned_by_keywords": sum(
            1 for s in shards if s.get("pruned_by_keywords")
        ),
        "failed": sum(1 for s in shards if s.get("failed")),
    }


def build_record(span) -> dict:
    """One JSON-ready query-log record, read from a query's service record.

    ``span`` is the :class:`~repro.serve.tracing.TraceSpan` of one served
    query.  A failed query's span holds no execution: its record carries
    the error and the query shape but no results digest or I/O
    attribution.
    """
    execution = span.execution
    record: dict = {
        "schema": SCHEMA_VERSION,
        "query_id": span.query_id,
        "cache": span.cache,
        "batch_id": span.batch_id,
        "engine_version": span.engine_version,
        "trace_id": span.trace_id,
        "retries": span.retries,
        "worker": span.worker,
        "error": span.error,
        "latency_ms": {
            "queue_wait": round(span.queue_wait_ms, 4),
            "lock_wait": round(span.lock_wait_ms, 4),
            "engine": round(span.search_ms, 4),
            "merge": round(span.merge_ms, 4),
            "total": round(span.total_ms, 4),
        },
    }
    if span.query is not None:
        record["query"] = query_spec(span.query)
    if execution is None:
        return record
    io = execution.io
    record.update(
        algorithm=execution.algorithm,
        degraded=execution.degraded,
        io={
            "random_reads": io.random_reads,
            "sequential_reads": io.sequential_reads,
            "shared_reads": io.shared_reads,
            "objects_loaded": io.objects_loaded,
        },
        plan=_plan_summary(execution.plan),
        fanout=_fanout_summary(execution.shards),
        results={
            "count": len(execution.results),
            "oids": execution.oids,
            "digest": result_digest(execution.results),
        },
    )
    return record


class QueryLogError(ReproError):
    """A query log file is malformed or its writer was misconfigured."""


class QueryLogWriter:
    """Non-blocking, rotating JSON-lines writer for query-log records.

    The query path calls :meth:`offer`, which samples, builds the
    record, and enqueues it — never touching the filesystem and never
    blocking: a full queue drops the record and bumps
    :attr:`dropped` (and the ``querylog.dropped`` counter when a
    registry is attached).  One background thread drains the queue into
    the active segment at ``path``; once the segment reaches
    ``max_segment_bytes``, the next record first finalizes it — flushed,
    fsynced, and atomically renamed to ``<path>.<NNNNNN>`` — and opens a
    fresh active segment.  :meth:`close` drains and finalizes the active
    segment in place (it stays at ``path``), so readers always see
    ``sorted rotated segments + active file`` in capture order.

    Args:
        path: the active segment path (rotated segments live beside it).
        sample_every: capture every Nth query (1 = everything).
        max_segment_bytes: rotation threshold for the active segment.
        max_queue: bounded-queue capacity between query path and writer.
        metrics: optional registry receiving ``querylog.records`` /
            ``querylog.dropped`` / ``querylog.rotations`` counters.
        autostart: start the drain thread immediately (tests disable
            this to exercise the bounded queue in isolation).
    """

    def __init__(
        self,
        path: str,
        sample_every: int = 1,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        max_queue: int = DEFAULT_QUEUE_CAPACITY,
        metrics=None,
        autostart: bool = True,
    ) -> None:
        if sample_every < 1:
            raise QueryLogError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        if max_segment_bytes < 1:
            raise QueryLogError(
                f"max_segment_bytes must be >= 1, got {max_segment_bytes}"
            )
        self.path = path
        self.sample_every = sample_every
        self.max_segment_bytes = max_segment_bytes
        self.metrics = metrics
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._lock = threading.Lock()
        self._seen = 0
        self._sampled = 0
        self._dropped = 0
        self._written = 0
        self._rotations = 0
        self._closed = False
        self._fh = None
        self._active_bytes = 0
        self._next_segment = self._scan_next_segment()
        self._thread: threading.Thread | None = None
        if autostart:
            self._thread = threading.Thread(
                target=self._drain, name="repro-querylog", daemon=True
            )
            self._thread.start()

    # -- Counters ---------------------------------------------------------------

    @property
    def seen(self) -> int:
        """Queries offered (sampled or not)."""
        with self._lock:
            return self._seen

    @property
    def sampled(self) -> int:
        """Queries that passed the sampling filter."""
        with self._lock:
            return self._sampled

    @property
    def dropped(self) -> int:
        """Sampled records lost because the bounded queue was full."""
        with self._lock:
            return self._dropped

    @property
    def written(self) -> int:
        """Records the background thread has written out so far."""
        with self._lock:
            return self._written

    @property
    def rotations(self) -> int:
        """Segments finalized by size-based rotation."""
        with self._lock:
            return self._rotations

    # -- The query-path side ----------------------------------------------------

    def offer(self, span) -> bool:
        """Sample and enqueue one completed (or failed) query; never blocks.

        Returns True when the record was enqueued, False when it was
        sampled out or dropped on a full queue.
        """
        with self._lock:
            if self._closed:
                return False
            self._seen += 1
            if (self._seen - 1) % self.sample_every:
                return False
            self._sampled += 1
        record = build_record(span)
        try:
            self._queue.put_nowait(record)
        except queue.Full:
            with self._lock:
                self._dropped += 1
            if self.metrics is not None:
                self.metrics.counter("querylog.dropped").inc()
            return False
        return True

    # -- The writer-thread side -------------------------------------------------

    def _scan_next_segment(self) -> int:
        """First free rotation index, past any segments already on disk."""
        directory = os.path.dirname(self.path) or "."
        base = os.path.basename(self.path)
        highest = 0
        try:
            names = os.listdir(directory)
        except OSError:
            return 1
        for name in names:
            if not name.startswith(base + "."):
                continue
            suffix = name[len(base) + 1:]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
        return highest + 1

    def _open_active(self) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # A leftover active segment from an earlier run is rotated out
        # first so its records are preserved in order, never overwritten.
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            os.replace(self.path, f"{self.path}.{self._next_segment:06d}")
            self._next_segment += 1
        self._fh = open(self.path, "w", encoding="utf-8")
        self._active_bytes = 0

    def _rotate(self) -> None:
        """Finalize the active segment: flush, fsync, atomic rename."""
        fh = self._fh
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
        os.replace(self.path, f"{self.path}.{self._next_segment:06d}")
        self._next_segment += 1
        self._fh = None
        with self._lock:
            self._rotations += 1
        if self.metrics is not None:
            self.metrics.counter("querylog.rotations").inc()

    def _write_record(self, record: dict) -> None:
        # A full segment is rotated out only when a further record comes,
        # so the last record written always leaves the final segment at
        # ``path``.
        if self._fh is not None and self._active_bytes >= self.max_segment_bytes:
            self._rotate()
        if self._fh is None:
            self._open_active()
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        self._fh.write(line + "\n")
        self._active_bytes += len(line) + 1
        with self._lock:
            self._written += 1
        if self.metrics is not None:
            self.metrics.counter("querylog.records").inc()

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _SENTINEL:
                    return
                try:
                    self._write_record(item)
                except OSError:
                    # A full or vanished disk must never take the query
                    # path down with it; account the loss and move on.
                    with self._lock:
                        self._dropped += 1
                    if self.metrics is not None:
                        self.metrics.counter("querylog.dropped").inc()
            finally:
                self._queue.task_done()

    def drain(self) -> None:
        """Block until every enqueued record has been written (tests)."""
        self._queue.join()

    def close(self) -> None:
        """Drain the queue and finalize the active segment in place.

        The active segment stays at ``path`` (flushed and fsynced) —
        the final, possibly partial segment of the log.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._thread is not None:
            self._queue.put(_SENTINEL)
            self._thread.join()
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "QueryLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- Reading a log back ---------------------------------------------------------


def query_log_paths(path: str) -> list[str]:
    """Every segment of a query log, in capture order.

    Rotated segments (``<path>.<NNNNNN>``) sort first by index, then the
    active/final segment at ``path`` itself.
    """
    directory = os.path.dirname(path) or "."
    base = os.path.basename(path)
    segments = []
    try:
        names = os.listdir(directory)
    except OSError:
        names = []
    for name in names:
        if name.startswith(base + ".") and name[len(base) + 1:].isdigit():
            segments.append(os.path.join(directory, name))
    segments.sort()
    if os.path.exists(path):
        segments.append(path)
    return segments


def iter_query_log(path: str):
    """Yield records from a log (all segments), in capture order.

    A malformed line raises :class:`QueryLogError` unless it is the
    final line of the final segment — a crash mid-append legitimately
    truncates that one line, so it is skipped silently (the atomic
    rotation protocol guarantees every *finalized* segment is intact).
    """
    segments = query_log_paths(path)
    if not segments:
        raise QueryLogError(f"no query log found at {path}")
    for si, segment in enumerate(segments):
        last_segment = si == len(segments) - 1
        with open(segment, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for li, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except ValueError as exc:
                if last_segment and li == len(lines) - 1:
                    return  # crash-truncated final append
                raise QueryLogError(
                    f"malformed query-log line {li + 1} in {segment}: {exc}"
                ) from exc


def read_query_log(path: str) -> list[dict]:
    """Read a whole query log (all segments) into a list of records."""
    return list(iter_query_log(path))
