"""Concurrent serving layer over the paper's single-query engine.

The research core executes one query at a time; this package adds the
production wrapper the ROADMAP's north star asks for:

* :class:`QueryService` — thread-pooled dispatch through one worker
  body for every read; queries pin immutable published engine versions
  (:class:`EngineVersion`) and never block on writers, whose mutations
  buffer into a :class:`SnapshotMaintainer` write buffer and merge in
  the background;
* :class:`BatchScheduler` / :class:`BatchConfig` — the batch front-end:
  work-conserving grouping (a query is dispatched at once while a
  worker is free; queries group only while every worker is busy),
  duplicate coalescing, one shared-read session per group, and
  admission control (:class:`~repro.errors.ServiceOverloadError`
  shedding);
* :class:`QueryResultCache` — LRU memoization of identical queries with
  explicit invalidation on every engine mutation;
* :class:`TraceSpan` / :class:`TraceLog` — the one record of each
  served query (timings, cache disposition, batch, pinned version, and
  its query and execution) and the bounded log that retains them;
* :class:`ServiceStats` — lifetime counters, a view of the metrics registry.

Quick start::

    from repro import SpatialKeywordEngine
    from repro.serve import BatchConfig, QueryService

    engine = SpatialKeywordEngine(index="ir2")
    ...
    engine.build()
    with QueryService(engine, workers=8, batching=BatchConfig()) as service:
        executions = service.run_batch(queries)
        print(service.stats().summary())
"""

from repro.serve.maintenance import (
    EngineVersion,
    SnapshotMaintainer,
    WriteBuffer,
)
from repro.serve.resultcache import QueryResultCache
from repro.serve.scheduler import BatchConfig, BatchGroup, BatchScheduler
from repro.serve.service import QueryService, ServiceStats
from repro.serve.tracing import TraceLog, TraceSpan

__all__ = [
    "BatchConfig",
    "BatchGroup",
    "BatchScheduler",
    "EngineVersion",
    "QueryResultCache",
    "QueryService",
    "ServiceStats",
    "SnapshotMaintainer",
    "TraceLog",
    "TraceSpan",
    "WriteBuffer",
]
