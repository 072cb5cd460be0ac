#!/usr/bin/env python3
"""Concurrent serving: a query fleet against one engine, with tracing.

The paper's algorithms answer one query at a time; the `repro.serve`
layer dispatches many at once while keeping those algorithms unmodified.
This example builds an IR2-Tree over a synthetic city, replays a
deterministic hot/cold workload (half the traffic repeats a small set of
popular queries — exactly what a result cache loves) through a
`QueryService` with 8 workers, then:

* verifies the concurrent answers equal serial execution,
* verifies the per-query I/O deltas sum to the device totals,
* prints the service summary and a few per-query trace spans,
* replays the same workload through the batch front-end
  (`submit_many` + shared-read sessions) and shows the device reads
  drop while the answers stay identical,
* demonstrates cache invalidation by inserting a new object.

Run:
    python examples/concurrent_queries.py
"""

from __future__ import annotations

from repro import SpatialKeywordEngine
from repro.bench.workloads import ConcurrentLoadGenerator
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.serve import BatchConfig, QueryService

N_OBJECTS = 1_500
N_QUERIES = 64
WORKERS = 8


def build_engine() -> tuple[SpatialKeywordEngine, list]:
    config = DatasetConfig(
        name="city",
        n_objects=N_OBJECTS,
        vocabulary_size=max(300, N_OBJECTS // 4),
        avg_unique_words=10,
        clusters=8,
        seed=2008,
    )
    objects = SpatialTextDatasetGenerator(config).generate()
    engine = SpatialKeywordEngine(index="ir2", signature_bytes=16)
    engine.add_all(objects)
    engine.build()
    return engine, objects


def main() -> None:
    engine, objects = build_engine()
    print(f"engine: IR2 over {len(engine)} objects")

    workload = ConcurrentLoadGenerator(objects, engine.corpus.analyzer, seed=42)
    batch = workload.batch(N_QUERIES, num_keywords=2, k=5, hot_fraction=0.5)

    # Serial ground truth first (the service must reproduce it exactly).
    serial = [engine.query(q.point, q.keywords, k=q.k) for q in batch]

    engine.reset_io()
    with QueryService(engine, workers=WORKERS, cache=True) as service:
        executions = service.run_batch(batch)
        stats = service.stats()

    for s, p in zip(serial, executions):
        assert p.oids == s.oids, "concurrent answers diverged from serial!"
    print(f"{N_QUERIES} concurrent answers identical to serial execution")

    totals = engine.io_stats()
    per_query_reads = sum(e.io.total_reads for e in executions)
    assert per_query_reads == totals.total_reads
    print(f"per-query I/O sums to device totals: {per_query_reads} reads")

    print()
    print(f"service summary: {stats.summary()}")
    print(f"cache hit rate: {stats.cache_hit_rate:.0%} "
          f"({stats.cache_hits} of {N_QUERIES})")

    print()
    print("slowest three executions by search time:")
    slowest = sorted(
        executions, key=lambda e: e.trace.search_ms, reverse=True
    )
    for execution in slowest[:3]:
        span, io = execution.trace, execution.io
        print(f"  #{span.query_id:3d} {span.cache:6s} "
              f"wait {span.queue_wait_ms:7.2f} ms  "
              f"search {span.search_ms:7.2f} ms  "
              f"{io.random_reads}r+{io.sequential_reads}s reads  "
              f"keywords={list(execution.query.keywords)}")

    # The batch front-end: the same workload through submit_many runs
    # each group under one shared-read session, so blocks touched by
    # several queries of a group hit the device once.
    unbatched_reads = totals.total_reads
    engine.reset_io()
    with QueryService(
        engine, workers=WORKERS, cache=False,
        batching=BatchConfig(max_batch=16),
    ) as service:
        batched = service.run_batch(batch)
        bstats = service.stats()
    for s, p in zip(serial, batched):
        assert p.oids == s.oids, "batched answers diverged from serial!"
    btotals = engine.io_stats()
    print()
    print(f"batched: {bstats.batches} groups, {bstats.coalesced} coalesced, "
          f"{bstats.io.shared_reads} reads shared within groups")
    print(f"device reads: {btotals.total_reads} batched (uncached) vs "
          f"{unbatched_reads} unbatched-with-cache — answers identical")

    # Mutations invalidate the cache: repeat a hot query, insert, repeat.
    hot = batch[0]
    with QueryService(engine, workers=2, cache=True) as service:
        service.search(hot)
        repeat = service.search(hot)
        assert repeat.trace.cache == "hit"
        service.add_object(10**6, hot.point, " ".join(hot.keywords))
        fresh = service.search(hot)
        assert fresh.trace.cache == "miss"
        assert fresh.oids[0] == 10**6
    print()
    print("cache invalidation: hit before insert, miss after, "
          "new object ranked first")


if __name__ == "__main__":
    main()
