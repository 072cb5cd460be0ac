"""Concurrency tests for the :mod:`repro.serve` query service."""

from __future__ import annotations

import threading

import pytest

from repro.bench.workloads import ConcurrentLoadGenerator, WorkloadGenerator
from repro.core.engine import SpatialKeywordEngine
from repro.errors import DeviceFaultError, ServiceError
from repro.obs.querylog import read_query_log, result_digest
from repro.obs.trace import QueryTracer
from repro.serve import BatchConfig, EngineVersion, QueryService, TraceSpan
from repro.serve.resultcache import QueryResultCache
from repro.core.query import SpatialKeywordQuery


@pytest.fixture
def engine(small_objects) -> SpatialKeywordEngine:
    eng = SpatialKeywordEngine(index="ir2", signature_bytes=8)
    eng.add_all(small_objects)
    eng.build()
    return eng


@pytest.fixture
def workload(small_objects, engine) -> WorkloadGenerator:
    return WorkloadGenerator(small_objects, engine.corpus.analyzer, seed=17)


def search(service, point, keywords, k=10):
    """Synchronous point query through the redesigned submission API."""
    return service.search(SpatialKeywordQuery.of(point, keywords, k))


class TestConcurrentCorrectness:
    def test_parallel_equals_serial(self, engine, workload):
        """8 workers x 64 queries: results identical to serial execution."""
        queries = workload.queries(64, num_keywords=2, k=10)
        serial = [engine.query(q.point, q.keywords, k=q.k) for q in queries]
        with QueryService(engine, workers=8, cache=False) as service:
            parallel = service.run_batch(queries)
        for s, p in zip(serial, parallel):
            assert p.oids == s.oids
            assert [r.distance for r in p.results] == [
                r.distance for r in s.results
            ]

    def test_per_query_io_sums_to_device_totals(self, engine, workload):
        """Isolated per-execution deltas add up to the global counters."""
        queries = workload.queries(48, num_keywords=2, k=5)
        engine.reset_io()
        with QueryService(engine, workers=8, cache=False) as service:
            executions = service.run_batch(queries)
        totals = engine.io_stats()
        assert sum(e.io.total_reads for e in executions) == totals.total_reads
        assert sum(e.io.random_reads for e in executions) == totals.random_reads
        assert (
            sum(e.io.sequential_reads for e in executions)
            == totals.sequential_reads
        )
        assert (
            sum(e.io.objects_loaded for e in executions) == totals.objects_loaded
        )
        # The service's aggregate view agrees too.
        stats = service.stats()
        assert stats.io.total_reads == totals.total_reads
        assert stats.queries == len(queries)

    def test_mixed_hot_cold_batch_with_cache(self, engine, workload):
        """A cache-enabled concurrent batch still matches serial answers."""
        generator = ConcurrentLoadGenerator(
            workload.objects, engine.corpus.analyzer, seed=3
        )
        batch = generator.batch(64, num_keywords=2, k=5, hot_fraction=0.6)
        serial = {id(q): engine.query(q.point, q.keywords, k=q.k) for q in batch}
        with QueryService(engine, workers=8, cache=True) as service:
            parallel = service.run_batch(batch)
        for query, execution in zip(batch, parallel):
            assert execution.oids == serial[id(query)].oids
        stats = service.stats()
        assert stats.queries == 64
        assert stats.cache_hits + stats.cache_misses == 64
        assert stats.cache_hits > 0  # hot repeats must hit


class TestTracing:
    def test_every_execution_carries_a_populated_span(self, engine, workload):
        queries = workload.queries(16, num_keywords=2, k=5)
        with QueryService(engine, workers=4, cache=True) as service:
            executions = service.run_batch(queries)
        seen_ids = set()
        for execution in executions:
            span = execution.trace
            assert isinstance(span, TraceSpan)
            seen_ids.add(span.query_id)
            assert span.execution is execution
            row = span.as_dict()
            assert row["algorithm"] == "IR2"
            assert span.cache in ("hit", "miss")
            assert row["keywords"] == list(execution.query.keywords)
            assert span.finished_at >= span.started_at >= span.submitted_at
            assert span.queue_wait_ms >= 0.0
            assert span.search_ms >= 0.0
            assert row["num_results"] == len(execution.results)
            if span.cache == "miss":
                assert row["random_reads"] == execution.io.random_reads > 0
            else:
                assert row["random_reads"] == 0
            assert span.worker.startswith("repro-query")
        assert len(seen_ids) == 16  # distinct, service-assigned ids
        assert len(service.trace_spans()) == 16

    def test_trace_export_round_trips(self, engine, workload, tmp_path):
        import json

        path = str(tmp_path / "trace.json")
        with QueryService(engine, workers=2) as service:
            service.run_batch(workload.queries(6, 2, 5))
            service.export_traces(path)
        payload = json.loads(open(path).read())
        assert payload["service"]["queries"] == 6
        assert len(payload["spans"]) == 6
        for row in payload["spans"]:
            for key in ("queue_wait_ms", "search_ms", "cache", "random_reads"):
                assert key in row

    def test_trace_log_capacity_drops_oldest(self, engine, workload):
        with QueryService(engine, workers=2, trace_capacity=4) as service:
            service.run_batch(workload.queries(10, 1, 3))
        assert len(service.trace_log) == 4
        assert service.trace_log.dropped == 6
        counters = service.stats().metrics["counters"]
        assert counters["service.trace_log.dropped"] == 6

    def test_trace_log_is_bounded_by_default(self, engine):
        with QueryService(engine, workers=1) as service:
            assert service.trace_log.capacity is not None


class TestCacheSemantics:
    def test_repeat_query_hits_and_costs_nothing(self, engine):
        with QueryService(engine, workers=2, cache=True) as service:
            first = search(service, (0.5, 0.5), ["internet"], k=3)
            second = search(service, (0.5, 0.5), ["internet"], k=3)
        assert second.oids == first.oids
        assert first.trace.cache == "miss"
        assert second.trace.cache == "hit"
        assert second.io.total_accesses == 0
        assert second.objects_inspected == 0

    def test_add_object_and_rebuild_invalidate(self, engine, workload):
        """The satellite's scenario: cache flushed by add_object + build."""
        query = workload.query(num_keywords=1, k=5)
        point, keywords = query.point, list(query.keywords)
        with QueryService(engine, workers=2, cache=True) as service:
            before = search(service, point, keywords, k=5)
            assert search(service, point, keywords, k=5).trace.cache == "hit"
            generation = service.cache.generation
            # Insert an object right at the query point carrying the keyword.
            service.add_object(999_999, point, " ".join(keywords) + " new")
            service.build()  # full rebuild over the grown corpus
            assert service.cache.generation == generation + 2
            after = search(service, point, keywords, k=5)
            assert after.trace.cache == "miss"
            assert after.oids[0] == 999_999
            assert before.oids[0] != 999_999

    def test_delete_invalidates(self, engine, workload):
        query = workload.query(num_keywords=1, k=3)
        with QueryService(engine, workers=2, cache=True) as service:
            first = search(service, query.point, list(query.keywords), k=3)
            victim = first.oids[0]
            assert service.delete(victim) is True
            after = search(service, query.point, list(query.keywords), k=3)
            assert after.trace.cache == "miss"
            assert victim not in after.oids

    def test_mutating_a_miss_answer_cannot_corrupt_the_cache(
        self, engine, workload
    ):
        """Regression: the cache stores copies, not the caller's objects.

        The execution that populates the cache hands its results to the
        caller; scribbling over them must not change what later hits
        see.
        """
        query = workload.query(num_keywords=1, k=3)
        point, keywords = query.point, list(query.keywords)
        with QueryService(engine, workers=2, cache=True) as service:
            first = search(service, point, keywords, k=3)
            assert first.trace.cache == "miss"
            assert first.results, "workload query must have answers"
            original = [(r.distance, r.obj.oid, r.score) for r in first.results]
            for result in first.results:
                result.distance = -99.0
                result.score = -99.0
            first.results.clear()
            second = search(service, point, keywords, k=3)
        assert second.trace.cache == "hit"
        assert [
            (r.distance, r.obj.oid, r.score) for r in second.results
        ] == original

    def test_mutating_a_hit_answer_cannot_corrupt_the_cache(
        self, engine, workload
    ):
        """Regression: each cache hit returns per-hit result copies."""
        query = workload.query(num_keywords=1, k=3)
        point, keywords = query.point, list(query.keywords)
        with QueryService(engine, workers=2, cache=True) as service:
            first = search(service, point, keywords, k=3)
            assert first.results, "workload query must have answers"
            original = [(r.distance, r.obj.oid) for r in first.results]
            second = search(service, point, keywords, k=3)
            assert second.trace.cache == "hit"
            for result in second.results:
                result.distance = float("nan")
            second.results.pop()
            third = search(service, point, keywords, k=3)
        assert third.trace.cache == "hit"
        assert [(r.distance, r.obj.oid) for r in third.results] == original

    def test_distinct_k_are_distinct_entries(self, engine):
        with QueryService(engine, workers=2, cache=True) as service:
            search(service, (0.5, 0.5), ["internet"], k=2)
            third = search(service, (0.5, 0.5), ["internet"], k=3)
        assert third.trace.cache == "miss"

    def test_writes_interleaved_with_reads_stay_consistent(self, engine, workload):
        """Mutations and queries race; every answer must be internally sane."""
        queries = workload.queries(30, num_keywords=1, k=5)
        errors = []
        with QueryService(engine, workers=4, cache=True) as service:
            def mutate():
                try:
                    for i in range(10):
                        service.add_object(
                            1_000_000 + i, (0.1 * i, 0.1 * i), f"word{i} extra"
                        )
                except Exception as exc:  # pragma: no cover - fail loud
                    errors.append(exc)

            thread = threading.Thread(target=mutate)
            thread.start()
            executions = service.run_batch(queries)
            thread.join()
        assert not errors
        for execution in executions:
            distances = [r.distance for r in execution.results]
            assert distances == sorted(distances)


class TestLifecycle:
    def test_submit_after_close_raises(self, engine):
        service = QueryService(engine, workers=1)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(SpatialKeywordQuery.of((0, 0), ["internet"], 5))

    def test_submit_racing_close_raises_service_error(self, engine):
        # Simulate close() winning the race just after the _closed check:
        # the executor rejects the submit with RuntimeError, which must
        # surface as ServiceError, not leak through.
        service = QueryService(engine, workers=1)
        service._pool.shutdown(wait=True)
        with pytest.raises(ServiceError):
            service.submit(SpatialKeywordQuery.of((0, 0), ["internet"], 5))
        service.close()

    def test_engine_serve_convenience(self, engine):
        with engine.serve(workers=2, cache=False) as service:
            assert isinstance(service, QueryService)
            execution = search(service, (0.5, 0.5), ["internet"], k=1)
        assert execution.algorithm == "IR2"
        assert service.cache is None

    def test_workers_must_be_positive(self, engine):
        with pytest.raises(ServiceError):
            QueryService(engine, workers=0)

    def test_default_service_stats_has_real_io(self):
        from repro.serve.service import ServiceStats

        stats = ServiceStats()
        assert stats.io.random_reads == 0
        assert stats.as_dict()["random_reads"] == 0
        assert stats.summary().startswith("0 queries")

    def test_query_error_propagates_and_is_counted(self, engine, monkeypatch):
        with QueryService(engine, workers=1) as service:
            future = service.submit(
                SpatialKeywordQuery.of((0, 0), ["internet"], k=1)
            )
            future.result()

            def explode(query):
                raise RuntimeError("disk on fire")

            monkeypatch.setattr(engine.index, "execute", explode)
            with pytest.raises(RuntimeError, match="disk on fire"):
                search(service, (1, 1), ["internet"], k=1)
        stats = service.stats()
        assert stats.errors == 1
        failed = [s for s in service.trace_spans() if s.error]
        assert len(failed) == 1


ENTRY_PATHS = ("direct", "batched", "at_version")


def _entry(service, path, query):
    """A zero-argument call answering ``query`` through one entry path."""
    if path == "direct":
        return service.submit(query).result
    if path == "batched":
        return service.submit_many([query])[0].result
    version = service.engine_version
    return lambda: service.search(query, at_version=version)


class TestOneWorkerBody:
    """Direct, batched, and at-version reads run through one worker body."""

    @pytest.mark.parametrize("path", ("search", "submit", "at_version"))
    def test_unbatched_reads_cost_exactly_their_standalone_reads(
        self, engine, workload, path
    ):
        """No shared-read session leaks into a read that runs alone.

        A query re-reads some blocks itself; a session would count those
        repeats as ``shared_reads`` and lower the device reads, which
        the device totals alone cannot see.
        """
        queries = workload.queries(32, num_keywords=2, k=10)
        standalone = [engine.search(query) for query in queries]
        with QueryService(engine, workers=1, cache=False) as service:
            version = service.engine_version
            run = {
                "search": service.search,
                "submit": lambda query: service.submit(query).result(),
                "at_version": lambda query: service.search(
                    query, at_version=version
                ),
            }[path]
            executions = [run(query) for query in queries]
            assert service.stats().batches == 0
        for alone, execution in zip(standalone, executions):
            assert execution.oids == alone.oids
            assert execution.io.shared_reads == 0
            assert execution.io.total_reads == alone.io.total_reads
            assert execution.io.objects_loaded == alone.io.objects_loaded

    @pytest.mark.parametrize("path", ENTRY_PATHS)
    def test_span_and_record_agree_on_every_path(
        self, small_objects, tmp_path, path
    ):
        engine = SpatialKeywordEngine(index="auto", signature_bytes=8)
        engine.add_all(small_objects)
        engine.build()
        query = WorkloadGenerator(
            small_objects, engine.analyzer, seed=5
        ).queries(1, num_keywords=1, k=5)[0]
        reference = engine.search(query)
        log = str(tmp_path / "q.jsonl")
        with QueryService(
            engine, workers=1, cache=False, query_log=log,
            batching=BatchConfig() if path == "batched" else None,
        ) as service:
            execution = _entry(service, path, query)()
        (record,) = read_query_log(log)
        span = execution.trace
        row = span.as_dict()
        assert (span.batch_id is None) == (path != "batched")
        assert record["batch_id"] == span.batch_id
        assert row["algorithm"] == record["algorithm"] == reference.algorithm
        assert row["strategy"] == record["plan"]["strategy"]
        assert row["strategy"] == reference.plan["strategy"]
        io = record["io"]
        assert row["random_reads"] == io["random_reads"]
        assert row["sequential_reads"] == io["sequential_reads"]
        assert row["shared_reads"] == io["shared_reads"]
        # Real plus shared reads are the standalone cost on every path.
        assert (
            row["random_reads"] + row["sequential_reads"] + row["shared_reads"]
            == reference.io.total_reads
        )
        assert row["objects_loaded"] == io["objects_loaded"]
        assert row["objects_loaded"] == reference.io.objects_loaded
        assert row["num_results"] == record["results"]["count"]
        assert row["num_results"] == len(reference.results)
        assert span.engine_version == record["engine_version"]
        assert span.engine_version == execution.engine_version
        assert record["results"]["digest"] == result_digest(reference.results)
        assert result_digest(execution.results) == record["results"]["digest"]

    @pytest.mark.parametrize("path", ENTRY_PATHS)
    def test_engine_error_fails_alike_on_every_path(
        self, engine, workload, tmp_path, monkeypatch, path
    ):
        def explode(version, query):
            raise DeviceFaultError("disk on fire")

        query = workload.queries(1, num_keywords=2, k=5)[0]
        log = str(tmp_path / "q.jsonl")
        with QueryService(
            engine, workers=1, retries=0, query_log=log,
            batching=BatchConfig() if path == "batched" else None,
        ) as service:
            monkeypatch.setattr(EngineVersion, "search", explode)
            answer = _entry(service, path, query)
            with pytest.raises(DeviceFaultError, match="disk on fire"):
                answer()
            stats = service.stats()
        assert stats.errors == 1 and stats.queries == 0
        assert stats.metrics["counters"]["service.errors"] == 1
        (record,) = read_query_log(log)
        assert "disk on fire" in record["error"]
        assert "results" not in record
        assert (record["batch_id"] is None) == (path != "batched")
        (span,) = service.trace_spans()
        assert span.error == record["error"]


#: Wall-clock keys of the per-query views; pinned present, not by value.
_TIMING_KEYS = (
    "queue_wait_ms", "lock_wait_ms", "engine_ms", "merge_ms", "search_ms",
    "work_ms", "total_ms",
)
_LATENCY_STAGES = ("queue_wait", "lock_wait", "engine", "merge", "total")

#: Digest of every non-timing value of the four per-query views below.
VIEWS_SHA256 = "337970b35c448a447196834a8bdbcda51cf05fe77e391e3964ad08086dad2ca4"


def _keyword_pruned_query(engine, workload):
    """The first generated query that keyword routing prunes a shard for."""
    for query in workload.queries(60, num_keywords=1, k=5):
        shards = engine.search(query).shards
        if any(shard.get("pruned_by_keywords") for shard in shards):
            return query
    raise AssertionError("no generated query prunes a shard by keywords")


def _serve_and_view(engine, tmp_path, name, drive):
    """Run ``drive(service)`` on one worker; every query's four views.

    The views are the ``--serve-trace`` row, the slow-log row (every
    query is slow at ``slow_query_ms=0``), the query-log record, and the
    annotations of the span that stands for the query in its retained
    trace (None for a coalesced rider, which runs no span of its own).
    """
    log = str(tmp_path / f"{name}.jsonl")
    tracer = QueryTracer(sample_every=1, capacity=64)
    with QueryService(
        engine, workers=1, retries=1, retry_backoff_s=0.0, slow_query_ms=0.0,
        slow_log_capacity=64, tracer=tracer, query_log=log,
        batching=BatchConfig(),
    ) as service:
        drive(service)
    rows = {row["query_id"]: row for row in service.trace_log.as_dicts()}
    slow = {row["query_id"]: row for row in service.slow_log.as_dicts()}
    records = {record["query_id"]: record for record in read_query_log(log)}
    annotated = {}
    for trace in tracer.traces():
        for span in trace.spans:
            if "query_id" in span.attrs:
                annotated[span.attrs["query_id"]] = (trace.trace_id, span.attrs)
    assert set(rows) == set(slow) == set(records)
    views = []
    for qid in sorted(rows):
        row, slow_row, record = rows[qid], slow[qid], records[qid]
        trace_id = row["trace_id"]
        assert tracer.get(trace_id) is not None
        assert slow_row["trace_id"] == record["trace_id"] == trace_id
        for key in _TIMING_KEYS:
            assert isinstance(row[key], float) and row[key] >= 0.0
            assert isinstance(slow_row[key], float)
        assert sorted(record["latency_ms"]) == sorted(_LATENCY_STAGES)
        notes = None
        if qid in annotated:
            annotation_trace, attrs = annotated[qid]
            assert annotation_trace == trace_id
            assert isinstance(attrs["queue_wait_ms"], float)
            notes = {k: v for k, v in attrs.items() if k != "queue_wait_ms"}
        drop = set(_TIMING_KEYS) | {"trace_id"}
        views.append({
            "row": {k: v for k, v in row.items() if k not in drop},
            "slow": {k: v for k, v in slow_row.items() if k not in drop},
            "record": {
                k: v for k, v in record.items()
                if k not in ("latency_ms", "trace_id")
            },
            "annotations": notes,
        })
    return views


class TestOneRecordViews:
    """Every per-query view of a served query, pinned value for value."""

    def test_every_view_of_every_path_is_pinned(
        self, small_objects, tmp_path, monkeypatch
    ):
        import hashlib
        import json

        from repro.errors import TransientDeviceError
        from repro.shard import ShardedEngine

        sharded = ShardedEngine(
            n_shards=2, partitioner="keyword", index="ir2", signature_bytes=8,
        )
        sharded.add_all(small_objects)
        sharded.build()
        workload = WorkloadGenerator(small_objects, sharded.analyzer, seed=23)
        plain, failing = workload.queries(2, num_keywords=2, k=5)
        pruned = _keyword_pruned_query(sharded, workload)

        def explode(version, query):
            raise TransientDeviceError("injected transient fault")

        def drive_sharded(service):
            service.submit_many([plain, plain])[1].result()  # miss + rider
            assert service.search(plain).trace.cache == "hit"
            with monkeypatch.context() as patch:
                patch.setattr(EngineVersion, "search", explode)
                futures = service.submit_many([failing, failing])
                for future in futures:
                    with pytest.raises(TransientDeviceError):
                        future.result()
            service.search(pruned)

        auto = SpatialKeywordEngine(index="auto", signature_bytes=8)
        auto.add_all(small_objects)
        auto.build()
        (planned,) = WorkloadGenerator(
            small_objects, auto.analyzer, seed=5
        ).queries(1, num_keywords=1, k=5)

        views = _serve_and_view(sharded, tmp_path, "sharded", drive_sharded)
        views += _serve_and_view(
            auto, tmp_path, "auto", lambda service: service.search(planned)
        )
        caches = [view["row"]["cache"] for view in views]
        assert caches == ["miss", "coalesced", "hit", "miss", "coalesced",
                          "miss", "miss"]
        assert views[3]["row"]["retries"] == 1
        assert views[4]["row"]["error"] == views[3]["row"]["error"]
        assert views[5]["record"]["fanout"]["pruned_by_keywords"] == 1
        assert views[6]["row"]["strategy"] is not None
        for view in views:
            assert view["row"] == view["slow"]
        payload = json.dumps(views, sort_keys=True, default=list)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        assert digest == VIEWS_SHA256


class TestResultCacheUnit:
    def test_lru_eviction(self):
        cache = QueryResultCache(capacity=2)
        queries = [
            SpatialKeywordQuery.of((i, i), ["w"], k=1) for i in range(3)
        ]
        from repro.core.query import QueryExecution

        for q in queries:
            cache.put(q, QueryExecution(query=q, results=[]), version=0)
        assert len(cache) == 2
        assert queries[0] not in cache
        assert queries[2] in cache

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QueryResultCache(capacity=0)

    def test_hit_rate(self):
        cache = QueryResultCache(capacity=4)
        q = SpatialKeywordQuery.of((0, 0), ["w"], k=1)
        assert cache.get(q, version=0) is None
        from repro.core.query import QueryExecution

        cache.put(q, QueryExecution(query=q, results=[]), version=0)
        assert cache.get(q, version=0) is not None
        assert cache.hit_rate == 0.5


class TestFaultHandling:
    """Transient retries and degraded-execution semantics in the service."""

    def test_transient_engine_fault_is_retried_to_success(self, engine):
        from repro.errors import TransientDeviceError

        real_search = engine.search
        calls = []

        def flaky(query):
            calls.append(1)
            if len(calls) == 1:
                raise TransientDeviceError("blip")
            return real_search(query)

        engine.search = flaky
        with QueryService(engine, workers=2, retry_backoff_s=0.0) as service:
            execution = search(service, (0.0, 0.0), ["hotel"], k=3)
            assert len(calls) == 2
            assert service.stats().errors == 0
        reference = real_search(
            SpatialKeywordQuery.of((0.0, 0.0), ["hotel"], 3)
        )
        assert execution.oids == reference.oids

    def test_permanent_fault_surfaces_and_is_counted(self, engine):
        from repro.errors import DeviceFaultError

        def broken(query):
            raise DeviceFaultError("dead sector")

        engine.search = broken
        with QueryService(engine, workers=2, retry_backoff_s=0.0) as service:
            with pytest.raises(DeviceFaultError):
                search(service, (0.0, 0.0), ["hotel"], k=3)
            assert service.stats().errors == 1

    def degraded_setup(self, small_objects):
        from repro.shard import PARTIAL, ShardedEngine
        from repro.storage import inject_engine_faults

        sharded = ShardedEngine(
            n_shards=3, index="ir2", signature_bytes=8,
            failure_policy=PARTIAL,
        )
        sharded.add_all(small_objects)
        sharded.build()
        plans = [
            inject_engine_faults(shard, read_error_rate=1.0)
            for shard in sharded.shards
        ]
        return sharded, plans

    def test_degraded_execution_is_counted_and_never_cached(
        self, small_objects
    ):
        sharded, plans = self.degraded_setup(small_objects)
        term = sorted(sharded._global_vocabulary().terms())[0]
        with QueryService(sharded, workers=2) as service:
            degraded = search(service, (50.0, 50.0), [term], k=5)
            assert degraded.degraded
            stats = service.stats()
            assert stats.degraded == 1
            assert stats.cache_misses == 1
            # The fault clears; the same query must re-execute in full,
            # not replay the partial answer from the cache.
            for plan in plans:
                plan.disarm()
            healed = search(service, (50.0, 50.0), [term], k=5)
            assert not healed.degraded
            stats = service.stats()
            assert stats.cache_hits == 0 and stats.cache_misses == 2
            # The full answer *is* cacheable: third time is a hit.
            again = search(service, (50.0, 50.0), [term], k=5)
            assert again.oids == healed.oids
            assert service.stats().cache_hits == 1
            assert service.stats().degraded == 1
