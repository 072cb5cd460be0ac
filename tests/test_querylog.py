"""Workload capture, analysis, and deterministic replay tests.

Covers the :mod:`repro.obs.querylog` writer discipline (sampling,
rotation, bounded-queue drops, crash tolerance), the digest-exact
replay gate across engine configurations, the workload analysis report
and its schema validation, Prometheus metrics exposition, the
answer-at-version API, and the end-to-end observability reconciliation
under combined batched + snapshot-maintenance + sharded traffic.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.core.ranking import DistanceDecayRanking
from repro.bench.workloads import ConcurrentLoadGenerator, WorkloadGenerator
from repro.errors import (
    DeviceFaultError,
    ReproError,
    ServiceError,
    VersionRetiredError,
)
from repro.obs import MetricsRegistry
from repro.obs.export import render_prometheus
from repro.obs.querylog import (
    QueryLogError,
    QueryLogWriter,
    build_record,
    iter_query_log,
    query_log_paths,
    read_query_log,
    result_digest,
)
from repro.obs.replay import ReplayError, replay_query_log
from repro.obs.trace import QueryTracer
from repro.obs.workload import (
    analyze_query_log,
    render_workload_report,
    validate_workload_report,
)
from repro.serve import BatchConfig, EngineVersion, QueryService, TraceSpan
from repro.shard import ShardedEngine


@pytest.fixture
def engine(small_objects) -> SpatialKeywordEngine:
    eng = SpatialKeywordEngine(index="ir2", signature_bytes=8)
    eng.add_all(small_objects)
    eng.build()
    return eng


@pytest.fixture
def workload(small_objects, engine) -> ConcurrentLoadGenerator:
    return ConcurrentLoadGenerator(
        small_objects, engine.corpus.analyzer, seed=17
    )


def _span(query_id: int = 0, execution=None) -> TraceSpan:
    """A finished service record; answered when ``execution`` is given."""
    span = TraceSpan(query_id=query_id)
    if execution is not None:
        span.query, span.execution = execution.query, execution
    span.submitted_at = 1.0
    span.started_at = 1.001
    span.lock_acquired_at = 1.002
    span.search_done_at = 1.010
    span.finished_at = 1.011
    return span


def _mixed_queries(workload, count=60):
    return workload.mixed_batch(
        count,
        num_keywords=2,
        k=5,
        hot_fraction=0.2,
        area_fraction=0.2,
        ranked_fraction=0.2,
        ranking=DistanceDecayRanking(half_distance=5.0),
    )


class TestQueryLogWriter:
    def test_capture_and_read_back(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with QueryLogWriter(path) as log:
            for i in range(5):
                assert log.offer(_span(i)) is True
            log.drain()
        records = read_query_log(path)
        assert [r["query_id"] for r in records] == list(range(5))
        assert all(r["schema"] == 1 for r in records)
        assert all("latency_ms" in r for r in records)

    def test_sampling_counts(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with QueryLogWriter(path, sample_every=3) as log:
            for i in range(10):
                log.offer(_span(i))
            log.drain()
            assert log.seen == 10
            assert log.sampled == 4  # offers 0, 3, 6, 9
        assert [r["query_id"] for r in read_query_log(path)] == [0, 3, 6, 9]

    def test_size_based_rotation_preserves_order(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with QueryLogWriter(path, max_segment_bytes=600) as log:
            for i in range(40):
                log.offer(_span(i))
            log.drain()
            assert log.rotations > 0
        segments = query_log_paths(path)
        assert len(segments) > 1
        assert segments[-1] == path  # active segment reads last
        records = read_query_log(path)
        assert [r["query_id"] for r in records] == list(range(40))

    def test_final_segment_stays_at_path_when_it_fills_exactly(self, tmp_path):
        # Query ids 10..29 all print with two digits, so every record
        # line has the one length measured here.
        probe = str(tmp_path / "probe.jsonl")
        with QueryLogWriter(probe) as log:
            log.offer(_span(10))
            log.drain()
        line_bytes = os.path.getsize(probe)
        path = str(tmp_path / "q.jsonl")
        with QueryLogWriter(path, max_segment_bytes=5 * line_bytes) as log:
            for i in range(10, 30):
                log.offer(_span(i))
            log.drain()
        assert os.path.getsize(path) == 5 * line_bytes
        segments = query_log_paths(path)
        assert len(segments) == 4 and segments[-1] == path
        records = read_query_log(path)
        assert [r["query_id"] for r in records] == list(range(10, 30))

    def test_full_queue_drops_and_counts(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        metrics = MetricsRegistry()
        # No drain thread: the bounded queue fills after one record.
        log = QueryLogWriter(path, max_queue=1, metrics=metrics, autostart=False)
        assert log.offer(_span(0)) is True
        assert log.offer(_span(1)) is False
        assert log.dropped == 1
        assert metrics.snapshot()["counters"]["querylog.dropped"] == 1

    def test_leftover_active_segment_rotates_not_overwrites(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with QueryLogWriter(path) as log:
            log.offer(_span(0))
            log.drain()
        with QueryLogWriter(path) as log:
            log.offer(_span(1))
            log.drain()
        records = read_query_log(path)
        assert [r["query_id"] for r in records] == [0, 1]

    def test_crash_truncated_final_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with QueryLogWriter(path) as log:
            log.offer(_span(0))
            log.drain()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": 1, "query_id"')  # torn mid-append
        assert [r["query_id"] for r in read_query_log(path)] == [0]

    def test_malformed_interior_line_raises(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        record = json.dumps(build_record(_span(0)))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json\n" + record + "\n")
        with pytest.raises(QueryLogError):
            read_query_log(path)

    def test_missing_log_raises(self, tmp_path):
        with pytest.raises(QueryLogError):
            list(iter_query_log(str(tmp_path / "absent.jsonl")))

    def test_invalid_configuration_rejected(self, tmp_path):
        with pytest.raises(QueryLogError):
            QueryLogWriter(str(tmp_path / "q"), sample_every=0)
        with pytest.raises(QueryLogError):
            QueryLogWriter(str(tmp_path / "q"), max_segment_bytes=0)


class TestCaptureThroughService:
    def test_every_query_appends_one_record(self, engine, workload, tmp_path):
        path = str(tmp_path / "q.jsonl")
        queries = _mixed_queries(workload, 40)
        with QueryService(engine, workers=2, query_log=path) as service:
            executions = service.run_batch(queries)
            stats = service.stats()
        records = read_query_log(path)
        assert len(records) == stats.queries == len(queries)
        by_id = {e.trace.query_id: e for e in executions}
        for record in records:
            execution = by_id[record["query_id"]]
            assert record["results"]["digest"] == result_digest(
                execution.results
            )
            assert record["results"]["oids"] == execution.oids
            assert record["io"]["random_reads"] == execution.io.random_reads
            assert record["io"]["shared_reads"] == execution.io.shared_reads
            assert record["engine_version"] == execution.engine_version
            assert record["query"]["k"] == execution.query.k

    def test_sampled_capture(self, engine, workload, tmp_path):
        path = str(tmp_path / "q.jsonl")
        queries = workload.queries(20, num_keywords=2, k=5)
        with QueryService(
            engine, workers=1, query_log=path, query_log_sample=4
        ) as service:
            service.run_batch(queries)
            assert service.query_log.seen == 20
            assert service.query_log.sampled == 5
        assert len(read_query_log(path)) == 5

    def test_shared_writer_is_not_closed_by_service(
        self, engine, workload, tmp_path
    ):
        path = str(tmp_path / "q.jsonl")
        writer = QueryLogWriter(path)
        queries = workload.queries(4, num_keywords=2, k=5)
        with QueryService(engine, workers=1, query_log=writer) as service:
            service.run_batch(queries)
        writer.drain()
        assert writer.offer(_span(99)) is True  # still open
        writer.close()
        assert len(read_query_log(path)) == 5

    def test_failed_query_records_error_and_shape(
        self, engine, workload, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "q.jsonl")
        query = workload.queries(1, num_keywords=2, k=5)[0]

        def explode(version, q):
            raise DeviceFaultError("disk on fire")

        with QueryService(
            engine, workers=1, retries=0, query_log=path,
        ) as service:
            monkeypatch.setattr(EngineVersion, "search", explode)
            with pytest.raises(DeviceFaultError):
                service.search(query)
        records = read_query_log(path)
        assert len(records) == 1
        assert "disk on fire" in records[0]["error"]
        assert records[0]["query"]["keywords"] == list(query.keywords)
        assert "results" not in records[0]

    def test_batched_capture_runs_after_trace_linkage(
        self, engine, workload, tmp_path
    ):
        path = str(tmp_path / "q.jsonl")
        queries = workload.queries(12, num_keywords=2, k=5)
        tracer = QueryTracer(sample_every=1)
        with QueryService(
            engine, workers=2, tracer=tracer,
            batching=BatchConfig(window_ms=1.0, max_batch=4),
            query_log=path,
        ) as service:
            service.run_batch(queries)
        records = read_query_log(path)
        assert len(records) == len(queries)
        assert all(r["batch_id"] is not None for r in records)
        assert all(r["trace_id"] is not None for r in records)


class TestDeterministicReplay:
    def test_replay_reproduces_every_digest(
        self, small_objects, engine, workload, tmp_path
    ):
        path = str(tmp_path / "q.jsonl")
        queries = _mixed_queries(workload, 60)
        with QueryService(engine, workers=1, query_log=path) as service:
            for query in queries:
                service.search(query)
        records = read_query_log(path)

        fresh = SpatialKeywordEngine(index="ir2", signature_bytes=8)
        fresh.add_all(small_objects)
        fresh.build()
        report = replay_query_log(records, fresh)
        assert report["mismatch_count"] == 0
        assert report["replayed"] == len(queries)
        assert report["ok"] is True

    def test_replay_matches_across_shard_configs(
        self, small_objects, engine, workload, tmp_path
    ):
        """Digests captured unsharded reproduce on 2- and 3-shard layouts."""
        path = str(tmp_path / "q.jsonl")
        queries = _mixed_queries(workload, 50)
        with QueryService(engine, workers=1, query_log=path) as service:
            for query in queries:
                service.search(query)
        records = read_query_log(path)
        for n_shards, partitioner in ((2, "kd"), (3, "keyword")):
            sharded = ShardedEngine(
                n_shards=n_shards, partitioner=partitioner,
                index="ir2", signature_bytes=8,
            )
            sharded.add_all(small_objects)
            sharded.build()
            report = replay_query_log(records, sharded, io_threshold=None)
            assert report["mismatch_count"] == 0, (n_shards, partitioner)
            assert report["ok"] is True

    def test_batched_replay_matches_serial_capture(
        self, small_objects, engine, workload, tmp_path
    ):
        path = str(tmp_path / "q.jsonl")
        queries = _mixed_queries(workload, 30)
        with QueryService(engine, workers=1, query_log=path) as service:
            for query in queries:
                service.search(query)
        records = read_query_log(path)
        fresh = SpatialKeywordEngine(index="ir2", signature_bytes=8)
        fresh.add_all(small_objects)
        fresh.build()
        report = replay_query_log(records, fresh, batched=True, max_batch=8)
        assert report["mismatch_count"] == 0
        assert report["batched"] is True

    def test_corpus_drift_is_detected(self, small_objects, workload, tmp_path):
        """Replaying against a different corpus fails the gate."""
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=8)
        engine.add_all(small_objects)
        engine.build()
        path = str(tmp_path / "q.jsonl")
        queries = workload.queries(20, num_keywords=1, k=5)
        with QueryService(engine, workers=1, query_log=path) as service:
            for query in queries:
                service.search(query)
        records = read_query_log(path)
        drifted = SpatialKeywordEngine(index="ir2", signature_bytes=8)
        drifted.add_all(small_objects[: len(small_objects) // 2])
        drifted.build()
        report = replay_query_log(records, drifted, io_threshold=None)
        assert report["mismatch_count"] > 0
        assert report["ok"] is False
        assert report["mismatches"]  # carries concrete examples

    def test_error_and_custom_ranking_records_are_skipped(self, engine):
        span = _span(0)
        span.error = "ValueError: boom"
        error_record = build_record(span)
        custom = SpatialKeywordQuery.of(
            (0.0, 0.0), ["café"], 2, ranking=lambda d, ir: d
        )
        execution = engine.search(
            SpatialKeywordQuery.of((0.0, 0.0), ["café"], 2)
        )
        good_record = build_record(_span(1, execution))
        custom_span = _span(2, execution)
        custom_span.query = custom
        custom_record = build_record(custom_span)
        assert custom_record["query"]["ranking"] == {"kind": "custom"}
        report = replay_query_log(
            [error_record, good_record, custom_record], engine,
            io_threshold=None,
        )
        assert report["skipped"]["errors"] == 1
        assert report["skipped"]["unreplayable"] == 1
        assert report["replayed"] == 1

    def test_empty_log_raises(self, engine):
        with pytest.raises(ReplayError):
            replay_query_log([], engine)


class TestWorkloadReport:
    def test_analysis_reconciles_with_the_log(
        self, engine, workload, tmp_path
    ):
        path = str(tmp_path / "q.jsonl")
        queries = _mixed_queries(workload, 60)
        with QueryService(engine, workers=1, query_log=path) as service:
            for query in queries:
                service.search(query)
        records = read_query_log(path)
        report = analyze_query_log(records)
        validate_workload_report(report)
        shapes = report["shapes"]
        assert report["records"] == len(records)
        assert (
            shapes["point"] + shapes["area"] + shapes["ranked"]
            == report["queries"]
        )
        assert shapes["area"] > 0 and shapes["ranked"] > 0
        assert report["io"]["total_reads"] == sum(
            r["io"]["random_reads"] + r["io"]["sequential_reads"]
            for r in records
        )
        assert report["terms"]["frequency"]  # non-empty term table
        assert report["hotspots"]["grid"]["total"] > 0
        rendered = render_workload_report(report)
        assert "shapes:" in rendered and "selectivity bands:" in rendered

    def test_validation_rejects_corrupted_reports(
        self, engine, workload, tmp_path
    ):
        path = str(tmp_path / "q.jsonl")
        with QueryService(engine, workers=1, query_log=path) as service:
            for query in workload.queries(5, num_keywords=1, k=3):
                service.search(query)
        report = analyze_query_log(read_query_log(path))
        report["shapes"]["point"] += 1  # break the shape identity
        with pytest.raises(ReproError):
            validate_workload_report(report)
        del report["shapes"]
        with pytest.raises(ReproError):
            validate_workload_report(report)


class TestPrometheusExposition:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("service.queries").inc(7)
        registry.gauge("service.queue_depth").set(3)
        hist = registry.histogram("service.total_ms", buckets=[1.0, 10.0])
        for value in (0.5, 0.7, 5.0, 50.0):
            hist.observe(value)
        text = render_prometheus(registry.snapshot())
        lines = text.splitlines()
        assert "# TYPE repro_service_queries counter" in lines
        assert "repro_service_queries 7" in lines
        assert "repro_service_queue_depth 3" in lines
        # Buckets are cumulative and close with +Inf.
        assert 'repro_service_total_ms_bucket{le="1"} 2' in lines
        assert 'repro_service_total_ms_bucket{le="10"} 3' in lines
        assert 'repro_service_total_ms_bucket{le="+Inf"} 4' in lines
        assert "repro_service_total_ms_count 4" in lines
        assert any(
            line.startswith("repro_service_total_ms_sum ") for line in lines
        )
        assert text.endswith("\n")

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""

    def test_service_export(self, engine, workload, tmp_path):
        queries = workload.queries(8, num_keywords=2, k=5)
        out = tmp_path / "metrics.prom"
        with QueryService(engine, workers=1) as service:
            service.run_batch(queries)
            text = service.export_metrics(str(out), fmt="prometheus")
        assert "repro_service_queries 8" in text
        assert out.read_text() == text
        with QueryService(engine, workers=1) as service:
            with pytest.raises(ServiceError):
                service.export_metrics(fmt="yaml")

    def test_json_export_still_returns_payload(self, engine, workload):
        queries = workload.queries(4, num_keywords=2, k=5)
        with QueryService(engine, workers=1) as service:
            service.run_batch(queries)
            payload = json.loads(service.export_metrics())
        assert payload["service"]["queries"] == 4
        assert "metrics" in payload and "slow_queries" in payload


class TestAnswerAtVersion:
    def test_old_version_still_sees_deleted_object(self, engine, workload):
        query = workload.queries(1, num_keywords=1, k=3)[0]
        with QueryService(engine, workers=1) as service:
            before = service.search(query)
            assert before.results, "need a non-empty answer to pin"
            v0 = service.engine_version
            victim = before.results[0].obj.oid
            assert service.delete(victim) is True
            service.flush()
            current = service.search(query)
            assert victim not in current.oids
            pinned = service.search(query, at_version=v0)
            assert pinned.engine_version == v0
            assert pinned.oids == before.oids

    def test_retired_version_raises_typed_error(self, small_objects):
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=8)
        engine.add_all(small_objects)
        engine.build()
        query = SpatialKeywordQuery.of((0.0, 0.0), ["café"], 2)
        with QueryService(engine, workers=1) as service:
            window = service.maintainer.version_window
            donor = small_objects[0]
            for i in range(window + 2):
                service.add_object(10_000 + i, donor.point, donor.text)
            retained = service.maintainer.retained_versions()
            assert len(retained) <= window
            with pytest.raises(VersionRetiredError) as excinfo:
                service.search(query, at_version=0)
            assert excinfo.value.requested == 0
            assert excinfo.value.oldest == retained[0]
            # Every retained version still answers.
            execution = service.search(query, at_version=retained[0])
            assert execution.engine_version == retained[0]


class TestPrunedByKeywordsPropagation:
    @pytest.fixture
    def keyword_sharded(self, small_objects) -> ShardedEngine:
        sharded = ShardedEngine(
            n_shards=3, partitioner="keyword", index="ir2", signature_bytes=8
        )
        sharded.add_all(small_objects)
        sharded.build()
        return sharded

    def test_span_slowlog_and_record_agree(
        self, keyword_sharded, small_objects, tmp_path
    ):
        path = str(tmp_path / "q.jsonl")
        workload = WorkloadGenerator(
            small_objects, keyword_sharded.analyzer, seed=23
        )
        queries = workload.queries(30, num_keywords=1, k=5)
        with QueryService(
            keyword_sharded, workers=1, slow_query_ms=0.0,
            slow_log_capacity=64, query_log=path,
        ) as service:
            executions = service.run_batch(queries)
            slow_rows = {
                row["query_id"]: row for row in service.slow_log.as_dicts()
            }
        records = {r["query_id"]: r for r in read_query_log(path)}
        pruned_total = 0
        for execution in executions:
            span = execution.trace
            expected = sum(
                1 for s in execution.shards or []
                if s.get("pruned_by_keywords")
            )
            assert span.as_dict()["pruned_by_keywords"] == expected
            assert (
                slow_rows[span.query_id]["pruned_by_keywords"] == expected
            )
            record = records[span.query_id]
            assert record["fanout"]["pruned_by_keywords"] == expected
            assert record["batch_id"] == slow_rows[span.query_id]["batch_id"]
            pruned_total += expected
        assert pruned_total > 0, "workload never exercised keyword pruning"


class TestObservabilityReconciliation:
    def test_batched_snapshot_sharded_traffic_reconciles(
        self, small_objects, tmp_path
    ):
        """Records, spans, metrics, and IOStats agree element-wise."""
        sharded = ShardedEngine(
            n_shards=2, partitioner="kd", index="ir2", signature_bytes=8
        )
        sharded.add_all(small_objects)
        sharded.build()
        workload = WorkloadGenerator(
            small_objects, sharded.analyzer, seed=31
        )
        queries = workload.queries(36, num_keywords=2, k=5)
        path = str(tmp_path / "q.jsonl")
        tracer = QueryTracer(sample_every=1)
        donor = small_objects[0]
        with QueryService(
            sharded, workers=2, tracer=tracer,
            batching=BatchConfig(window_ms=1.0, max_batch=6),
            query_log=path,
        ) as service:
            executions = []
            for start in range(0, len(queries), 12):
                executions.extend(
                    service.run_batch(queries[start:start + 12])
                )
                # Interleave maintenance so versions advance mid-stream.
                service.add_object(20_000 + start, donor.point, donor.text)
                service.delete(20_000 + start)
            service.query_log.drain()  # let the writer thread catch up
            stats = service.stats()
            span_count = len(service.trace_log)
        records = read_query_log(path)

        assert len(records) == stats.queries == len(executions) == span_count
        by_id = {e.trace.query_id: e for e in executions}
        total = {"random_reads": 0, "sequential_reads": 0,
                 "shared_reads": 0, "objects_loaded": 0}
        for record in records:
            execution = by_id[record["query_id"]]
            io = record["io"]
            assert io["random_reads"] == execution.io.random_reads
            assert io["sequential_reads"] == execution.io.sequential_reads
            assert io["shared_reads"] == execution.io.shared_reads
            assert io["objects_loaded"] == execution.io.objects_loaded
            assert record["batch_id"] == execution.trace.batch_id
            assert record["engine_version"] == execution.engine_version
            for key in total:
                total[key] += io[key]
        assert total["random_reads"] == stats.io.random_reads
        assert total["sequential_reads"] == stats.io.sequential_reads
        assert total["shared_reads"] == stats.io.shared_reads
        assert total["objects_loaded"] == stats.io.objects_loaded
        counters = stats.metrics["counters"]
        assert counters["service.queries"] == stats.queries
        assert counters["querylog.records"] == len(records)
        assert (
            stats.metrics["histograms"]["service.total_ms"]["count"]
            == stats.queries
        )
