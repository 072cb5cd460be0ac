"""The observability layer: metrics primitives, slow log, exporters.

Covers the :mod:`repro.obs` primitives in isolation (counter/gauge/
histogram semantics, quantile interpolation, registry name binding,
snapshot merging, slow-log displacement) and the integration points:
the service's per-stage histograms and cache counters, the sharded
engine's fan-out counters, storage gauges, and the two JSON surfaces
(``QueryService.export_metrics`` and the ``repro metrics`` CLI).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.obs import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_MS,
    MetricsRegistry,
    SlowQueryLog,
    export_engine,
    merge_snapshots,
    metric_token,
)
from repro.serve import QueryService
from repro.shard import ShardedEngine


def search(service, point, keywords, k=10):
    """Synchronous point query through the redesigned submission API."""
    return service.search(SpatialKeywordQuery.of(point, keywords, k))


def small_objects(n=30):
    from repro.model import SpatialObject

    themes = ["cafe wifi", "cafe garden", "bar cafe", "pizza cafe"]
    return [
        SpatialObject(i, (float(i % 6), float(i // 6)), themes[i % len(themes)])
        for i in range(n)
    ]


class TestCounterGauge:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_overwrites(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_concurrent_increments_are_exact(self):
        counter = Counter("c")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestHistogram:
    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_exact_stats(self):
        hist = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 2.0, 2.0, 50.0, 500.0):
            hist.observe(v)
        assert hist.count == 5
        assert hist.sum == pytest.approx(554.5)
        d = hist.as_dict()
        assert d["min"] == 0.5
        assert d["max"] == 500.0
        assert d["overflow"] == 1
        assert [b["count"] for b in d["buckets"]] == [1, 2, 1]

    def test_single_observation_quantiles_are_exact(self):
        hist = Histogram("h")
        hist.observe(7.3)
        assert hist.quantile(0.5) == pytest.approx(7.3)
        assert hist.quantile(0.99) == pytest.approx(7.3)

    def test_quantiles_stay_in_observed_range(self):
        hist = Histogram("h", buckets=(10.0, 100.0, 1000.0))
        for v in (12.0, 14.0, 15.0, 90.0):
            hist.observe(v)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert 12.0 <= hist.quantile(q) <= 90.0

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_empty_histogram(self):
        hist = Histogram("h")
        assert hist.quantile(0.5) == 0.0
        d = hist.as_dict()
        assert d["count"] == 0 and d["min"] == 0.0 and d["max"] == 0.0

    def test_median_of_uniform_values(self):
        hist = Histogram("h", buckets=tuple(float(b) for b in range(1, 101)))
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.quantile(0.5) == pytest.approx(50.0, abs=2.0)
        assert hist.quantile(0.95) == pytest.approx(95.0, abs=2.0)


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_name_kind_binding_enforced(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_snapshot_shape_and_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(0.5)
        registry.histogram("h", buckets=COUNT_BUCKETS).observe(3)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 0.5}
        assert snap["histograms"]["h"]["count"] == 1
        json.dumps(snap)  # must be JSON-clean
        out = tmp_path / "m.json"
        registry.dump_json(str(out), extra={"run": "test"})
        loaded = json.loads(out.read_text())
        assert loaded["run"] == "test"
        assert loaded["metrics"]["counters"]["c"] == 2
        assert registry.names() == ["c", "g", "h"]

    def test_merge_snapshots(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, n in ((a, 2), (b, 3)):
            registry.counter("c").inc(n)
            registry.histogram("h", buckets=(1.0, 10.0)).observe(float(n))
            registry.gauge("g").set(float(n))
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["c"] == 5
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["sum"] == pytest.approx(5.0)
        assert "p50" not in merged["histograms"]["h"]
        assert merged["gauges"]["g"] == 3.0

    def test_merge_rejects_mismatched_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(1)
        b.histogram("h", buckets=(1.0, 3.0)).observe(1)
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])


class FakeSpan:
    def __init__(self, total_ms):
        self.total_ms = total_ms

    def as_dict(self):
        return {"total_ms": self.total_ms}


class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_ms=10.0, capacity=4)
        assert not log.offer(FakeSpan(5.0))
        assert log.offer(FakeSpan(15.0))
        assert len(log) == 1
        assert log.observed == 2

    def test_keeps_the_worst_when_full(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=3)
        for ms in (10.0, 30.0, 20.0, 5.0, 40.0):
            log.offer(FakeSpan(ms))
        kept = [span.total_ms for span in log.spans()]
        assert kept == [40.0, 30.0, 20.0]

    def test_as_dicts_slowest_first(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=8)
        for ms in (1.0, 9.0, 4.0):
            log.offer(FakeSpan(ms))
        assert [row["total_ms"] for row in log.as_dicts()] == [9.0, 4.0, 1.0]

    def test_clear(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=2)
        log.offer(FakeSpan(1.0))
        log.clear()
        assert len(log) == 0 and log.observed == 0

    def test_validates_args(self):
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_ms=-1.0)
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)


class TestExporters:
    def test_metric_token_sanitizes(self):
        assert metric_token("lru(ir2-index)") == "lru_ir2_index"
        assert metric_token("???") == "device"

    def test_export_single_engine(self):
        registry = MetricsRegistry()
        engine = SpatialKeywordEngine(index="ir2")
        engine.add_all(small_objects())
        engine.build()
        engine.query((0.0, 0.0), ["cafe"], k=3)
        export_engine(registry, engine)
        gauges = registry.snapshot()["gauges"]
        read_gauges = [n for n in gauges if n.endswith(".io.random_reads")]
        assert read_gauges, gauges.keys()
        assert any(gauges[n] > 0 for n in read_gauges)

    def test_export_sharded_engine(self):
        registry = MetricsRegistry()
        engine = ShardedEngine(n_shards=2, index="ir2")
        engine.add_all(small_objects())
        engine.build()
        engine.query((0.0, 0.0), ["cafe"], k=3)
        export_engine(registry, engine)
        gauges = registry.snapshot()["gauges"]
        assert "storage.all_shards.io.random_reads" in gauges
        assert any(n.startswith("storage.shard0.") for n in gauges)
        assert any(n.startswith("storage.shard1.") for n in gauges)

    def test_export_object_intern_drops_follow_copies(self, monkeypatch):
        from repro.persist import copy_built_engine
        from repro.storage import objectstore

        monkeypatch.setattr(objectstore, "INTERN_CAPACITY", 2)
        registry = MetricsRegistry()
        engine = SpatialKeywordEngine(index="ir2")
        engine.add_all(small_objects())
        engine.build()
        engine.query((0.0, 0.0), ["cafe"], k=5)
        dropped = engine.corpus.store.intern.dropped
        assert dropped > 0
        export_engine(registry, engine)
        counters = registry.snapshot()["counters"]
        assert counters["storage.object_intern.dropped"] == dropped
        # Copies (incremental merges) and rebuilds (full merges) keep the
        # map, so its drop count, and the counter, only grow.
        for clone in (copy_built_engine(engine), engine.clone_empty()):
            assert clone.corpus.store.intern is engine.corpus.store.intern
        copy = copy_built_engine(engine)
        copy.query((5.0, 4.0), ["cafe"], k=5)
        export_engine(registry, copy)
        counters = registry.snapshot()["counters"]
        assert counters["storage.object_intern.dropped"] == copy.corpus.store.intern.dropped
        assert copy.corpus.store.intern.dropped > dropped

    def test_sharded_rebuild_keeps_shard_intern_maps(self):
        engine = ShardedEngine(n_shards=2, index="ir2")
        clone = engine.clone_empty()
        for old, new in zip(engine.shards, clone.shards):
            assert new.corpus.store.intern is old.corpus.store.intern


class TestServiceIntegration:
    @pytest.fixture()
    def service(self):
        engine = SpatialKeywordEngine(index="ir2")
        engine.add_all(small_objects())
        engine.build()
        with QueryService(engine, workers=2, slow_query_ms=0.0) as svc:
            yield svc

    def test_per_stage_histograms_and_counters(self, service):
        for _ in range(3):
            search(service, (0.0, 0.0), ["cafe"], k=3)
        search(service, (5.0, 4.0), ["garden"], k=2)
        stats = service.stats()
        snap = stats.metrics
        assert snap["counters"]["service.queries"] == 4
        assert snap["counters"]["service.cache.miss"] == 2
        assert snap["counters"]["service.cache.hit"] == 2
        for name in (
            "service.queue_wait_ms",
            "service.lock_wait_ms",
            "service.search_ms",
            "service.merge_ms",
            "service.total_ms",
            "service.reads_per_query",
        ):
            assert snap["histograms"][name]["count"] == 4, name
        # Stage timings nest inside the total.
        total = snap["histograms"]["service.total_ms"]["sum"]
        stages = sum(
            snap["histograms"][n]["sum"]
            for n in ("service.lock_wait_ms", "service.search_ms",
                      "service.merge_ms")
        )
        assert stages <= total + 1e-6

    def test_slow_log_collects_spans(self, service):
        search(service, (0.0, 0.0), ["cafe"], k=3)
        slow = service.slow_queries()
        assert slow and slow[0].query.keywords == ("cafe",)

    def test_export_metrics_json(self, service, tmp_path):
        search(service, (0.0, 0.0), ["cafe"], k=3)
        out = tmp_path / "metrics.json"
        service.export_metrics(str(out))
        payload = json.loads(out.read_text())
        assert payload["service"]["queries"] == 1
        assert "service.total_ms" in payload["metrics"]["histograms"]
        assert payload["slow_queries"]

    def test_shared_registry_receives_fanout_counters(self):
        engine = ShardedEngine(n_shards=2, index="ir2")
        engine.add_all(small_objects())
        engine.build()
        registry = MetricsRegistry()
        with QueryService(engine, workers=2, metrics=registry) as service:
            assert engine.metrics is registry
            search(service, (0.0, 0.0), ["cafe"], k=3)
        counters = registry.snapshot()["counters"]
        assert counters["shard.fanout.queries"] == 1
        assert (
            counters.get("shard.fanout.searched", 0)
            + counters.get("shard.fanout.pruned", 0)
        ) == 2

    def test_engine_registry_is_not_replaced(self):
        engine = ShardedEngine(n_shards=2, index="ir2")
        engine.add_all(small_objects())
        engine.build()
        own = MetricsRegistry()
        engine.metrics = own
        with QueryService(engine, workers=1) as service:
            assert engine.metrics is own
            assert service.metrics is not own

    def test_retry_counter(self):
        from repro.errors import TransientDeviceError
        from repro.storage.faults import inject_engine_faults

        engine = SpatialKeywordEngine(index="ir2")
        engine.add_all(small_objects())
        engine.build()
        plan = inject_engine_faults(
            engine, fail_read_at=(0,), transient=True, max_failures=1
        )
        with QueryService(engine, workers=1, cache=False) as service:
            execution = search(service, (0.0, 0.0), ["cafe"], k=3)
        assert execution.results
        assert plan.failures_injected == 1
        stats = service.stats()
        assert stats.retries == 1
        assert stats.metrics["counters"]["service.retries"] == 1
        assert execution.trace.retries == 1


class TestMetricsCli:
    def test_metrics_subcommand(self, tmp_path, capsys):
        from repro.cli import main
        from repro.persist import save_engine

        engine = SpatialKeywordEngine(index="ir2")
        engine.add_all(small_objects())
        engine.build()
        engine_dir = tmp_path / "engine"
        save_engine(engine, str(engine_dir))
        out = tmp_path / "metrics.json"
        code = main([
            "metrics", str(engine_dir), "--queries", "8", "--workers", "2",
            "--out", str(out),
        ])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(out.read_text())
        assert printed == saved
        assert saved["probe_queries"] == 8
        assert saved["metrics"]["counters"]["service.queries"] == 8
        assert "service.total_ms" in saved["metrics"]["histograms"]

    def test_serve_metrics_flag(self, tmp_path):
        from repro.cli import main
        from repro.persist import save_engine

        engine = SpatialKeywordEngine(index="ir2")
        engine.add_all(small_objects())
        engine.build()
        engine_dir = tmp_path / "engine"
        save_engine(engine, str(engine_dir))
        out = tmp_path / "serve-metrics.json"
        code = main([
            "serve", "--engine", str(engine_dir), "--queries", "8",
            "--workers", "2", "--serve-metrics", str(out),
            "--slow-query-ms", "0",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["service"]["queries"] == 8
        assert payload["slow_queries"]
        assert "service.search_ms" in payload["metrics"]["histograms"]
