"""Tests for the experiment harness (small scale, fast)."""

from __future__ import annotations

import pytest

from repro.bench import ExperimentContext, get_context, run_sweep
from repro.bench.harness import MetricsRow, bench_scale, queries_per_point
from repro.bench.workloads import with_k


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(
        "restaurants", scale=0.001, signature_bytes=8, algorithms=("IIO", "IR2")
    )


class TestContext:
    def test_builds_requested_algorithms_only(self, context):
        assert set(context.indexes) == {"IIO", "IR2"}

    def test_io_reset_after_build(self, context):
        # reset_io ran at build time; any residue would distort queries.
        for index in context.indexes.values():
            index.device.stats.reset()
        assert all(
            index.device.stats.snapshot().total_accesses == 0
            for index in context.indexes.values()
        )

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            get_context("zoos")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ExperimentContext("hotels", 0.001, 8, algorithms=("BTREE",))

    def test_context_cache_reuses(self):
        a = get_context("restaurants", signature_bytes=8, scale=0.001, algorithms=("IIO",))
        b = get_context("restaurants", signature_bytes=8, scale=0.001, algorithms=("IIO",))
        assert a is b


class TestMeasure:
    def test_metrics_row_fields(self, context):
        queries = context.workload.queries(3, 2, 5)
        row = context.measure("IR2", queries)
        assert row.simulated_ms >= 0
        assert row.random_accesses >= 1
        assert row.results_returned >= 0
        assert set(MetricsRow.METRICS) <= set(vars(row))

    def test_iio_flat_in_k(self, context):
        base = context.workload.queries(3, 2, 10)
        low = context.measure("IIO", with_k(base, 1))
        high = context.measure("IIO", with_k(base, 50))
        assert low.random_accesses == high.random_accesses


class TestSweep:
    def test_tables_cover_all_metrics(self, context):
        base = context.workload.queries(2, 2, 10)
        result = run_sweep(
            context, "unit", "k", (1, 5), lambda k: with_k(base, k)
        )
        assert set(result.tables) == set(MetricsRow.METRICS)
        table = result.table("random_accesses")
        assert [value for value, _ in table.rows] == [1, 5]
        assert len(table.column("IR2")) == 2
        rendered = result.render()
        assert "unit" in rendered
        markdown = result.render_markdown()
        assert "###" in markdown


class TestEnvKnobs:
    def test_bench_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert bench_scale() == 0.02

    def test_bench_scale_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert bench_scale() == 0.5

    def test_bench_scale_invalid_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "banana")
        assert bench_scale() == 0.02
        monkeypatch.setenv("REPRO_SCALE", "-2")
        assert bench_scale() == 0.02

    def test_queries_per_point(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUERIES", raising=False)
        assert queries_per_point() == 8
        monkeypatch.setenv("REPRO_QUERIES", "3")
        assert queries_per_point() == 3
