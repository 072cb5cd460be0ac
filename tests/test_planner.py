"""Unit tests for the cost-based adaptive planner (:mod:`repro.plan`).

Covers the satellite guarantees around the differential suite:

* **Statistics correctness** — the planner's keyword document
  frequencies and spatial density histogram exactly match ground-truth
  recounts over the live corpus, both right after build and after
  seeded insert/delete streams.
* **Determinism** — identical seed + corpus produce identical plan
  choices, and the recorded plan round-trips through
  ``QueryExecution.to_dict()`` / JSON.
* **Surfacing** — the chosen strategy appears in the slow-query log,
  the rendered ``repro trace`` report, and the metrics counters.
* **Plan cache** — hits are marked, mutation invalidates, forcing works.
* **Persistence** — adaptive engines save and reload, statistics
  rebuilt, for single and sharded layouts.
* **CLI** — ``repro plan explain`` works on adaptive engines and fails
  politely elsewhere.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.bench.workloads import ConcurrentLoadGenerator
from repro.cli import main
from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.datasets import save_tsv
from repro.errors import QueryError
from repro.model import SpatialObject
from repro.persist import load_engine, save_engine, verify_engine
from repro.plan import DensityGrid
from repro.shard import ShardedEngine

from tests.test_differential import corpus_objects


def build_auto(objects, candidates=None, signature_bytes=8):
    engine = SpatialKeywordEngine(
        index="auto", signature_bytes=signature_bytes, auto_kinds=candidates
    )
    engine.add_all(objects)
    engine.build()
    return engine


def recount(engine):
    """Ground-truth df map and point list over the engine's live objects."""
    analyzer = engine.corpus.analyzer
    df: dict[str, int] = {}
    points = []
    for obj in engine.objects():
        for term in analyzer.terms(obj.text):
            df[term] = df.get(term, 0) + 1
        points.append(obj.point)
    return df, points


def assert_stats_match_recount(engine):
    stats = engine.index.stats
    df, points = recount(engine)
    assert stats.document_count == len(points)
    for term, count in df.items():
        assert stats.document_frequency(term) == count, term
    assert stats.document_frequency("zzznope") == 0
    grid = stats.grid
    expected = [0] * len(grid.counts)
    for point in points:
        expected[grid.cell_of(point)] += 1
    assert grid.counts == expected
    assert grid.total == len(points)


class TestStatisticsCorrectness:
    def test_exact_after_build(self):
        engine = build_auto(corpus_objects(200, seed=23))
        assert_stats_match_recount(engine)

    def test_exact_after_insert_delete_stream(self):
        objects = corpus_objects(150, seed=23)
        engine = build_auto(objects)
        rng = random.Random(7)
        version_before = engine.index.stats.version
        # Inserts include points outside the original extent (clamped
        # into boundary cells) and brand-new vocabulary.
        for i in range(30):
            point = (rng.uniform(-50.0, 150.0), rng.uniform(-50.0, 150.0))
            engine.add_object(10_000 + i, point, f"newword{i % 5} cafe")
        for oid in rng.sample([obj.oid for obj in objects], 20):
            assert engine.delete(oid)
        assert engine.index.stats.version > version_before
        assert_stats_match_recount(engine)

    def test_stream_interleaved_with_queries(self):
        engine = build_auto(corpus_objects(120, seed=5))
        rng = random.Random(13)
        workload = ConcurrentLoadGenerator(
            list(engine.objects()), engine.analyzer, seed=2
        )
        for i in range(10):
            engine.add_object(
                20_000 + i, (rng.uniform(0, 100), rng.uniform(0, 100)),
                "pop stream cafe",
            )
            engine.delete(i)
            query = workload.query(2, 5)
            engine.query(query.point, query.keywords, k=query.k)
            assert_stats_match_recount(engine)


class TestDensityGrid:
    def test_fractional_area_counts(self):
        grid = DensityGrid((0.0, 0.0), (10.0, 10.0), cells_per_dim=10)
        for x in range(10):
            for y in range(10):
                grid.add((x + 0.5, y + 0.5))
        from repro.spatial.geometry import Rect

        # A rect covering exactly 4 whole cells.
        assert grid.count_in(Rect((0.0, 0.0), (2.0, 2.0))) == pytest.approx(4.0)
        # Half-cells count fractionally.
        assert grid.count_in(Rect((0.0, 0.0), (1.0, 0.5))) == pytest.approx(0.5)
        # The whole extent counts everything.
        assert grid.count_in(Rect((0.0, 0.0), (10.0, 10.0))) == pytest.approx(100.0)

    def test_out_of_bounds_points_clamp(self):
        grid = DensityGrid((0.0, 0.0), (10.0, 10.0), cells_per_dim=4)
        grid.add((-5.0, -5.0))
        grid.add((15.0, 15.0))
        assert grid.total == 2
        assert grid.counts[grid.cell_of((-5.0, -5.0))] >= 1


class TestDeterminism:
    @pytest.fixture(scope="class")
    def world(self):
        objects = corpus_objects(160, seed=41)
        workload = ConcurrentLoadGenerator(
            objects, build_auto(objects).analyzer, seed=9
        )
        queries = [workload.query(n, k) for n, k in
                   [(1, 5), (2, 3), (2, 10), (3, 1), (1, 50)]]
        return objects, queries

    def test_identical_corpora_make_identical_plans(self, world):
        objects, queries = world
        engine_a = build_auto(objects)
        engine_b = build_auto(objects)
        for query in queries:
            plan_a = engine_a.search(query).plan
            plan_b = engine_b.search(query).plan
            assert plan_a == plan_b

    def test_replay_after_cache_clear_is_identical(self, world):
        objects, queries = world
        engine = build_auto(objects)
        first = [engine.search(query).plan for query in queries]
        engine.index.planner.clear_cache()
        second = [engine.search(query).plan for query in queries]
        assert first == second

    def test_plan_round_trips_through_to_dict_json(self, world):
        objects, queries = world
        engine = build_auto(objects)
        for query in queries:
            execution = engine.search(query)
            payload = json.loads(json.dumps(execution.to_dict()))
            assert payload["plan"] == execution.plan
            assert payload["plan"]["strategy"] in engine.index.candidates
            assert payload["algorithm"].startswith("AUTO:")


class TestPlanCacheAndForce:
    @pytest.fixture()
    def engine(self):
        return build_auto(corpus_objects(100, seed=3))

    def test_repeat_shape_hits_cache(self, engine):
        query = SpatialKeywordQuery.of((10.0, 10.0), ["cafe"], 5)
        planner = engine.index.planner
        first = planner.decide(query)
        assert not first.cached
        # A different point, same shape: still a cache hit.
        second = planner.decide(
            SpatialKeywordQuery.of((90.0, 90.0), ["cafe"], 5)
        )
        assert second.cached
        assert second.strategy == first.strategy

    def test_mutation_invalidates_cache(self, engine):
        query = SpatialKeywordQuery.of((10.0, 10.0), ["cafe"], 5)
        planner = engine.index.planner
        first = planner.decide(query)
        engine.add_object(9_999, (1.0, 1.0), "cafe mutation")
        again = planner.decide(query)
        assert not again.cached
        assert again.stats_version > first.stats_version

    def test_force_overrides_cost_order(self, engine):
        planner = engine.index.planner
        query = SpatialKeywordQuery.of((10.0, 10.0), ["cafe"], 5)
        for kind in engine.index.candidates:
            planner.force = kind
            decision = planner.decide(query)
            assert decision.strategy == kind
            assert decision.forced
        planner.force = None
        assert not planner.decide(query).forced

    def test_forced_execution_still_correct(self, engine):
        query = SpatialKeywordQuery.of((10.0, 10.0), ["cafe"], 5)
        baseline = [
            (r.distance, r.obj.oid) for r in engine.search(query).results
        ]
        for kind in engine.index.candidates:
            engine.index.planner.force = kind
            execution = engine.search(query)
            got = [(r.distance, r.obj.oid) for r in execution.results]
            assert got == baseline, kind
            assert execution.plan["strategy"] == kind
            assert execution.plan["forced"]


class TestStrategySurfacing:
    @pytest.fixture(scope="class")
    def served(self):
        from repro.obs.trace import QueryTracer
        from repro.serve import QueryService

        objects = corpus_objects(120, seed=19)
        engine = build_auto(objects)
        workload = ConcurrentLoadGenerator(objects, engine.analyzer, seed=4)
        tracer = QueryTracer(sample_every=1)
        with QueryService(
            engine, workers=2, slow_query_ms=0.0, tracer=tracer
        ) as service:
            executions = service.run_batch(workload.queries(8, 2, 5))
            stats = service.stats()
            slow_rows = service.slow_log.as_dicts()
        return engine, executions, stats, slow_rows, tracer

    def test_slow_query_log_carries_strategy(self, served):
        engine, executions, _, slow_rows, _ = served
        assert slow_rows
        for row in slow_rows:
            if row["cache"] == "hit":
                continue
            assert row["strategy"] in engine.index.candidates

    def test_trace_report_carries_strategy(self, served):
        from repro.obs.tracereport import render_trace

        engine, _, _, _, tracer = served
        reports = [render_trace(trace) for trace in tracer.traces()]
        assert any("strategy=" in report for report in reports)

    def test_metrics_count_chosen_strategies(self, served):
        _, executions, stats, _, _ = served
        counters = stats.metrics["counters"]
        routed = [e for e in executions if e.plan is not None]
        assert counters["planner.queries"] >= 1
        chosen = {
            name: value for name, value in counters.items()
            if name.startswith("planner.chosen.")
        }
        assert sum(chosen.values()) == counters["planner.queries"]
        won = sum(v for n, v in counters.items()
                  if n.startswith("planner.won."))
        lost = sum(v for n, v in counters.items()
                   if n.startswith("planner.lost."))
        assert won + lost == counters["planner.queries"]
        assert routed

    def test_plan_phase_span_in_trace(self, served):
        _, _, _, _, tracer = served
        names = {
            span.name for trace in tracer.traces() for span in trace.spans
        }
        assert "plan" in names


class TestPersistence:
    def test_single_auto_round_trip(self, tmp_path):
        objects = corpus_objects(120, seed=37)
        engine = build_auto(objects, candidates=("ir2", "iio", "sig"))
        query = SpatialKeywordQuery.of((50.0, 50.0), ["cafe"], 5)
        before = [(r.distance, r.obj.oid) for r in engine.search(query).results]
        target = str(tmp_path / "auto-engine")
        save_engine(engine, target)
        report = verify_engine(target)
        assert report["ok"], report
        reloaded = load_engine(target)
        assert reloaded.index_kind == "auto"
        assert reloaded.index.candidates == ("ir2", "iio", "sig")
        execution = reloaded.search(query)
        after = [(r.distance, r.obj.oid) for r in execution.results]
        assert after == before
        assert execution.plan["strategy"] in reloaded.index.candidates
        assert_stats_match_recount(reloaded)
        # Mutations keep working after a reload.
        reloaded.add_object(50_000, (50.0, 50.0), "cafe reload")
        assert reloaded.search(query).results[0].obj.oid == 50_000
        assert reloaded.delete(50_000)
        assert [
            (r.distance, r.obj.oid) for r in reloaded.search(query).results
        ] == before

    def test_sharded_auto_round_trip(self, tmp_path):
        objects = corpus_objects(150, seed=43)
        engine = ShardedEngine(n_shards=3, index="auto", signature_bytes=8)
        engine.add_all(objects)
        engine.build()
        # A term that actually occurs: a zero-match keyword would now be
        # pruned by the routing summaries before any shard plans at all.
        term = sorted(engine._global_vocabulary().terms())[0]
        query = SpatialKeywordQuery.of((50.0, 50.0), [term], 8)
        before = [(r.distance, r.obj.oid) for r in engine.search(query).results]
        target = str(tmp_path / "auto-sharded")
        save_engine(engine, target)
        reloaded = load_engine(target)
        execution = reloaded.search(query)
        got = [(r.distance, r.obj.oid) for r in execution.results]
        assert got == before
        assert execution.plan is not None
        for shard in reloaded.shards:
            assert_stats_match_recount(shard)


class TestAutoConstruction:
    def test_auto_cannot_nest_itself(self):
        with pytest.raises(QueryError):
            SpatialKeywordEngine(index="auto", auto_kinds=("auto", "ir2"))

    def test_unknown_candidate_fails(self):
        with pytest.raises(QueryError):
            SpatialKeywordEngine(index="auto", auto_kinds=("btree",))

    def test_duplicate_candidates_deduplicate(self):
        engine = SpatialKeywordEngine(
            index="auto", auto_kinds=("ir2", "IR2", "iio")
        )
        assert engine.index.candidates == ("ir2", "iio")


class TestPlanExplainCLI:
    @pytest.fixture()
    def auto_dir(self, tmp_path):
        data = str(tmp_path / "data.tsv")
        save_tsv(data, corpus_objects(60, seed=51))
        target = str(tmp_path / "auto-engine")
        assert main(
            ["build", "--data", data, "--out", target, "--index", "auto",
             "--signature-bytes", "8"]
        ) == 0
        return target

    def test_explain_prints_decision(self, auto_dir, capsys):
        code = main(
            ["plan", "explain", "--engine", auto_dir, "--point", "50", "50",
             "--keywords", "cafe", "-k", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chosen" in out
        assert "statistics:" in out

    def test_explain_json_is_parseable(self, auto_dir, capsys):
        code = main(
            ["plan", "explain", "--engine", auto_dir, "--point", "50", "50",
             "--keywords", "cafe", "-k", "5", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["reports"][0]
        assert report["decision"]["strategy"] in report["decision"]["estimates"]
        assert "selectivity" in report["statistics"]

    def test_explain_needs_auto_engine(self, tmp_path, capsys):
        data = str(tmp_path / "data.tsv")
        save_tsv(data, corpus_objects(40, seed=51))
        target = str(tmp_path / "ir2-engine")
        assert main(["build", "--data", data, "--out", target]) == 0
        code = main(
            ["plan", "explain", "--engine", target, "--point", "0", "0",
             "--keywords", "cafe"]
        )
        assert code == 1
        assert "auto" in capsys.readouterr().err
