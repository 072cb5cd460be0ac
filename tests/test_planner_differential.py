"""Randomized differential harness for the cost-based adaptive planner.

The planner may only ever change *where* a query runs, never *what* it
answers: every ``auto`` answer is produced by a real candidate index, so
the answer-equivalence oracle of :mod:`tests.test_differential` carries
over unchanged.  This suite pits adaptive engines — the default and
alternate candidate sets, single and {1, 2, 5}-shard sharded — against
the index-free brute-force oracle and every fixed index kind, over
seeded randomized corpora and query mixes: point, area, and ranked
queries, rare- and common-keyword selectivity bands, and k sweeps.
Distance-first answers must be **byte-identical** ``(distance, oid)``
lists everywhere, ties included.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import ConcurrentLoadGenerator
from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.core.ranking import DistanceDecayRanking
from repro.core.search_general import brute_force_ranked
from repro.shard import ShardedEngine

from tests.test_differential import (
    assert_equivalent,
    build_engines,
    corpus_objects,
    oracle_matches,
)

#: Candidate sets under test: the default pairing, the full pool, and a
#: scan-only pool (no signature-bearing tree, so no ranked support).
CANDIDATE_SETS = {
    "auto": None,
    "auto-all": ("ir2", "mir2", "rtree", "iio", "sig"),
    "auto-scan": ("iio", "sig", "rtree"),
}

SHARD_COUNTS = (1, 2, 5)


def build_auto_engines(objects, signature_bytes=8):
    """One adaptive engine per candidate set, over the same object list."""
    engines = {}
    for name, candidates in CANDIDATE_SETS.items():
        engine = SpatialKeywordEngine(
            index="auto", signature_bytes=signature_bytes,
            auto_kinds=candidates,
        )
        engine.add_all(objects)
        engine.build()
        engines[name] = engine
    return engines


def assert_search_equivalent(engines, objects, query):
    """Every engine's ``search(query)`` equals the brute-force oracle.

    Unlike :func:`tests.test_differential.assert_equivalent` this goes
    through ``search`` with the query object itself, so area queries
    keep their area.  The oracle ranks by distance to ``query.target``
    (the area for area queries), cut by ``(distance, oid)`` — the same
    canonical order every execution path implements.
    """
    analyzer = next(iter(engines.values())).corpus.analyzer
    matches = oracle_matches(objects, analyzer, query)
    expected = matches[: min(query.k, len(matches))]
    for name, engine in engines.items():
        execution = engine.search(query)
        got = [(r.distance, r.obj.oid) for r in execution.results]
        label = f"{name} on {query.keywords} k={query.k}"
        assert got == expected, f"answer not byte-identical: {label}"


class TestPlannerDifferentialFast:
    """The always-on slice: auto vs oracle vs every fixed kind."""

    @pytest.fixture(scope="class")
    def setup(self):
        objects = corpus_objects(150, seed=11)
        engines = dict(build_engines(objects, signature_bytes=4))
        engines.update(build_auto_engines(objects, signature_bytes=4))
        workload = ConcurrentLoadGenerator(
            objects, engines["ir2"].corpus.analyzer, seed=5
        )
        return objects, engines, workload

    @pytest.mark.parametrize("num_keywords,k", [(1, 5), (2, 3), (3, 10)])
    def test_point_queries_agree(self, setup, num_keywords, k):
        objects, engines, workload = setup
        for query in workload.queries(4, num_keywords, k):
            assert_equivalent(engines, objects, query)

    @pytest.mark.parametrize("band", [(0.0, 0.03), (0.10, 1.0)],
                             ids=["rare", "common"])
    def test_selectivity_bands_agree(self, setup, band):
        """Rare keywords route toward IIO, common toward trees; both
        selectivity regimes must stay answer-identical."""
        objects, engines, workload = setup
        lo, hi = band
        for query in workload.frequency_band_queries(4, 2, 5, lo, hi):
            assert_equivalent(engines, objects, query)

    @pytest.mark.parametrize("k", [1, 3, 25])
    def test_area_queries_agree(self, setup, k):
        objects, engines, workload = setup
        for extent in (0.05, 0.3):
            query = workload.area_query(1, k, extent_fraction=extent)
            assert_search_equivalent(engines, objects, query)

    def test_zero_match_keywords(self, setup):
        objects, engines, _ = setup
        query = SpatialKeywordQuery.of((0.0, 0.0), ["zzznope", "qqqgone"], 5)
        assert_equivalent(engines, objects, query)
        for engine in engines.values():
            assert engine.query((0.0, 0.0), ["zzznope"], k=5).results == []

    def test_k_larger_than_matches(self, setup):
        objects, engines, workload = setup
        query = workload.query(num_keywords=2, k=10_000)
        assert_equivalent(engines, objects, query)

    def test_every_auto_answer_comes_from_a_real_candidate(self, setup):
        objects, engines, workload = setup
        for query in workload.queries(6, 2, 5):
            for name in CANDIDATE_SETS:
                engine = engines[name]
                execution = engine.search(query)
                assert execution.algorithm.startswith("AUTO:")
                strategy = execution.plan["strategy"]
                assert strategy in engine.index.candidates


class TestPlannerRankedDifferential:
    """Ranked routing: auto's general top-k equals oracle and fixed kinds."""

    @pytest.fixture(scope="class")
    def setup(self):
        objects = corpus_objects(120, seed=17)
        fixed = SpatialKeywordEngine(index="ir2", signature_bytes=8)
        fixed.add_all(objects)
        fixed.build()
        auto = SpatialKeywordEngine(
            index="auto", signature_bytes=8,
            auto_kinds=("ir2", "mir2", "iio"),
        )
        auto.add_all(objects)
        auto.build()
        workload = ConcurrentLoadGenerator(
            objects, fixed.corpus.analyzer, seed=29
        )
        ranking = DistanceDecayRanking(half_distance=40.0)
        return objects, fixed, auto, workload, ranking

    def test_ranked_matches_fixed_and_oracle(self, setup):
        objects, fixed, auto, workload, ranking = setup
        for base in workload.queries(6, 2, 5):
            point, keywords, k = base.point, base.keywords, base.k
            got = auto.query_ranked(point, keywords, k=k, ranking=ranking)
            assert got.algorithm.startswith("AUTO:")
            assert got.plan["strategy"] in ("ir2", "mir2")
            want = fixed.query_ranked(point, keywords, k=k, ranking=ranking)
            assert (
                [(r.obj.oid, round(r.score, 9)) for r in got.results]
                == [(r.obj.oid, round(r.score, 9)) for r in want.results]
            )
            oracle = brute_force_ranked(
                objects, fixed.corpus.analyzer, fixed.corpus.vocabulary,
                base.with_ranking(ranking), ranking,
            )
            assert (
                [round(r.score, 9) for r in got.results]
                == [round(r.score, 9) for r in oracle[: len(got.results)]]
            )

    def test_ranked_without_capable_candidate_fails_loudly(self, setup):
        objects, _, _, workload, ranking = setup
        from repro.errors import QueryError

        scan_only = SpatialKeywordEngine(
            index="auto", signature_bytes=8, auto_kinds=("iio", "sig"),
        )
        scan_only.add_all(objects)
        scan_only.build()
        base = workload.query(2, 5)
        with pytest.raises(QueryError):
            scan_only.query_ranked(base.point, base.keywords, k=5,
                                   ranking=ranking)


class TestShardedPlannerDifferential:
    """Per-shard routing keeps scatter-gather answers byte-identical."""

    @pytest.fixture(scope="class")
    def sharded_world(self):
        objects = corpus_objects(180, seed=31)
        reference = SpatialKeywordEngine(index="ir2", signature_bytes=8)
        reference.add_all(objects)
        reference.build()
        engines = {"reference-ir2": reference}
        for n_shards in SHARD_COUNTS:
            sharded = ShardedEngine(
                n_shards=n_shards, index="auto", signature_bytes=8
            )
            sharded.add_all(objects)
            sharded.build()
            engines[f"auto-x{n_shards}"] = sharded
        workload = ConcurrentLoadGenerator(
            objects, reference.corpus.analyzer, seed=3
        )
        return objects, engines, workload

    @pytest.mark.parametrize("num_keywords,k", [(1, 4), (2, 8), (3, 2)])
    def test_point_queries_agree(self, sharded_world, num_keywords, k):
        objects, engines, workload = sharded_world
        for query in workload.queries(4, num_keywords, k):
            assert_equivalent(engines, objects, query)

    def test_area_queries_agree(self, sharded_world):
        objects, engines, workload = sharded_world
        for k in (2, 10):
            query = workload.area_query(1, k, extent_fraction=0.2)
            assert_search_equivalent(engines, objects, query)

    def test_zero_match_and_oversized_k(self, sharded_world):
        objects, engines, workload = sharded_world
        assert_equivalent(
            engines, objects,
            SpatialKeywordQuery.of((0.0, 0.0), ["zzznope"], k=3),
        )
        assert_equivalent(engines, objects, workload.query(2, k=5_000))

    def test_merged_plan_covers_searched_shards(self, sharded_world):
        objects, engines, workload = sharded_world
        query = workload.query(1, 5)
        for n_shards in SHARD_COUNTS:
            engine = engines[f"auto-x{n_shards}"]
            execution = engine.search(query)
            plan = execution.plan
            assert plan is not None
            per_shard = plan["per_shard"]
            assert 1 <= len(per_shard) <= n_shards
            for strategy in per_shard.values():
                assert strategy in ("ir2", "iio")
            assert plan["strategy"] == "+".join(
                sorted(set(per_shard.values()))
            )


@pytest.mark.slow
class TestPlannerDifferentialSweep:
    """The full randomized sweep: seeds x sizes x candidate sets x shards."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n_objects", [120, 400])
    def test_sweep(self, seed, n_objects):
        objects = corpus_objects(n_objects, seed=seed)
        engines = dict(build_engines(objects, signature_bytes=8))
        engines.update(build_auto_engines(objects, signature_bytes=8))
        for n_shards in SHARD_COUNTS:
            engine = ShardedEngine(
                n_shards=n_shards, index="auto", signature_bytes=8
            )
            engine.add_all(objects)
            engine.build()
            engines[f"auto-x{n_shards}"] = engine
        workload = ConcurrentLoadGenerator(
            objects, engines["ir2"].corpus.analyzer, seed=seed + 100
        )
        for num_keywords in (1, 2, 3):
            for k in (1, 5, 20):
                for query in workload.queries(2, num_keywords, k):
                    assert_equivalent(engines, objects, query)
        for band in ((0.0, 0.03), (0.10, 1.0)):
            for query in workload.frequency_band_queries(2, 2, 5, *band):
                assert_equivalent(engines, objects, query)
        for extent in (0.05, 0.3):
            query = workload.area_query(2, 5, extent_fraction=extent)
            assert_search_equivalent(engines, objects, query)
        assert_equivalent(
            engines, objects,
            SpatialKeywordQuery.of((0.0, 0.0), ["zzznope"], k=4),
        )
        assert_equivalent(
            engines, objects, workload.query(2, k=10 * n_objects)
        )
