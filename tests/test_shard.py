"""Sharded scatter-gather engine: partitioners, merge, and equivalence.

The sharding acceptance oracle mirrors the cross-index differential
harness: a :class:`~repro.shard.ShardedEngine` must answer every query
*tie-aware equivalently* to a single engine over the same corpus — same
result count, same distance multiset, identical strict prefix below the
k-th distance — for every index kind and shard count, plus aggregate its
per-shard cost breakdown consistently.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.workloads import ConcurrentLoadGenerator
from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.core.ranking import LinearRanking
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.errors import DatasetError, DeviceFaultError, IndexError_, QueryError
from repro.model import SearchResult, SpatialObject
from repro.obs.trace import trace_query
from repro.persist import MANIFEST_VERSION, load_engine, save_engine
from repro.serve import QueryService
from repro.shard import (
    PARTIAL,
    GridPartitioner,
    KDPartitioner,
    ShardedEngine,
    TopKMerger,
    make_partitioner,
    partitioner_from_dict,
)
from repro.storage import inject_engine_faults
from repro.spatial.geometry import target_point_distance

EPS = 1e-9

KINDS = ("ir2", "mir2", "rtree", "iio", "sig")
SHARD_COUNTS = (1, 2, 5)
#: The two query kinds the sharded fan-out answers.
QUERY_KINDS = ("distance", "ranked")


def corpus_objects(n_objects, seed, vocabulary=300, avg_words=8, clusters=5):
    config = DatasetConfig(
        name=f"shard-{n_objects}-{seed}",
        n_objects=n_objects,
        vocabulary_size=vocabulary,
        avg_unique_words=avg_words,
        clusters=clusters,
        seed=seed,
    )
    return SpatialTextDatasetGenerator(config).generate()


def assert_tie_equivalent(execution, objects, analyzer, query):
    """Tie-aware equivalence against the index-free oracle."""
    terms = analyzer.query_terms(query.keywords)
    matches = sorted(
        (target_point_distance(obj.point, query.target), obj.oid)
        for obj in objects
        if analyzer.contains_all(obj.text, terms)
    )
    expected_n = min(query.k, len(matches))
    expected_dists = [d for d, _ in matches[:expected_n]]
    true_distance = dict((oid, d) for d, oid in matches)
    kth = expected_dists[-1] if expected_n else 0.0
    expected_prefix = {oid for d, oid in matches[:expected_n] if d < kth - EPS}
    got = [(r.distance, r.obj.oid) for r in execution.results]
    assert len(got) == expected_n
    oids = [oid for _, oid in got]
    assert len(set(oids)) == len(oids), "duplicate results"
    for (distance, oid), expected in zip(got, expected_dists):
        assert distance == pytest.approx(expected, abs=EPS)
        assert oid in true_distance
        assert distance == pytest.approx(true_distance[oid], abs=EPS)
    prefix = {oid for d, oid in got if d < kth - EPS}
    assert prefix == expected_prefix, "pre-tie prefix differs"


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------


class TestPartitioners:
    @pytest.mark.parametrize("kind", ["kd", "grid"])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 7, 8])
    def test_covers_every_shard_and_stays_in_range(self, kind, n_shards):
        objects = corpus_objects(200, seed=3)
        points = [obj.point for obj in objects]
        part = make_partitioner(kind, n_shards)
        part.fit(points)
        assignments = [part.assign(p) for p in points]
        assert all(0 <= a < n_shards for a in assignments)
        if kind == "kd":
            # kd balances object counts, so every shard is populated.
            assert len(set(assignments)) == n_shards

    def test_kd_balance(self):
        points = [(float(i), float(i % 13)) for i in range(400)]
        part = KDPartitioner(8)
        part.fit(points)
        counts = [0] * 8
        for p in points:
            counts[part.assign(p)] += 1
        assert max(counts) - min(counts) <= len(points) // 4

    @pytest.mark.parametrize("kind", ["kd", "grid"])
    def test_dict_round_trip(self, kind):
        points = [obj.point for obj in corpus_objects(80, seed=5)]
        part = make_partitioner(kind, 6)
        part.fit(points)
        clone = partitioner_from_dict(json.loads(json.dumps(part.to_dict())))
        assert type(clone) is type(part)
        for p in points:
            assert clone.assign(p) == part.assign(p)

    def test_out_of_extent_points_still_land_somewhere(self):
        points = [(float(i), float(i)) for i in range(10)]
        for part in (KDPartitioner(4), GridPartitioner(4)):
            part.fit(points)
            for p in [(-100.0, -100.0), (100.0, 100.0), (0.0, 1e6)]:
                assert 0 <= part.assign(p) < 4

    def test_unfitted_raises(self):
        with pytest.raises(IndexError_):
            KDPartitioner(2).assign((0.0, 0.0))
        with pytest.raises(IndexError_):
            GridPartitioner(2).to_dict()

    def test_bad_configuration_raises(self):
        with pytest.raises(DatasetError):
            make_partitioner("voronoi", 4)
        with pytest.raises(DatasetError):
            KDPartitioner(0)
        with pytest.raises(DatasetError):
            partitioner_from_dict({"kind": "nope"})


class TestTopKMerger:
    def test_threshold_opens_then_tightens(self):
        merger = TopKMerger(2)
        assert merger.threshold() == float("inf")
        obj = lambda oid: SpatialObject(oid, (0.0, 0.0), "x")
        merger.offer(SearchResult(obj(1), 5.0))
        assert merger.threshold() == float("inf")
        merger.offer(SearchResult(obj(2), 3.0))
        assert merger.threshold() == 5.0
        merger.offer(SearchResult(obj(3), 1.0))
        assert merger.threshold() == 3.0
        assert [r.obj.oid for r in merger.results()] == [3, 2]

    def test_ties_keep_smallest_oids(self):
        merger = TopKMerger(2)
        obj = lambda oid: SpatialObject(oid, (0.0, 0.0), "x")
        for oid in (9, 4, 7, 2):
            merger.offer(SearchResult(obj(oid), 1.0))
        assert [r.obj.oid for r in merger.results()] == [2, 4]

    def test_exact_distance_oid_tie_on_full_heap_does_not_raise(self):
        # Regression: a full-entry heap comparison fell through to the
        # unorderable SearchResult payload on an exact (distance, oid)
        # tie and raised TypeError; only the key may be compared.
        merger = TopKMerger(1)
        obj = SpatialObject(5, (0.0, 0.0), "x")
        merger.offer(SearchResult(obj, 2.0))
        merger.offer(SearchResult(SpatialObject(5, (0.0, 0.0), "x"), 2.0))
        assert [r.obj.oid for r in merger.results()] == [5]

    def test_duplicate_offers_are_idempotent(self):
        # A shard retried after a transient fault re-offers everything it
        # already merged; duplicates must not occupy extra top-k slots.
        merger = TopKMerger(3)
        obj = lambda oid: SpatialObject(oid, (0.0, 0.0), "x")
        for oid, distance in ((1, 1.0), (2, 2.0)):
            merger.offer(SearchResult(obj(oid), distance))
        for oid, distance in ((1, 1.0), (2, 2.0), (3, 3.0)):
            merger.offer(SearchResult(obj(oid), distance))
        assert [r.obj.oid for r in merger.results()] == [1, 2, 3]
        assert merger.threshold() == 3.0

    def test_eviction_forgets_the_evicted_oid(self):
        merger = TopKMerger(1)
        obj = lambda oid: SpatialObject(oid, (0.0, 0.0), "x")
        merger.offer(SearchResult(obj(9), 5.0))
        merger.offer(SearchResult(obj(1), 1.0))  # evicts 9
        merger.offer(SearchResult(obj(9), 0.5))  # 9 may re-enter
        assert [r.obj.oid for r in merger.results()] == [9]


# ---------------------------------------------------------------------------
# Sharded vs single equivalence (the acceptance harness)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shard_corpus():
    return corpus_objects(150, seed=11)


def build_sharded(objects, kind, n_shards, **kwargs):
    engine = ShardedEngine(n_shards=n_shards, index=kind,
                           signature_bytes=4, **kwargs)
    engine.add_all(objects)
    engine.build()
    return engine


class TestShardedEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_point_queries_match_oracle(self, shard_corpus, kind, n_shards):
        objects = shard_corpus
        sharded = build_sharded(objects, kind, n_shards)
        analyzer = sharded.analyzer
        terms = sorted(sharded._global_vocabulary().terms())
        for point, keywords, k in [
            ((50.0, 50.0), [terms[0]], 5),
            ((10.0, 90.0), [terms[1], terms[2]], 3),
            ((0.0, 0.0), ["zzznope"], 5),
        ]:
            query = SpatialKeywordQuery.of(point, keywords, k)
            assert_tie_equivalent(
                sharded.search(query), objects, analyzer, query
            )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_matches_single_engine_answers(self, shard_corpus, n_shards):
        objects = shard_corpus
        single = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        single.add_all(objects)
        single.build()
        sharded = build_sharded(objects, "ir2", n_shards)
        workload_terms = sorted(single.corpus.vocabulary.terms())[:6]
        for term in workload_terms:
            ref = single.query((40.0, 60.0), [term], k=7)
            got = sharded.search(ref.query)
            ref_pairs = sorted((r.distance, r.obj.oid) for r in ref.results)
            got_pairs = [(r.distance, r.obj.oid) for r in got.results]
            assert [d for d, _ in got_pairs] == pytest.approx(
                [d for d, _ in ref_pairs], abs=EPS
            )

    def test_area_query_equivalence(self, shard_corpus):
        objects = shard_corpus
        single = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        single.add_all(objects)
        single.build()
        term = sorted(single.corpus.vocabulary.terms())[0]
        ref = single.query_area((20.0, 20.0), (60.0, 60.0), [term], k=8)
        sharded = build_sharded(objects, "ir2", 4)
        got = sharded.query_area((20.0, 20.0), (60.0, 60.0), [term], k=8)
        assert sorted(r.distance for r in got.results) == pytest.approx(
            sorted(r.distance for r in ref.results), abs=EPS
        )
        assert_tie_equivalent(got, objects, sharded.analyzer, ref.query)

    def test_ranked_scores_equal_single_engine(self, shard_corpus):
        objects = shard_corpus
        single = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        single.add_all(objects)
        single.build()
        term = sorted(single.corpus.vocabulary.terms())[0]
        ref = single.query_ranked((50.0, 50.0), [term], k=6)
        sharded = build_sharded(objects, "ir2", 3)
        got = sharded.query_ranked((50.0, 50.0), [term], k=6)
        # Global idf merging makes sharded scores *equal*, not merely close.
        assert [round(r.score, 9) for r in got.results] == [
            round(r.score, 9) for r in ref.results
        ]

    def test_incremental_stream_is_globally_sorted(self, shard_corpus):
        objects = shard_corpus
        single = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        single.add_all(objects)
        single.build()
        term = sorted(single.corpus.vocabulary.terms())[0]
        ref = [r.distance for r in single.query_incremental((50.0, 50.0), [term])]
        sharded = build_sharded(objects, "ir2", 4)
        got = [
            r.distance
            for r in sharded.query_incremental((50.0, 50.0), [term])
        ]
        assert got == sorted(got)
        assert got == pytest.approx(ref, abs=EPS)

    def test_more_shards_than_objects(self):
        objects = corpus_objects(4, seed=2)
        sharded = build_sharded(objects, "ir2", 9)
        query = SpatialKeywordQuery.of((50.0, 50.0), ["w1"], 3)
        assert_tie_equivalent(
            sharded.search(query), objects, sharded.analyzer, query
        )


def kind_query(kind, point, keywords, k):
    """A distance-first or ranked query with the same point, terms and k."""
    ranking = LinearRanking(max_distance=200.0) if kind == "ranked" else None
    return SpatialKeywordQuery.of(point, keywords, k, ranking=ranking)


def traced_search(sharded, query):
    """Search under an active trace and pin the one per-shard report shape.

    Every shard gets exactly one report row, every row has the same keys,
    the rows' costs add up to the execution's totals, and each
    ``shard-<id>`` span carries exactly its row's fields.
    """
    with trace_query("query") as trace:
        execution = sharded.search(query)
    rows = execution.shards
    assert len(rows) == sharded.n_shards
    assert sorted(row["shard"] for row in rows) == list(range(sharded.n_shards))
    assert len({frozenset(row) for row in rows}) == 1
    assert sum(row["objects_inspected"] for row in rows) == (
        execution.objects_inspected
    )
    assert sum(row["nodes_visited"] for row in rows) == execution.nodes_visited
    spans = [span for span in trace.spans if span.category == "shard"]
    assert len(spans) == sharded.n_shards
    for span in spans:
        row = rows[span.attrs["shard"]]
        assert span.name == f"shard-{row['shard']}"
        assert span.attrs == row
    return execution


class TestShardBreakdown:
    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_breakdown_aggregates_to_totals(self, shard_corpus, kind):
        sharded = build_sharded(shard_corpus, "ir2", 4)
        term = sorted(sharded._global_vocabulary().terms())[0]
        execution = traced_search(
            sharded, kind_query(kind, (50.0, 50.0), [term], 5)
        )
        live = [r for r in execution.shards if not r["pruned"]]
        assert sum(r["objects_inspected"] for r in live) == (
            execution.objects_inspected
        )
        assert sum(r["nodes_visited"] for r in live) == (
            execution.nodes_visited
        )
        assert execution.algorithm == (
            "SHARDED-IR2x4-RANKED" if kind == "ranked" else "SHARDED-IR2x4"
        )
        payload = execution.to_dict()
        json.dumps(payload)
        assert payload["shards"] == execution.shards

    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_more_shards_than_objects_reports_every_shard(self, kind):
        objects = corpus_objects(4, seed=2)
        sharded = build_sharded(objects, "ir2", 9)
        query = kind_query(kind, (50.0, 50.0), ["ba"], 3)
        execution = traced_search(sharded, query)
        assert execution.results
        empty = [r for r in execution.shards if r["lower_bound"] is None]
        assert len(empty) >= 9 - len(objects)
        assert all(
            r["pruned"] and not r["pruned_by_keywords"] for r in empty
        )
        if kind == "distance":
            assert_tie_equivalent(execution, objects, sharded.analyzer, query)

    def test_distant_shards_get_pruned(self):
        # Two tight clusters far apart: querying inside one cluster with
        # k smaller than the cluster population must prune the other side.
        objects = [
            SpatialObject(i, (float(i % 10), float(i // 10)), "cafe")
            for i in range(100)
        ]
        objects += [
            SpatialObject(1000 + i, (1e6 + i % 10, 1e6 + i // 10), "cafe")
            for i in range(100)
        ]
        engine = ShardedEngine(n_shards=2, index="ir2")
        engine.add_all(objects)
        engine.build()
        execution = engine.query((5.0, 5.0), ["cafe"], k=5)
        assert any(r["pruned"] for r in execution.shards)
        assert all(oid < 1000 for oid in execution.oids)


class TestNearestFirstFanOut:
    """Shards are searched one after another, nearest lower bound first.

    Each searched shard meets the final threshold of every nearer shard
    and only offers distances at or above its own bound, so a shard that
    is searched never lies beyond the answer's k-th distance, and which
    shards prune depends on nothing but the query.
    """

    @pytest.mark.parametrize("kind", ("ir2", "auto"))
    @pytest.mark.parametrize("n_shards", (4, 8))
    def test_searched_shards_lie_within_the_kth_distance(
        self, shard_corpus, kind, n_shards
    ):
        sharded = build_sharded(shard_corpus, kind, n_shards)
        workload = ConcurrentLoadGenerator(
            shard_corpus, sharded.analyzer, seed=17
        )
        queries = workload.mixed_batch(
            60, keyword_counts=(1, 2), k=5, hot_fraction=0.0,
            area_fraction=0.25, ranked_fraction=0.0,
        )
        first = [sharded.search(query) for query in queries]
        for execution in first:
            if len(execution.results) < execution.query.k:
                continue
            kth = execution.results[-1].distance
            for report in execution.shards:
                if not report["pruned"]:
                    assert report["lower_bound"] <= kth
        assert any(
            report["pruned"] and not report["pruned_by_keywords"]
            and report["lower_bound"] is not None
            for execution in first for report in execution.shards
        )
        second = [sharded.search(query) for query in queries]
        assert [e.shards for e in second] == [e.shards for e in first]


class TestShardedMutationAndLifecycle:
    def test_live_insert_routes_to_owning_shard(self, shard_corpus):
        sharded = build_sharded(shard_corpus, "ir2", 4)
        sharded.add_object(5000, (50.0, 50.0), "uniqueword spa")
        owner = sharded.shard_of(5000)
        assert owner is not None
        assert any(
            obj.oid == 5000 for obj in sharded.shards[owner].objects()
        )
        assert owner == sharded.partitioner.assign((50.0, 50.0))
        assert sharded.delete(5000) is True
        assert sharded.shard_of(5000) is None
        assert sharded.delete(5000) is False

    def test_duplicate_oid_rejected(self, shard_corpus):
        sharded = build_sharded(shard_corpus, "ir2", 2)
        with pytest.raises(QueryError):
            sharded.add_object(0, (1.0, 1.0), "dup")

    def test_unbuilt_engine_raises(self):
        engine = ShardedEngine(n_shards=2, index="ir2")
        engine.add_object(1, (0.0, 0.0), "cafe")
        with pytest.raises(IndexError_):
            engine.query((0.0, 0.0), ["cafe"], k=1)
        with pytest.raises(IndexError_):
            engine.delete(1)

    def test_len_and_stats_aggregate(self, shard_corpus):
        single = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        single.add_all(shard_corpus)
        single.build()
        sharded = build_sharded(shard_corpus, "ir2", 3)
        assert len(sharded) == len(single)
        s_stats = sharded.corpus_stats()
        r_stats = single.corpus_stats()
        assert s_stats.total_objects == r_stats.total_objects
        assert s_stats.unique_words == r_stats.unique_words
        assert s_stats.avg_unique_words_per_object == pytest.approx(
            r_stats.avg_unique_words_per_object
        )
        assert sharded.index_size_mb() > 0


class TestShardedPersistence:
    @pytest.mark.parametrize("kind", ["ir2", "iio"])
    def test_save_load_round_trip(self, tmp_path, shard_corpus, kind):
        directory = str(tmp_path / "engine")
        sharded = build_sharded(shard_corpus, kind, 3)
        term = sorted(sharded._global_vocabulary().terms())[0]
        ref = sharded.query((50.0, 50.0), [term], k=6)
        save_engine(sharded, directory)
        manifest = json.load(open(os.path.join(directory, "manifest.json")))
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["sharded"] is True
        assert manifest["n_shards"] == 3
        for name in manifest["shards"]:
            assert os.path.isdir(os.path.join(directory, name))
        reloaded = load_engine(directory)
        assert isinstance(reloaded, ShardedEngine)
        got = reloaded.query((50.0, 50.0), [term], k=6)
        assert got.oids == ref.oids
        # The reopened engine remains fully live.
        reloaded.add_object(7777, (50.0, 50.0), term)
        assert reloaded.query((50.0, 50.0), [term], k=1).oids == [7777]

    def test_single_engine_layout_still_loads(self, tmp_path, shard_corpus):
        directory = str(tmp_path / "single")
        single = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        single.add_all(shard_corpus)
        single.build()
        save_engine(single, directory)
        reloaded = load_engine(directory)
        assert isinstance(reloaded, SpatialKeywordEngine)


class TestShardedServing:
    def test_query_service_batch_matches_serial(self, shard_corpus):
        sharded = build_sharded(shard_corpus, "ir2", 3)
        terms = sorted(sharded._global_vocabulary().terms())[:4]
        queries = [
            SpatialKeywordQuery.of((30.0 + i, 40.0), [term], 5)
            for i, term in enumerate(terms)
        ]
        serial = [sharded.search(q).oids for q in queries]
        with sharded.serve(workers=3) as service:
            batch = service.run_batch(queries)
        assert [e.oids for e in batch] == serial


class TestDegradation:
    """Per-shard failure policies under injected storage faults."""

    def common_term(self, sharded):
        return sorted(sharded._global_vocabulary().terms())[0]

    def break_shard(self, sharded, shard_id, **plan_kwargs):
        return inject_engine_faults(sharded.shards[shard_id], **plan_kwargs)

    def test_fail_fast_reraises_the_shard_error(self, shard_corpus):
        sharded = build_sharded(shard_corpus, "ir2", 3)
        term = self.common_term(sharded)
        self.break_shard(sharded, 0, read_error_rate=1.0)
        self.break_shard(sharded, 1, read_error_rate=1.0)
        self.break_shard(sharded, 2, read_error_rate=1.0)
        with pytest.raises(DeviceFaultError):
            sharded.query((50.0, 50.0), [term], k=8)

    def test_partial_policy_answers_from_surviving_shards(self, shard_corpus):
        healthy = build_sharded(shard_corpus, "ir2", 3)
        term = self.common_term(healthy)
        full = healthy.query((50.0, 50.0), [term], k=8)
        sharded = build_sharded(
                 shard_corpus, "ir2", 3, failure_policy=PARTIAL
             )
        broken = 1
        self.break_shard(sharded, broken, read_error_rate=1.0)
        execution = sharded.query((50.0, 50.0), [term], k=8)
        assert execution.degraded
        assert execution.failed_shards == [broken]
        # Nothing from the broken shard, and every full-answer member
        # owned by a healthy shard still present — the answer is the
        # true top-k over the surviving shards, never garbage.
        assert all(sharded.shard_of(oid) != broken for oid in execution.oids)
        survivors = {
            oid for oid in full.oids if sharded.shard_of(oid) != broken
        }
        assert survivors <= set(execution.oids)
        report = [r for r in execution.shards if r["shard"] == broken][0]
        assert report["failed"] and "DeviceFaultError" in report["error"]
        assert "DEGRADED" in execution.summary()
        payload = execution.to_dict()
        assert payload["degraded"] is True
        assert payload["failed_shards"] == [broken]

    def test_partial_policy_for_ranked_queries(self, shard_corpus):
        sharded = build_sharded(
                 shard_corpus, "ir2", 3, failure_policy=PARTIAL
             )
        term = self.common_term(sharded)
        self.break_shard(sharded, 2, read_error_rate=1.0)
        execution = sharded.query_ranked((50.0, 50.0), [term], k=8)
        assert execution.degraded
        assert execution.failed_shards == [2]
        assert all(sharded.shard_of(oid) != 2 for oid in execution.oids)
        report = [r for r in execution.shards if r["shard"] == 2][0]
        assert report["failed"] and "DeviceFaultError" in report["error"]
        # A permanent fault is not retried.
        assert report["retries"] == 0

    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_transient_fault_is_retried_to_a_full_answer(
        self, shard_corpus, kind
    ):
        healthy = build_sharded(shard_corpus, "ir2", 3)
        term = self.common_term(healthy)
        full = healthy.search(kind_query(kind, (50.0, 50.0), [term], 8))
        sharded = build_sharded(
                 shard_corpus, "ir2", 3, retry_backoff_s=0.0
             )
        # Every shard's first block access fails once, transiently
        # (some shards may prune themselves and never read at all).
        plans = [
            self.break_shard(sharded, i, fail_read_at=(0,), transient=True)
            for i in range(3)
        ]
        execution = sharded.search(full.query)
        assert not execution.degraded
        assert execution.oids == full.oids
        injected = sum(p.failures_injected for p in plans)
        assert injected >= 1
        assert sum(r["retries"] for r in execution.shards) == injected

    def test_bad_failure_policy_rejected(self):
        with pytest.raises(QueryError, match="failure_policy"):
            ShardedEngine(n_shards=2, failure_policy="shrug")


class TestRankingResolution:
    """Every engine resolves a query's ranking the same way."""

    @pytest.fixture(params=["single", 1, 2], ids=["single", "1-shard", "2-shard"])
    def engine(self, request, shard_corpus):
        if request.param == "single":
            engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
            engine.add_all(shard_corpus)
            engine.build()
            return engine
        return build_sharded(shard_corpus, "ir2", request.param)

    def test_non_monotone_custom_ranking_is_rejected(self, engine):
        query = SpatialKeywordQuery.of(
            (50.0, 50.0), ["ba"], 5, ranking=lambda d, ir: d + ir
        )
        with pytest.raises(QueryError, match="increases with distance"):
            engine.search(query)
        with QueryService(engine, workers=1) as service:
            with pytest.raises(QueryError, match="increases with distance"):
                service.search(query)

    def test_monotone_custom_ranking_matches_builtin(self, engine):
        builtin = LinearRanking(alpha=0.5, max_distance=200.0)
        query = SpatialKeywordQuery.of((50.0, 50.0), ["ba"], 5, ranking=builtin)
        custom = query.with_ranking(lambda d, ir: builtin(d, ir))
        expected = engine.search(query).oids
        assert len(expected) == 5
        assert engine.search(custom).oids == expected
