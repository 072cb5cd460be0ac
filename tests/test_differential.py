"""Cross-index differential harness: the five index kinds are answer-equivalent.

The paper's central claim (§V-VI) is that the IR2-Tree returns *exactly*
the same answers as the R-Tree baseline while doing fewer I/Os — answer
equivalence across index kinds is therefore a perfect test oracle.  This
harness builds every index kind ("ir2", "mir2", "rtree", "iio", "sig")
over the same randomized corpora and checks each one's top-k list against
an index-free brute-force oracle and against the others.

Ties at the k-th distance are part of the contract: every execution
path — tree algorithms (via :func:`repro.core.search.drain_top_k`),
scan baselines, the brute-force oracle, and sharded scatter-gather
(via :class:`repro.shard.merge.TopKMerger`) — drains the whole tie
group at the k-th distance and cuts it by ``(distance, oid)``.  Answers
are therefore **byte-identical** ``(distance, oid)`` lists across every
index kind and every shard count, ties or no ties; the harness asserts
exactly that, plus oracle agreement on each pair.  The exact-tie sweep
(:class:`TestExactTieSweep`) stresses the contract with duplicate
locations and shared keywords so the tie groups are large and exact.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import WorkloadGenerator
from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.spatial.geometry import target_point_distance

KINDS = ("ir2", "mir2", "rtree", "iio", "sig")

#: Distances across algorithms come from the same float math; the oracle
#: comparison still uses a tolerance to stay robust to summation order.
EPS = 1e-9


def build_engines(objects, signature_bytes=8):
    """One engine per index kind, all over the same object list."""
    engines = {}
    for kind in KINDS:
        engine = SpatialKeywordEngine(index=kind, signature_bytes=signature_bytes)
        engine.add_all(objects)
        engine.build()
        engines[kind] = engine
    return engines


def oracle_matches(objects, analyzer, query):
    """Every true match as (distance, oid), sorted — the full ground truth."""
    terms = analyzer.query_terms(query.keywords)
    return sorted(
        (target_point_distance(obj.point, query.target), obj.oid)
        for obj in objects
        if analyzer.contains_all(obj.text, terms)
    )


def assert_equivalent(engines, objects, query):
    """All engines return the oracle's byte-identical (distance, oid) list.

    ``oracle_matches`` sorts by ``(distance, oid)`` — exactly the
    canonical cut order every execution path implements — so the whole
    list comparison is exact; the per-pair distance check additionally
    stays tolerant so a genuine mismatch reports which object is off
    rather than just "lists differ".
    """
    analyzer = next(iter(engines.values())).corpus.analyzer
    matches = oracle_matches(objects, analyzer, query)
    expected_n = min(query.k, len(matches))
    expected = matches[:expected_n]
    true_distance = dict((oid, d) for d, oid in matches)
    for kind, engine in engines.items():
        execution = engine.query(query.point, query.keywords, k=query.k)
        got = [(r.distance, r.obj.oid) for r in execution.results]
        label = f"{kind} on {query.keywords} k={query.k}"
        assert len(got) == expected_n, label
        oids = [oid for _, oid in got]
        assert len(set(oids)) == len(oids), f"duplicate results: {label}"
        for distance, oid in got:
            assert oid in true_distance, f"non-match returned: {label}"
            assert distance == pytest.approx(true_distance[oid], abs=EPS), label
        assert got == expected, f"answer not byte-identical: {label}"


def corpus_objects(n_objects, seed, vocabulary=300, avg_words=8, clusters=5):
    config = DatasetConfig(
        name=f"diff-{n_objects}-{seed}",
        n_objects=n_objects,
        vocabulary_size=vocabulary,
        avg_unique_words=avg_words,
        clusters=clusters,
        seed=seed,
    )
    return SpatialTextDatasetGenerator(config).generate()


class TestDifferentialFast:
    """A small always-on slice of the sweep (the full sweep is @slow)."""

    @pytest.fixture(scope="class")
    def setup(self):
        objects = corpus_objects(150, seed=11)
        # 4-byte signatures: a deliberately high false-positive rate so
        # the verification step, not signature luck, carries correctness.
        engines = build_engines(objects, signature_bytes=4)
        workload = WorkloadGenerator(
            objects, engines["ir2"].corpus.analyzer, seed=5
        )
        return objects, engines, workload

    @pytest.mark.parametrize("num_keywords,k", [(1, 5), (2, 3), (3, 10)])
    def test_sampled_queries_agree(self, setup, num_keywords, k):
        objects, engines, workload = setup
        for query in workload.queries(4, num_keywords, k):
            assert_equivalent(engines, objects, query)

    def test_zero_match_keywords(self, setup):
        objects, engines, _ = setup
        query = SpatialKeywordQuery.of(
            (0.0, 0.0), ["zzznope", "qqqmissing"], k=5
        )
        assert_equivalent(engines, objects, query)
        for engine in engines.values():
            assert engine.query((0.0, 0.0), ["zzznope"], k=5).results == []

    def test_k_larger_than_matches(self, setup):
        objects, engines, workload = setup
        query = workload.query(num_keywords=3, k=10_000)
        assert_equivalent(engines, objects, query)


class TestTiesAtK:
    """Handcrafted equidistant objects: the tie group at rank k."""

    @pytest.fixture(scope="class")
    def tie_setup(self):
        # Four corners at distance sqrt(2) from the origin plus one object
        # strictly closer and one strictly farther, all sharing a keyword.
        objects_spec = [
            (1, (0.5, 0.0), "cafe wifi"),
            (2, (1.0, 1.0), "cafe garden"),
            (3, (1.0, -1.0), "cafe garden"),
            (4, (-1.0, 1.0), "cafe garden"),
            (5, (-1.0, -1.0), "cafe garden"),
            (6, (5.0, 5.0), "cafe remote"),
        ]
        from repro.model import SpatialObject

        objects = [SpatialObject(oid, pt, text) for oid, pt, text in objects_spec]
        return objects, build_engines(objects, signature_bytes=4)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_every_cut_through_the_tie_group(self, tie_setup, k):
        objects, engines = tie_setup
        query = SpatialKeywordQuery.of((0.0, 0.0), ["cafe"], k=k)
        assert_equivalent(engines, objects, query)

    def test_untied_results_are_identical_lists(self, tie_setup):
        """Without ties in play the five lists agree element for element."""
        objects, engines = tie_setup
        lists = {
            kind: engine.query((0.0, 0.0), ["cafe"], k=1).oids
            for kind, engine in engines.items()
        }
        assert all(oids == [1] for oids in lists.values()), lists


class TestExactTieSweep:
    """Duplicate locations + shared keywords: large exact tie groups.

    Every engine flavor — brute force, all five index kinds, and
    {1, 2, 5}-shard scatter-gather engines — must return byte-identical
    ``(distance, oid)`` answers for every cut through the tie groups.
    """

    SHARD_COUNTS = (1, 2, 5)

    @pytest.fixture(scope="class")
    def tie_world(self):
        import random

        from repro.model import SpatialObject
        from repro.shard import ShardedEngine

        # A 4x4 grid of locations, each hosting 4 objects with exactly
        # duplicated coordinates; keywords overlap heavily so queries
        # match whole co-located groups and ties are exact floats.
        rng = random.Random(99)
        themes = ["cafe wifi", "cafe garden", "cafe wifi garden", "cafe bar"]
        objects = []
        oid = 0
        for gx in range(4):
            for gy in range(4):
                point = (float(gx) * 2.0, float(gy) * 2.0)
                for _ in range(4):
                    objects.append(
                        SpatialObject(oid, point, rng.choice(themes))
                    )
                    oid += 1
        engines = dict(build_engines(objects, signature_bytes=4))
        for n_shards in self.SHARD_COUNTS:
            sharded = ShardedEngine(n_shards=n_shards, index="ir2")
            sharded.add_all(objects)
            sharded.build()
            engines[f"sharded-ir2x{n_shards}"] = sharded
        return objects, engines

    @pytest.mark.parametrize("keywords", [("cafe",), ("cafe", "wifi"),
                                          ("garden",)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 16, 64])
    def test_byte_identical_across_all_engines(self, tie_world, keywords, k):
        objects, engines = tie_world
        # Query from a grid point so several whole groups tie exactly;
        # also from an off-grid point for asymmetric tie groups.
        for point in ((2.0, 2.0), (1.0, 5.0)):
            query = SpatialKeywordQuery.of(point, keywords, k)
            assert_equivalent(engines, objects, query)

    def test_matches_brute_force_reference(self, tie_world):
        from repro.core.search import brute_force_top_k

        objects, engines = tie_world
        analyzer = engines["ir2"].corpus.analyzer
        query = SpatialKeywordQuery.of((2.0, 2.0), ("cafe",), 6)
        reference = [
            (r.distance, r.obj.oid)
            for r in brute_force_top_k(objects, analyzer, query)
        ]
        for kind, engine in engines.items():
            got = [
                (r.distance, r.obj.oid)
                for r in engine.search(query).results
            ]
            assert got == reference, kind


@pytest.mark.slow
class TestDifferentialSweep:
    """The full property-style sweep: seeds x sizes x signature lengths."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n_objects", [120, 400])
    @pytest.mark.parametrize("signature_bytes", [2, 8, 16])
    def test_sweep(self, seed, n_objects, signature_bytes):
        objects = corpus_objects(n_objects, seed=seed)
        engines = build_engines(objects, signature_bytes=signature_bytes)
        workload = WorkloadGenerator(
            objects, engines["ir2"].corpus.analyzer, seed=seed + 100
        )
        for num_keywords in (1, 2, 3):
            for k in (1, 5, 20):
                for query in workload.queries(3, num_keywords, k):
                    assert_equivalent(engines, objects, query)
        # Zero-match and oversized-k edges on every configuration.
        assert_equivalent(
            engines, objects,
            SpatialKeywordQuery.of((0.0, 0.0), ["zzznope"], k=4),
        )
        assert_equivalent(engines, objects, workload.query(2, k=10 * n_objects))
