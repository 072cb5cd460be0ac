"""Keyword-aware partitioning and shard routing: the PR-9 acceptance suite.

Covers the coordinator-side keyword routing end to end:

* :class:`~repro.shard.KeywordAwarePartitioner` — term-vector clustering
  seeded from the kd split: balance cap, serialization round trip,
  points-only fallback, registry wiring;
* :class:`~repro.shard.KeywordSummary` — the per-shard Bloom filter: no
  false negatives, conjunctive/disjunctive routing tests, staleness
  accounting, JSON round trip;
* the differential harness — a keyword-partitioned
  :class:`~repro.shard.ShardedEngine` must answer every query kind
  (point, area, ranked, zero-match) tie-aware equivalently to a single
  engine over the same corpus, for every index kind and shard count;
* fan-out accounting — selective queries skip shards *before* any shard
  I/O, surfaced via ``pruned_by_keywords`` in per-shard reports, the
  ``shard.fanout.pruned_by_keywords`` counter, and trace spans; and the
  keyword partitioner never fans out wider than the spatial ones;
* summary maintenance — live inserts tighten the owning shard's filter,
  enough effective deletes trigger a rebuild;
* persistence — summaries ride in the sharded manifest; manifests
  written before the field existed load fine and rebuild summaries.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.core.ranking import LinearRanking
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.model import SpatialObject
from repro.persist import load_engine, save_engine
from repro.shard import (
    KeywordAwarePartitioner,
    KeywordSummary,
    ShardedEngine,
    make_partitioner,
    partitioner_from_dict,
)
from repro.spatial.geometry import Rect, target_point_distance

EPS = 1e-9

KINDS = ("ir2", "mir2", "rtree", "iio", "sig")
SHARD_COUNTS = (1, 2, 5)

#: Disjoint term themes; objects of one theme share no keywords with any
#: other theme, so a clustering partitioner can isolate them perfectly.
THEMES = (
    ("espresso", "latte", "roast"),
    ("sushi", "ramen", "tempura"),
    ("taco", "salsa", "churro"),
    ("bagel", "lox", "schmear"),
)


def corpus_objects(n_objects, seed, vocabulary=300, avg_words=8, clusters=5):
    config = DatasetConfig(
        name=f"routing-{n_objects}-{seed}",
        n_objects=n_objects,
        vocabulary_size=vocabulary,
        avg_unique_words=avg_words,
        clusters=clusters,
        seed=seed,
    )
    return SpatialTextDatasetGenerator(config).generate()


def themed_objects(per_theme: int = 40) -> list[SpatialObject]:
    """``len(THEMES)`` spatially-interleaved single-theme populations.

    Spatial position carries no signal about the theme (all themes share
    the same grid), so a purely spatial partitioner cannot separate them
    — keyword routing has to do the work.
    """
    objects = []
    for t, theme in enumerate(THEMES):
        for i in range(per_theme):
            oid = t * per_theme + i
            point = (float((oid * 7) % 40), float((oid * 13) % 40))
            words = [theme[i % len(theme)], theme[(i + 1) % len(theme)]]
            objects.append(SpatialObject(oid, point, " ".join(words)))
    return objects


def build_sharded(objects, kind, n_shards, **kwargs):
    engine = ShardedEngine(n_shards=n_shards, index=kind,
                           signature_bytes=4, **kwargs)
    engine.add_all(objects)
    engine.build()
    return engine


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


def shards_searched(execution) -> int:
    return sum(1 for r in execution.shards if not r["pruned"])


def shards_keyword_pruned(execution) -> int:
    return sum(1 for r in execution.shards if r.get("pruned_by_keywords"))


# ---------------------------------------------------------------------------
# Partitioner
# ---------------------------------------------------------------------------


class TestKeywordAwarePartitioner:
    def test_registry_and_ranges(self):
        part = make_partitioner("keyword", 4)
        assert isinstance(part, KeywordAwarePartitioner)
        objects = themed_objects()
        part.fit_objects(objects)
        for obj in objects:
            assert 0 <= part.assign_object(obj) < 4
        # Points-only API still works (kd fallback inside).
        assert 0 <= part.assign((0.0, 0.0)) < 4

    def test_concentrates_themes_better_than_kd(self):
        # Refinement is a local search under a balance cap, so perfect
        # one-theme-per-shard isolation is not guaranteed; what matters
        # for routing is that each theme touches strictly fewer shards
        # than the spatial seed spreads it across.
        objects = themed_objects()
        keyword = KeywordAwarePartitioner(len(THEMES))
        keyword.fit_objects(objects)
        kd = make_partitioner("kd", len(THEMES))
        kd.fit([o.point for o in objects])
        for theme in THEMES:
            themed = [o for o in objects if o.text.split()[0] in theme]
            spread = {keyword.assign_object(o) for o in themed}
            kd_spread = {kd.assign(o.point) for o in themed}
            assert len(spread) <= 2, f"theme {theme} split across {spread}"
            assert len(spread) < len(kd_spread)

    def test_balance_cap_holds(self):
        # Every object carries the same single term: term overlap pulls
        # everything toward one shard, so only the cap keeps balance.
        objects = [
            SpatialObject(i, (float(i % 11), float(i % 7)), "monoculture")
            for i in range(120)
        ]
        part = KeywordAwarePartitioner(4)
        part.fit_objects(objects)
        counts = [0] * 4
        for obj in objects:
            counts[part.assign_object(obj)] += 1
        cap = -(-len(objects) // 4 * 13 // 10)  # ceil(n/shards * 1.3)
        assert max(counts) <= cap

    def test_dict_round_trip_preserves_routing_state(self):
        objects = themed_objects()
        part = KeywordAwarePartitioner(4)
        part.fit_objects(objects)
        clone = partitioner_from_dict(json.loads(json.dumps(part.to_dict())))
        assert isinstance(clone, KeywordAwarePartitioner)
        assert clone.to_dict() == part.to_dict()
        # Objects not seen at fit time route identically (existing
        # members are carried by the shard corpora, not re-assigned).
        for oid, point, text in [
            (9999, (3.0, 3.0), "sushi tempura"),
            (9998, (30.0, 10.0), "espresso churro"),
            (9997, (1.0, 1.0), ""),
        ]:
            fresh = SpatialObject(oid, point, text)
            assert clone.assign_object(fresh) == part.assign_object(fresh)

    def test_points_only_fit_falls_back_to_kd(self):
        points = [(float(i), float(i % 13)) for i in range(100)]
        part = KeywordAwarePartitioner(4)
        part.fit(points)
        assignments = {part.assign(p) for p in points}
        assert assignments <= set(range(4))
        # Objects with no recognizable terms route spatially too.
        blank = SpatialObject(1, (2.0, 2.0), "")
        assert part.assign_object(blank) == part.assign((2.0, 2.0))


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------


class TestKeywordSummary:
    def test_no_false_negatives(self):
        summary = KeywordSummary()
        terms = [f"word{i}" for i in range(500)]
        for term in terms:
            summary.add_terms([term])
        assert all(summary.may_contain(t) for t in terms)
        assert summary.may_contain_all(terms[:10])
        assert summary.may_contain_any(["nope", terms[0]])

    def test_absent_terms_prune(self):
        summary = KeywordSummary()
        summary.add_terms(["espresso", "latte"])
        assert not summary.may_contain("zzznope")
        assert not summary.may_contain_all(["espresso", "zzznope"])
        assert not summary.may_contain_any(["zzznope", "qqqnada"])

    def test_empty_query_terms_never_prune(self):
        summary = KeywordSummary()
        assert summary.may_contain_all([])
        assert summary.may_contain_any([])

    def test_staleness_and_rebuild(self):
        summary = KeywordSummary()
        summary.add_terms(["espresso"])
        summary.note_delete()
        assert summary.stale_deletes == 1
        assert summary.may_contain("espresso")  # bits never clear per-doc
        summary.rebuild([["sushi"], ["ramen"]])
        assert summary.stale_deletes == 0
        assert not summary.may_contain("espresso")
        assert summary.may_contain("sushi") and summary.may_contain("ramen")

    def test_json_round_trip(self):
        summary = KeywordSummary(length_bytes=64, bits_per_word=2, seed=7)
        summary.add_terms(["espresso", "latte", "roast"])
        summary.note_delete()
        clone = KeywordSummary.from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert clone.bits == summary.bits
        assert clone.stale_deletes == 1
        assert clone.factory.length_bytes == 64
        for term in ("espresso", "latte", "roast", "zzznope"):
            assert clone.may_contain(term) == summary.may_contain(term)

    def test_copy_is_independent(self):
        summary = KeywordSummary()
        summary.add_terms(["espresso"])
        clone = summary.copy()
        clone.add_terms(["sushi"])
        assert not summary.may_contain("sushi")
        assert clone.may_contain("espresso")


# ---------------------------------------------------------------------------
# Differential: keyword-partitioned sharded engine vs the oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def routing_corpus():
    return corpus_objects(150, seed=23)


class TestKeywordPartitionedEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_point_queries_match_oracle(self, routing_corpus, kind, n_shards):
        objects = routing_corpus
        sharded = build_sharded(objects, kind, n_shards,
                                partitioner="keyword")
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
    def test_matches_single_engine_answers(self, routing_corpus, n_shards):
        objects = routing_corpus
        single = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        single.add_all(objects)
        single.build()
        sharded = build_sharded(objects, "ir2", n_shards,
                                partitioner="keyword")
        terms = sorted(sharded._global_vocabulary().terms())
        for point, keywords, k in [
            ((20.0, 20.0), [terms[0]], 4),
            ((80.0, 30.0), [terms[3]], 6),
            ((50.0, 50.0), [terms[0], terms[4]], 5),
            ((50.0, 50.0), ["zzznope"], 5),
        ]:
            query = SpatialKeywordQuery.of(point, keywords, k)
            got = [(r.obj.oid, r.distance)
                   for r in sharded.search(query).results]
            want = [(r.obj.oid, r.distance)
                    for r in single.search(query).results]
            assert got == want, (point, keywords, k)

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_area_queries_match_oracle(self, routing_corpus, n_shards):
        objects = routing_corpus
        sharded = build_sharded(objects, "ir2", n_shards,
                                partitioner="keyword")
        terms = sorted(sharded._global_vocabulary().terms())
        query = SpatialKeywordQuery.of_area(
            Rect((0.0, 0.0), (60.0, 60.0)), [terms[0]], 8
        )
        assert_tie_equivalent(
            sharded.search(query), objects, sharded.analyzer, query
        )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_ranked_queries_match_single_engine(self, routing_corpus,
                                                n_shards):
        objects = routing_corpus
        single = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        single.add_all(objects)
        single.build()
        sharded = build_sharded(objects, "ir2", n_shards,
                                partitioner="keyword")
        terms = sorted(sharded._global_vocabulary().terms())
        ranking = LinearRanking(max_distance=200.0)
        for keywords in ([terms[0]], [terms[1], terms[2]], ["zzznope"]):
            query = SpatialKeywordQuery.of(
                (50.0, 50.0), keywords, 6, ranking=ranking
            )
            got = sorted(
                (round(r.score, 9), r.obj.oid)
                for r in sharded.search(query).results
            )
            want = sorted(
                (round(r.score, 9), r.obj.oid)
                for r in single.search(query).results
            )
            assert got == want, keywords


# ---------------------------------------------------------------------------
# Fan-out accounting
# ---------------------------------------------------------------------------


class TestKeywordFanout:
    def test_selective_query_skips_shards(self):
        from repro.obs import MetricsRegistry

        objects = themed_objects()
        sharded = build_sharded(objects, "ir2", len(THEMES),
                                partitioner="keyword",
                                metrics=MetricsRegistry())
        execution = sharded.query((20.0, 20.0), ["espresso"], k=5)
        assert shards_keyword_pruned(execution) >= 1
        assert shards_searched(execution) < len(THEMES)
        # Pruning is loss-free: the answers match the oracle.
        query = SpatialKeywordQuery.of((20.0, 20.0), ["espresso"], 5)
        assert_tie_equivalent(
            execution, objects, sharded.analyzer, query
        )
        pruned = sharded.metrics.counter(
            "shard.fanout.pruned_by_keywords").value
        assert pruned >= 1

    def test_zero_match_query_prunes_everywhere(self):
        objects = themed_objects()
        sharded = build_sharded(objects, "ir2", len(THEMES),
                                partitioner="keyword")
        execution = sharded.query((20.0, 20.0), ["zzznope"], k=5)
        assert execution.results == []
        assert shards_keyword_pruned(execution) == len(THEMES)
        assert shards_searched(execution) == 0

    def test_ubiquitous_term_is_never_keyword_pruned(self):
        # One term present in every shard: keyword routing cannot prune
        # (no false negatives), so every nonempty shard is consulted.
        objects = [
            SpatialObject(o.oid, o.point, o.text + " everywhere")
            for o in themed_objects()
        ]
        sharded = build_sharded(objects, "ir2", len(THEMES),
                                partitioner="keyword")
        execution = sharded.query((20.0, 20.0), ["everywhere"], k=3)
        assert shards_keyword_pruned(execution) == 0
        assert execution.results

    def test_ranked_prunes_only_all_absent_shards(self):
        objects = themed_objects()
        sharded = build_sharded(objects, "ir2", len(THEMES),
                                partitioner="keyword")
        ranking = LinearRanking(max_distance=100.0)
        # One real theme term + one nonsense term: shards holding
        # espresso still score (disjunctive test), the others prune.
        query = SpatialKeywordQuery.of(
            (20.0, 20.0), ["espresso", "zzznope"], 5, ranking=ranking
        )
        execution = sharded.search(query)
        assert execution.results  # partial matches still rank
        assert 1 <= shards_keyword_pruned(execution) < len(THEMES)

    def test_keyword_fanout_never_exceeds_spatial(self):
        objects = themed_objects()
        queries = [
            SpatialKeywordQuery.of((20.0, 20.0), [theme[0]], 5)
            for theme in THEMES
        ]
        fanout = {}
        for partitioner in ("kd", "keyword"):
            sharded = build_sharded(objects, "ir2", len(THEMES),
                                    partitioner=partitioner)
            fanout[partitioner] = sum(
                shards_searched(sharded.search(q)) for q in queries
            )
        assert fanout["keyword"] <= fanout["kd"]
        # On this themed corpus the clustering must strictly win.
        assert fanout["keyword"] < fanout["kd"]

    def test_report_rows_and_trace_carry_the_outcome(self):
        objects = themed_objects()
        sharded = build_sharded(objects, "ir2", len(THEMES),
                                partitioner="keyword")
        execution = sharded.query((20.0, 20.0), ["sushi"], k=4)
        for row in execution.shards:
            assert "pruned_by_keywords" in row
            if row["pruned_by_keywords"]:
                assert row["pruned"]
        payload = execution.to_dict()
        json.dumps(payload)
        assert payload["shards"] == execution.shards


# ---------------------------------------------------------------------------
# Summary maintenance on the live write path
# ---------------------------------------------------------------------------


class TestSummaryMaintenance:
    def test_live_insert_tightens_owning_shard(self):
        objects = themed_objects()
        sharded = build_sharded(objects, "ir2", len(THEMES),
                                partitioner="keyword")
        before = [
            s is not None and s.may_contain("xylograph")
            for s in sharded.summaries
        ]
        assert not any(before)
        sharded.add_object(9000, (5.0, 5.0), "xylograph espresso")
        owner = sharded.shard_of(9000)
        summary = sharded.summaries[owner]
        assert summary.may_contain("xylograph")
        execution = sharded.query((5.0, 5.0), ["xylograph"], k=2)
        assert execution.oids == [9000]
        # Every other shard is keyword-pruned for the new term.
        assert shards_keyword_pruned(execution) == len(THEMES) - 1

    def test_enough_deletes_rebuild_the_summary(self):
        objects = themed_objects()
        sharded = build_sharded(objects, "ir2", len(THEMES),
                                partitioner="keyword")
        # Delete every document mentioning "roast", shard by shard.
        roast_shards = {
            shard_id
            for shard_id, shard in enumerate(sharded.shards)
            if any("roast" in o.text.split() for o in shard.objects())
        }
        assert roast_shards
        for shard_id in roast_shards:
            assert sharded.summaries[shard_id].may_contain("roast")
            roast_oids = [
                obj.oid
                for obj in sharded.shards[shard_id].objects()
                if "roast" in obj.text.split()
            ]
            assert len(roast_oids) >= 8  # crosses SUMMARY_STALE_MIN
            for oid in roast_oids:
                assert sharded.delete(oid)
            summary = sharded.summaries[shard_id]
            assert not summary.may_contain("roast")
            assert summary.stale_deletes < len(roast_oids)
        # Queries for the gone term now prune every shard.
        execution = sharded.query((20.0, 20.0), ["roast"], k=5)
        assert execution.results == []
        assert shards_keyword_pruned(execution) == len(THEMES)

    def test_build_recomputes_summaries(self):
        engine = ShardedEngine(n_shards=2, partitioner="keyword",
                               index="ir2", signature_bytes=4)
        engine.add_all(themed_objects(per_theme=10))
        engine.build()
        assert all(s is not None for s in engine.summaries)
        assert any(
            s.may_contain("espresso") for s in engine.summaries
        )


# ---------------------------------------------------------------------------
# Persistence: summaries in the manifest, legacy manifests without them
# ---------------------------------------------------------------------------


class TestRoutingPersistence:
    def test_round_trip_preserves_summaries_and_pruning(self, tmp_path):
        directory = str(tmp_path / "engine")
        objects = themed_objects()
        sharded = build_sharded(objects, "ir2", len(THEMES),
                                partitioner="keyword")
        ref = sharded.query((20.0, 20.0), ["espresso"], k=5)
        bits = [s.bits for s in sharded.summaries]
        save_engine(sharded, directory)
        manifest = json.load(open(os.path.join(directory, "manifest.json")))
        assert manifest["partitioner"]["kind"] == "keyword"
        assert len(manifest["summaries"]) == len(THEMES)
        reloaded = load_engine(directory)
        assert [s.bits for s in reloaded.summaries] == bits
        got = reloaded.query((20.0, 20.0), ["espresso"], k=5)
        assert got.oids == ref.oids
        assert shards_keyword_pruned(got) == shards_keyword_pruned(ref)

    def test_legacy_manifest_without_summaries_loads(self, tmp_path):
        directory = str(tmp_path / "engine")
        objects = themed_objects()
        sharded = build_sharded(objects, "ir2", len(THEMES),
                                partitioner="keyword")
        ref = sharded.query((20.0, 20.0), ["sushi"], k=5)
        save_engine(sharded, directory)
        # Rewrite the manifest as a pre-summary writer would have: the
        # field is additive, digests only cover the shard manifests.
        path = os.path.join(directory, "manifest.json")
        manifest = json.load(open(path))
        del manifest["summaries"]
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        reloaded = load_engine(directory)
        # Summaries were rebuilt from the shard corpora: routing
        # prunes exactly as before the round trip.
        assert all(s is not None for s in reloaded.summaries)
        got = reloaded.query((20.0, 20.0), ["sushi"], k=5)
        assert got.oids == ref.oids
        assert shards_keyword_pruned(got) == shards_keyword_pruned(ref)
