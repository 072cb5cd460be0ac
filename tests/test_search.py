"""Unit and cross-check tests for distance-first search and the R-Tree
baseline (paper Sections V.A and V.B)."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import (
    BulkItem,
    Corpus,
    IR2Tree,
    SpatialKeywordQuery,
    brute_force_top_k,
    bulk_load,
    ir2_top_k,
    ir2_top_k_iter,
)
from repro.spatial import Rect, RTree
from repro.storage import InMemoryBlockDevice, PageStore
from repro.text import HashSignatureFactory


@pytest.fixture
def setup(small_corpus):
    pages = PageStore(InMemoryBlockDevice())
    tree = IR2Tree(pages, HashSignatureFactory(8), capacity=8)
    items = [
        BulkItem(ptr, Rect.from_point(obj.point), small_corpus.analyzer.terms(obj.text))
        for ptr, obj in small_corpus.iter_items()
    ]
    bulk_load(tree, items)
    return small_corpus, tree


def _random_queries(corpus, objects, count, num_keywords, k, seed=0):
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        obj = rng.choice(objects)
        terms = sorted(corpus.analyzer.terms(obj.text))
        keywords = rng.sample(terms, min(num_keywords, len(terms)))
        point = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        queries.append(SpatialKeywordQuery.of(point, keywords, k))
    return queries


class TestIR2TopK:
    def test_matches_brute_force(self, setup, small_objects):
        corpus, tree = setup
        for query in _random_queries(corpus, small_objects, 15, 2, 5):
            got = ir2_top_k(tree, corpus.store, corpus.analyzer, query)
            want = brute_force_top_k(small_objects, corpus.analyzer, query)
            assert [r.oid for r in got.results] == [r.oid for r in want]

    def test_results_sorted_by_distance(self, setup, small_objects):
        corpus, tree = setup
        query = _random_queries(corpus, small_objects, 1, 1, 20, seed=3)[0]
        outcome = ir2_top_k(tree, corpus.store, corpus.analyzer, query)
        distances = [r.distance for r in outcome.results]
        assert distances == sorted(distances)

    def test_every_result_contains_all_keywords(self, setup, small_objects):
        corpus, tree = setup
        for query in _random_queries(corpus, small_objects, 10, 2, 10, seed=4):
            outcome = ir2_top_k(tree, corpus.store, corpus.analyzer, query)
            for result in outcome.results:
                assert corpus.analyzer.contains_all(
                    result.obj.text, query.keywords
                )

    def test_no_matches_returns_empty(self, setup):
        corpus, tree = setup
        query = SpatialKeywordQuery.of((0, 0), ["nonexistentword"], 5)
        outcome = ir2_top_k(tree, corpus.store, corpus.analyzer, query)
        assert outcome.results == []

    def test_k_larger_than_matches(self, setup, small_objects):
        corpus, tree = setup
        query = _random_queries(corpus, small_objects, 1, 3, 10_000, seed=5)[0]
        outcome = ir2_top_k(tree, corpus.store, corpus.analyzer, query)
        want = brute_force_top_k(small_objects, corpus.analyzer, query)
        assert len(outcome.results) == len(want)

    def test_false_positive_counter(self, setup, small_objects):
        corpus, tree = setup
        total_fp = 0
        for query in _random_queries(corpus, small_objects, 10, 2, 5, seed=6):
            outcome = ir2_top_k(tree, corpus.store, corpus.analyzer, query)
            counters = outcome.counters
            # Every inspected object is either a returned result, a
            # signature false positive, or a verified match at the k-th
            # distance that the deterministic (distance, oid) tie cut
            # dropped — never anything unaccounted for.
            accounted = len(outcome.results) + counters.false_positives
            assert counters.objects_inspected >= accounted
            overdrain = counters.objects_inspected - accounted
            kth = outcome.results[-1].distance if outcome.results else None
            if overdrain:
                # Over-inspection can only come from draining the tie
                # group at the k-th distance plus the single match past
                # it that proves the group ended; the brute-force oracle
                # bounds the group size.
                unbounded = SpatialKeywordQuery.of(
                    query.point, query.keywords, 10_000
                )
                ties_at_kth = sum(
                    r.distance == kth
                    for r in brute_force_top_k(
                        small_objects, corpus.analyzer, unbounded
                    )
                )
                assert overdrain <= ties_at_kth
            total_fp += counters.false_positives
        assert total_fp >= 0  # may be zero with lucky hashing

    def test_incremental_iterator_is_lazy(self, setup, small_objects):
        corpus, tree = setup
        query = _random_queries(corpus, small_objects, 1, 1, 1, seed=7)[0]
        iterator = ir2_top_k_iter(tree, corpus.store, corpus.analyzer, query)
        first = next(iterator)
        assert corpus.analyzer.contains_all(first.obj.text, query.keywords)
        # Pulling more keeps yielding farther matches.
        more = list(itertools.islice(iterator, 3))
        for earlier, later in zip([first] + more, more):
            assert earlier.distance <= later.distance + 1e-9


class TestRTreeBaseline:
    def test_matches_brute_force(self, small_corpus, small_objects):
        pages = PageStore(InMemoryBlockDevice())
        tree = RTree(pages, capacity=8)
        for ptr, obj in small_corpus.iter_items():
            tree.insert(ptr, Rect.from_point(obj.point))
        for query in _random_queries(small_corpus, small_objects, 10, 2, 5, seed=8):
            got = ir2_top_k(tree, small_corpus.store, small_corpus.analyzer, query)
            want = brute_force_top_k(small_objects, small_corpus.analyzer, query)
            assert [r.oid for r in got.results] == [r.oid for r in want]

    def test_baseline_inspects_more_objects_than_ir2(self, setup, small_objects):
        """The whole point of the paper: signature pruning loads fewer
        objects than fetch-and-filter."""
        corpus, ir2tree = setup
        pages = PageStore(InMemoryBlockDevice())
        plain = RTree(pages, capacity=8)
        for ptr, obj in corpus.iter_items():
            plain.insert(ptr, Rect.from_point(obj.point))
        baseline_total = 0
        ir2_total = 0
        for query in _random_queries(corpus, small_objects, 12, 2, 5, seed=9):
            baseline_total += ir2_top_k(
                plain, corpus.store, corpus.analyzer, query
            ).counters.objects_inspected
            ir2_total += ir2_top_k(
                ir2tree, corpus.store, corpus.analyzer, query
            ).counters.objects_inspected
        assert ir2_total < baseline_total


class TestBruteForceOracle:
    def test_tie_break_by_oid(self, small_corpus):
        from repro.model import SpatialObject

        objects = [
            SpatialObject(5, (1.0, 0.0), "pool"),
            SpatialObject(2, (1.0, 0.0), "pool"),
        ]
        query = SpatialKeywordQuery.of((0, 0), ["pool"], 2)
        result = brute_force_top_k(objects, small_corpus.analyzer, query)
        assert [r.oid for r in result] == [2, 5]

    def test_filters_non_matching(self, small_corpus):
        from repro.model import SpatialObject

        objects = [SpatialObject(1, (0.0, 0.0), "spa only")]
        query = SpatialKeywordQuery.of((0, 0), ["pool"], 1)
        assert brute_force_top_k(objects, small_corpus.analyzer, query) == []
