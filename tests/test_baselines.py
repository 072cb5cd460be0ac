"""Unit tests for the IIO baseline (paper Figure 7)."""

from __future__ import annotations

import random

import pytest

from repro.core import SpatialKeywordQuery, brute_force_top_k, iio_top_k
from repro.storage import InMemoryBlockDevice
from repro.text import InvertedIndex


@pytest.fixture
def index(small_corpus):
    idx = InvertedIndex(InMemoryBlockDevice(), small_corpus.analyzer)
    idx.build((ptr, obj.text) for ptr, obj in small_corpus.iter_items())
    return idx


def random_queries(corpus, objects, count, num_keywords, k, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        obj = rng.choice(objects)
        terms = sorted(corpus.analyzer.terms(obj.text))
        keywords = rng.sample(terms, min(num_keywords, len(terms)))
        out.append(
            SpatialKeywordQuery.of(
                (rng.uniform(-90, 90), rng.uniform(-180, 180)), keywords, k
            )
        )
    return out


class TestIIOTopK:
    def test_matches_brute_force(self, small_corpus, small_objects, index):
        for query in random_queries(small_corpus, small_objects, 12, 2, 5):
            got = iio_top_k(index, small_corpus.store, query)
            want = brute_force_top_k(small_objects, small_corpus.analyzer, query)
            assert [r.oid for r in got.results] == [r.oid for r in want]

    def test_inspections_independent_of_k(self, small_corpus, small_objects, index):
        """IIO is non-incremental: it always materializes the whole
        intersection (Section V.A / the flat IIO lines of Figures 9, 12)."""
        base = random_queries(small_corpus, small_objects, 1, 1, 1, seed=2)[0]
        inspected = []
        for k in (1, 5, 50):
            query = SpatialKeywordQuery(base.point, base.keywords, k)
            outcome = iio_top_k(index, small_corpus.store, query)
            inspected.append(outcome.counters.objects_inspected)
        assert inspected[0] == inspected[1] == inspected[2]

    def test_no_matching_keyword(self, small_corpus, index):
        query = SpatialKeywordQuery.of((0, 0), ["nonexistentword"], 5)
        outcome = iio_top_k(index, small_corpus.store, query)
        assert outcome.results == []
        assert outcome.counters.objects_inspected == 0

    def test_results_sorted_by_distance(self, small_corpus, small_objects, index):
        query = random_queries(small_corpus, small_objects, 1, 1, 25, seed=3)[0]
        outcome = iio_top_k(index, small_corpus.store, query)
        distances = [r.distance for r in outcome.results]
        assert distances == sorted(distances)

    def test_io_profile_reads_postings_then_objects(self, small_corpus, small_objects, index):
        query = random_queries(small_corpus, small_objects, 1, 2, 5, seed=4)[0]
        index.device.stats.reset()
        small_corpus.device.stats.reset()
        outcome = iio_top_k(index, small_corpus.store, query)
        if outcome.counters.objects_inspected:
            assert index.device.stats.snapshot().category_reads("postings") >= 1
            assert small_corpus.device.stats.objects_loaded == (
                outcome.counters.objects_inspected
            )
