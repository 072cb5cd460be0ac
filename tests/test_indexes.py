"""Cross-algorithm tests for the uniform index wrappers."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    IIOIndex,
    IR2Index,
    MIR2Index,
    RTreeIndex,
    SpatialKeywordQuery,
    brute_force_top_k,
    make_index,
)
from repro.errors import IndexError_, QueryError


def all_indexes(corpus):
    return [
        RTreeIndex(corpus),
        IIOIndex(corpus),
        IR2Index(corpus, 8),
        MIR2Index(corpus, 8),
    ]


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


class TestAgreement:
    def test_all_algorithms_agree_with_oracle(self, small_corpus, small_objects):
        indexes = all_indexes(small_corpus)
        for index in indexes:
            index.build()
        for query in random_queries(small_corpus, small_objects, 10, 2, 5):
            expected = [r.oid for r in brute_force_top_k(small_objects, small_corpus.analyzer, query)]
            for index in indexes:
                assert index.execute(query).oids == expected, index.label

    def test_insert_built_indexes_agree_too(self, small_corpus, small_objects):
        index = IR2Index(small_corpus, 8)
        index.build(bulk=False)
        for query in random_queries(small_corpus, small_objects, 5, 2, 5, seed=1):
            expected = [r.oid for r in brute_force_top_k(small_objects, small_corpus.analyzer, query)]
            assert index.execute(query).oids == expected


class TestLifecycle:
    def test_query_before_build_rejected(self, small_corpus):
        index = IR2Index(small_corpus, 8)
        with pytest.raises(IndexError_):
            index.execute(SpatialKeywordQuery.of((0, 0), ["x"], 1))

    def test_insert_before_build_rejected(self, small_corpus, small_objects):
        index = IR2Index(small_corpus, 8)
        pointer = next(iter(small_corpus.iter_items()))[0]
        with pytest.raises(IndexError_):
            index.insert_object(pointer, small_objects[0])

    def test_live_insert_visible(self, small_corpus, small_objects):
        from repro.model import SpatialObject

        for index in all_indexes(small_corpus):
            index.build()
            new = SpatialObject(9_999, (12.0, 34.0), "veryuniquekeyword pool")
            pointer = small_corpus.add(new)
            index.insert_object(pointer, new)
            result = index.execute(
                SpatialKeywordQuery.of((12.0, 34.0), ["veryuniquekeyword"], 1)
            )
            assert result.oids == [9_999], index.label
            assert index.delete_object(pointer, new) is True
            result = index.execute(
                SpatialKeywordQuery.of((12.0, 34.0), ["veryuniquekeyword"], 1)
            )
            assert result.oids == [], index.label
            small_corpus.store.delete(9_999)
            small_corpus.vocabulary.remove_document(
                small_corpus.analyzer.terms(new.text)
            )


class TestExecutionMetrics:
    def test_io_delta_isolated_per_query(self, small_corpus, small_objects):
        index = IR2Index(small_corpus, 8)
        index.build()
        query = random_queries(small_corpus, small_objects, 1, 2, 5, seed=2)[0]
        first = index.execute(query)
        second = index.execute(query)
        # Same query, cold metrics both times (no hidden accumulation).
        assert first.io.total_reads == second.io.total_reads
        assert first.objects_inspected == second.objects_inspected

    def test_nodes_visited_counted(self, small_corpus, small_objects):
        index = IR2Index(small_corpus, 8)
        index.build()
        query = random_queries(small_corpus, small_objects, 1, 1, 3, seed=3)[0]
        execution = index.execute(query)
        assert execution.nodes_visited >= 1
        assert execution.algorithm == "IR2"

    def test_size_mb_positive_after_build(self, small_corpus):
        for index in all_indexes(small_corpus):
            index.build()
            assert index.size_mb > 0, index.label

    def test_reset_io(self, small_corpus, small_objects):
        index = IR2Index(small_corpus, 8)
        index.build()
        index.execute(random_queries(small_corpus, small_objects, 1, 1, 1)[0])
        index.reset_io()
        assert index.device.stats.snapshot().total_accesses == 0
        assert small_corpus.device.stats.snapshot().total_accesses == 0


class TestFactory:
    def test_make_index_kinds(self, small_corpus):
        assert make_index("rtree", small_corpus).label == "RTREE"
        assert make_index("IIO", small_corpus).label == "IIO"
        assert make_index("ir2", small_corpus, signature_bytes=4).label == "IR2"
        assert make_index("mir2", small_corpus, signature_bytes=4).label == "MIR2"

    def test_make_index_unknown(self, small_corpus):
        with pytest.raises(QueryError):
            make_index("btree", small_corpus)
