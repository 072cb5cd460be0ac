"""Tests for the S-Tree [Dep86], the IR2-Tree's textual ancestor."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TreeInvariantError
from repro.storage import InMemoryBlockDevice, PageStore
from repro.text.analyzer import DEFAULT_ANALYZER
from repro.text.signature import HashSignatureFactory
from repro.text.stree import STree


def make_tree(capacity=8, signature_bytes=8, seed=3):
    return STree(
        PageStore(InMemoryBlockDevice()),
        DEFAULT_ANALYZER,
        HashSignatureFactory(signature_bytes, 3, seed=seed),
        capacity=capacity,
    )


def random_docs(n, vocab=40, words=5, seed=0):
    rng = random.Random(seed)
    return [
        (i, " ".join(f"w{rng.randrange(vocab)}" for _ in range(words)))
        for i in range(n)
    ]


class TestConstruction:
    def test_empty_tree(self):
        tree = make_tree()
        assert tree.height == 1
        assert tree.size == 0
        tree.validate()
        assert tree.candidates(["anything"]) == []

    def test_capacity_validated(self):
        with pytest.raises(TreeInvariantError):
            make_tree(capacity=1)

    def test_inserts_split_and_balance(self):
        tree = make_tree(capacity=4)
        for pointer, text in random_docs(60):
            tree.insert(pointer, text)
        assert tree.height >= 2
        assert tree.size == 60
        tree.validate()

    def test_disk_resident(self):
        tree = make_tree()
        for pointer, text in random_docs(30):
            tree.insert(pointer, text)
        stats = tree.pages.device.stats
        stats.reset()
        tree.candidates(["w1"])
        assert stats.snapshot().category_reads("node") >= 1


class TestCandidates:
    def test_no_false_negatives(self):
        docs = random_docs(80, seed=5)
        tree = make_tree(capacity=6)
        for pointer, text in docs:
            tree.insert(pointer, text)
        for pointer, text in docs:
            terms = sorted(DEFAULT_ANALYZER.terms(text))[:2]
            assert pointer in tree.candidates(terms)

    def test_empty_keywords_give_nothing(self):
        tree = make_tree()
        tree.insert(0, "pool spa")
        assert tree.candidates([]) == []

    def test_conjunction_semantics(self):
        tree = make_tree(signature_bytes=64)  # long sigs: few false drops
        tree.insert(1, "alpha beta")
        tree.insert(2, "alpha gamma")
        tree.insert(3, "beta gamma")
        candidates = tree.candidates(["alpha", "beta"])
        assert 1 in candidates
        # With 64-byte signatures over 3 tiny documents the false-drop
        # probability is negligible.
        assert candidates == [1]

    def test_pruning_actually_happens(self):
        """A query on a word absent from the corpus should skip subtrees."""
        docs = random_docs(120, vocab=20, seed=7)
        tree = make_tree(capacity=6, signature_bytes=64)
        for pointer, text in docs:
            tree.insert(pointer, text)
        stats = tree.pages.device.stats
        stats.reset()
        assert tree.candidates(["absentword"]) == []
        total_nodes = sum(1 for _ in tree.iter_nodes())
        assert stats.snapshot().category_reads("node") < total_nodes

    def test_similarity_grouping_beats_random_grouping(self):
        """The least-weight-increase heuristic should visit fewer nodes
        than chance for selective queries (S-Tree's entire point)."""
        rng = random.Random(11)
        # Two disjoint topic vocabularies.
        docs = []
        for i in range(120):
            topic = "a" if i % 2 == 0 else "b"
            words = " ".join(f"{topic}{rng.randrange(15)}" for _ in range(5))
            docs.append((i, words))
        tree = make_tree(capacity=6, signature_bytes=32)
        for pointer, text in docs:
            tree.insert(pointer, text)
        stats = tree.pages.device.stats
        stats.reset()
        tree.candidates(["a1", "a2"])
        visited = stats.snapshot().category_reads("node")
        total = sum(1 for _ in tree.iter_nodes())
        assert visited < total  # at least some cross-topic pruning


@given(
    docs=st.lists(
        st.lists(st.sampled_from([f"w{i}" for i in range(25)]),
                 min_size=1, max_size=5),
        min_size=1,
        max_size=50,
    ),
    query=st.lists(st.sampled_from([f"w{i}" for i in range(25)]),
                   min_size=1, max_size=2, unique=True),
)
@settings(max_examples=50, deadline=None)
def test_property_candidates_superset_of_true_matches(docs, query):
    """S-Tree candidates always include every true conjunctive match."""
    tree = make_tree(capacity=4, signature_bytes=4)
    corpus = [(i, " ".join(words)) for i, words in enumerate(docs)]
    for pointer, text in corpus:
        tree.insert(pointer, text)
    tree.validate()
    truth = {
        pointer
        for pointer, text in corpus
        if set(query) <= set(text.split())
    }
    assert truth <= set(tree.candidates(query))


class TestSTreeIndexIntegration:
    def test_factory_kind(self, small_corpus):
        from repro.core import make_index

        index = make_index("stree", small_corpus, signature_bytes=8)
        assert index.label == "STREE"

    def test_engine_agrees_with_oracle(self, small_objects):
        import random as _random

        from repro import SpatialKeywordEngine
        from repro.core import SpatialKeywordQuery, brute_force_top_k

        engine = SpatialKeywordEngine(index="stree", signature_bytes=16)
        engine.add_all(small_objects)
        engine.build()
        rng = _random.Random(13)
        for _ in range(6):
            anchor = rng.choice(small_objects)
            terms = sorted(engine.corpus.analyzer.terms(anchor.text))
            keywords = rng.sample(terms, min(2, len(terms)))
            query = SpatialKeywordQuery.of(
                (rng.uniform(-90, 90), rng.uniform(-180, 180)), keywords, 5
            )
            expected = [
                r.oid
                for r in brute_force_top_k(
                    small_objects, engine.corpus.analyzer, query
                )
            ]
            assert engine.index.execute(query).oids == expected

    def test_live_insert(self, small_objects):
        from repro import SpatialKeywordEngine, SpatialObject

        engine = SpatialKeywordEngine(index="stree", signature_bytes=16)
        engine.add_all(small_objects)
        engine.build()
        engine.add(SpatialObject(5_555, (3.0, 4.0), "freshstreeword pool"))
        result = engine.query((3.0, 4.0), ["freshstreeword"], k=1)
        assert result.oids == [5_555]

    def test_delete_unsupported(self, small_objects):
        from repro import SpatialKeywordEngine
        from repro.errors import IndexError_

        engine = SpatialKeywordEngine(index="stree", signature_bytes=16)
        engine.add_all(small_objects)
        engine.build()
        with pytest.raises(IndexError_):
            engine.delete(small_objects[0].oid)

    def test_persistence_unsupported_with_clear_error(self, small_objects, tmp_path):
        from repro import SpatialKeywordEngine
        from repro.errors import DatasetError
        from repro.persist import save_engine

        engine = SpatialKeywordEngine(index="stree", signature_bytes=16)
        engine.add_all(small_objects)
        engine.build()
        with pytest.raises(DatasetError):
            save_engine(engine, str(tmp_path / "saved"))
