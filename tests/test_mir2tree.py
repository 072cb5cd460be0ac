"""Unit tests for the MIR2-Tree (per-level signatures, costly upkeep)."""

from __future__ import annotations

import random

import pytest

from repro.core import Corpus, MIR2Tree, plan_level_lengths
from repro.core.schemes import MIR2Scheme
from repro.model import SpatialObject
from repro.storage import InMemoryBlockDevice, PageStore
from repro.text import Signature


def make_corpus(n=40, vocab=30, words=5, seed=1):
    rng = random.Random(seed)
    corpus = Corpus()
    for i in range(n):
        text = " ".join(f"w{rng.randrange(vocab)}" for _ in range(words))
        corpus.add(SpatialObject(i, (rng.uniform(0, 50), rng.uniform(0, 50)), text))
    return corpus


def make_tree(corpus, level_lengths=(4, 8, 16), capacity=4):
    pages = PageStore(InMemoryBlockDevice())
    return MIR2Tree(pages, level_lengths, corpus.term_resolver, capacity=capacity)


def fill(tree, corpus):
    for pointer, obj in corpus.iter_items():
        tree.insert_object(pointer, obj.point, corpus.analyzer.terms(obj.text))


class TestLevelLengths:
    def test_lengths_clamped_to_last(self):
        corpus = make_corpus(4)
        tree = make_tree(corpus, level_lengths=(4, 8))
        assert tree.scheme.length_for_level(0) == 4
        assert tree.scheme.length_for_level(1) == 8
        assert tree.scheme.length_for_level(7) == 8

    def test_empty_level_list_rejected(self):
        corpus = make_corpus(2)
        with pytest.raises(ValueError):
            make_tree(corpus, level_lengths=())

    def test_planned_levels_are_nondecreasing(self):
        lengths = plan_level_lengths(8, 14.0, 70_000, 113)
        assert lengths[0] == 8
        assert all(b >= a for a, b in zip(lengths, lengths[1:]))

    def test_planned_levels_saturate_at_vocabulary(self):
        lengths = plan_level_lengths(8, 14.0, 1_000, 113)
        # Once a subtree covers the whole vocabulary the length stops
        # growing: the tail of the list is constant.
        assert lengths[-1] == lengths[-2]

    def test_planned_levels_degenerate_corpus(self):
        assert plan_level_lengths(8, 0.0, 0, 113) == [8] * 8

    def test_with_planned_levels_constructor(self):
        corpus = make_corpus(30)
        pages = PageStore(InMemoryBlockDevice())
        tree = MIR2Tree.with_planned_levels(
            pages, 4, 5.0, 30, corpus.term_resolver, capacity=4
        )
        fill(tree, corpus)
        tree.validate()


class TestStructure:
    def test_entries_store_level_appropriate_lengths(self):
        corpus = make_corpus(60, seed=2)
        tree = make_tree(corpus)
        fill(tree, corpus)
        assert tree.height >= 2
        for node in tree.iter_nodes():
            expected = tree.scheme.length_for_level(node.level)
            for _ref, _coords, signature in node.entries:
                assert len(signature) == expected

    def test_parent_signature_covers_subtree_objects(self):
        """A parent entry at level l+1 must match every term of every
        object beneath it, hashed at level l+1's length (no false
        negatives across levels)."""
        corpus = make_corpus(60, seed=3)
        tree = make_tree(corpus)
        fill(tree, corpus)
        scheme: MIR2Scheme = tree.mir_scheme
        for node in tree.iter_nodes():
            if node.level == 0:
                continue
            factory = scheme.factory_for_level(node.level)
            for ref, _coords, signature in node.entries:
                child = tree._load_uncounted(ref)
                entry_sig = Signature.from_bytes(signature)
                for pointer in MIR2Scheme.subtree_object_pointers(
                    tree, child.level, child.entries
                ):
                    terms = corpus.term_resolver(pointer)
                    for term in terms:
                        assert entry_sig.matches(factory.for_word(term))

    def test_validate_after_mixed_workload(self):
        corpus = make_corpus(50, seed=4)
        tree = make_tree(corpus)
        fill(tree, corpus)
        items = list(corpus.iter_items())
        rng = random.Random(9)
        for pointer, obj in rng.sample(items, 20):
            assert tree.delete_object(pointer, obj.point) is True
        tree.validate()


class TestMaintenanceCost:
    def test_insert_reads_underlying_objects(self):
        """MIR2 maintenance must hit the object file (the paper's cost)."""
        corpus = make_corpus(40, seed=5)
        tree = make_tree(corpus)
        fill(tree, corpus)
        assert tree.height >= 2
        extra = SpatialObject(999, (25.0, 25.0), "w1 w2 w3")
        pointer = corpus.add(extra)
        corpus.device.stats.reset()
        tree.insert_object(pointer, extra.point, {"w1", "w2", "w3"})
        assert corpus.device.stats.objects_loaded > 0

    def test_ir2_style_insert_does_not_read_objects(self):
        """Contrast: the IR2-Tree's insert never touches the object file."""
        from repro.core import IR2Tree
        from repro.text import HashSignatureFactory

        corpus = make_corpus(40, seed=6)
        pages = PageStore(InMemoryBlockDevice())
        tree = IR2Tree(pages, HashSignatureFactory(8), capacity=4)
        for pointer, obj in corpus.iter_items():
            tree.insert_object(pointer, obj.point, corpus.analyzer.terms(obj.text))
        corpus.device.stats.reset()
        tree.insert_object(10_000, (25.0, 25.0), {"w1"})
        assert corpus.device.stats.objects_loaded == 0


class TestQueryHelpers:
    def test_query_mask_uses_level_specific_signatures(self):
        corpus = make_corpus(60, seed=7)
        tree = make_tree(corpus)
        fill(tree, corpus)
        mask = tree.query_mask(["w1"])
        # Must accept, at every level, entries over subtrees containing w1.
        for node in tree.iter_nodes():
            if node.level == 0:
                continue
            for ref, _coords, signature in node.entries:
                child = tree._load_uncounted(ref)
                has_w1 = any(
                    "w1" in corpus.term_resolver(p)
                    for p in MIR2Scheme.subtree_object_pointers(
                        tree, child.level, child.entries
                    )
                )
                if has_w1:
                    query = mask(node.level)
                    assert query.length_bits == 8 * len(signature)
                    bits = int.from_bytes(signature, "little")
                    assert bits & query.bits == query.bits

    def test_matched_terms_per_level(self):
        """Per-term masks at the root's width match every term below an entry."""
        corpus = make_corpus(30, seed=8)
        tree = make_tree(corpus)
        fill(tree, corpus)
        root = tree.read_decoded(tree.root_id)
        level, sig_len, entries = root.level, root.sig_len, root.entries
        assert level > 0
        terms = ["w0", "w1", "w2"]
        masks = {term: tree.query_mask([term])(level) for term in terms}
        assert all(mask.length_bits == 8 * sig_len for mask in masks.values())
        for child_ref, _coords, signature in entries:
            bits = int.from_bytes(signature, "little")
            matched = [
                term for term, mask in masks.items() if bits & mask.bits == mask.bits
            ]
            assert set(matched) <= {"w0", "w1", "w2"}
            child = tree._load_uncounted(child_ref)
            below = set().union(
                *(
                    corpus.term_resolver(pointer)
                    for pointer in MIR2Scheme.subtree_object_pointers(
                        tree, child.level, child.entries
                    )
                )
            )
            assert below & set(terms) <= set(matched)
