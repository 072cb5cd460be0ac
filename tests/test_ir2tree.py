"""Unit tests for the IR2-Tree (structure + signature maintenance)."""

from __future__ import annotations

import random

import pytest

from repro.core import IR2Tree
from repro.spatial import Rect
from repro.storage import InMemoryBlockDevice, PageStore
from repro.text import HashSignatureFactory, Signature
from repro.text.analyzer import DEFAULT_ANALYZER


def make_tree(signature_bytes=8, capacity=4):
    pages = PageStore(InMemoryBlockDevice())
    return IR2Tree(pages, HashSignatureFactory(signature_bytes), capacity=capacity)


def docs(n, vocab=40, words=6, seed=0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        terms = {f"w{rng.randrange(vocab)}" for _ in range(words)}
        point = (rng.uniform(0, 100), rng.uniform(0, 100))
        out.append((i, point, terms))
    return out


def covers(signature: bytes, query) -> bool:
    """Figure 8's "s matches w" as the traversal runs it: one integer AND."""
    return int.from_bytes(signature, "little") & query.bits == query.bits


def or_signature(entries) -> bytes:
    """Superimposition (OR) of node entries' signature bytes."""
    acc = 0
    for _ref, _coords, signature in entries:
        acc |= int.from_bytes(signature, "little")
    return acc.to_bytes(len(entries[0][2]), "little")


def signature_invariant(tree):
    """Every parent entry's signature covers its child's superimposition.

    This is the property the distance-first pruning relies on: if a query
    signature matches some object below v, it must match v's signature.
    """
    for node in tree.iter_nodes():
        if node.level == 0:
            continue
        for ref, _coords, signature in node.entries:
            child = tree._load_uncounted(ref)
            child_or = Signature.from_bytes(or_signature(child.entries))
            parent_sig = Signature.from_bytes(signature)
            assert parent_sig.bits & child_or.bits == child_or.bits


class TestInsert:
    def test_leaf_signature_is_document_signature(self):
        tree = make_tree()
        tree.insert_object(0, (1.0, 1.0), {"pool", "spa"})
        _ref, _coords, signature = next(tree.iter_leaf_entries())
        expected = tree.factory.for_words({"pool", "spa"})
        assert Signature.from_bytes(signature) == expected

    def test_signatures_propagate_up_after_splits(self):
        tree = make_tree()
        for oid, point, terms in docs(40):
            tree.insert_object(oid, point, terms)
        assert tree.height > 1
        tree.validate()
        signature_invariant(tree)

    def test_root_signature_covers_every_object(self):
        tree = make_tree()
        items = docs(30, seed=2)
        for oid, point, terms in items:
            tree.insert_object(oid, point, terms)
        root = tree._load_uncounted(tree.root_id)
        root_sig = Signature.from_bytes(or_signature(root.entries))
        for _, _, terms in items:
            assert root_sig.matches(tree.factory.for_words(terms))


class TestDelete:
    def test_delete_maintains_signature_invariant(self):
        tree = make_tree()
        items = docs(60, seed=3)
        for oid, point, terms in items:
            tree.insert_object(oid, point, terms)
        rng = random.Random(5)
        for oid, point, _ in rng.sample(items, 30):
            assert tree.delete_object(oid, point) is True
        tree.validate()
        signature_invariant(tree)

    def test_delete_missing_returns_false(self):
        tree = make_tree()
        tree.insert_object(0, (1.0, 1.0), {"pool"})
        assert tree.delete_object(99, (9.0, 9.0)) is False

    def test_signatures_can_shrink_after_delete(self):
        """Removing the only object holding a rare word eventually clears
        its bits from refreshed ancestors (OR-recomputation, not sticky)."""
        tree = make_tree(signature_bytes=32, capacity=4)
        rare_terms = {"uniquerareword"}
        for oid, point, terms in docs(12, vocab=5, seed=7):
            tree.insert_object(oid, point, terms)
        tree.insert_object(100, (50.0, 50.0), rare_terms)
        rare_sig = tree.factory.for_words(rare_terms)
        root_sig = Signature.from_bytes(
            or_signature(tree._load_uncounted(tree.root_id).entries)
        )
        assert root_sig.matches(rare_sig)
        assert tree.delete_object(100, (50.0, 50.0))
        # CondenseTree refreshed the whole path, so the rare word's bits
        # survive in ancestors only where live objects also set them.
        root_sig = Signature.from_bytes(
            or_signature(tree._load_uncounted(tree.root_id).entries)
        )
        live_bits = 0
        for _ref, _coords, signature in tree.iter_leaf_entries():
            live_bits |= Signature.from_bytes(signature).bits
        assert root_sig.bits & rare_sig.bits == live_bits & rare_sig.bits


class TestQueryHelpers:
    def test_query_signature_superimposes_keywords(self):
        tree = make_tree()
        combined = tree.query_signature(["pool", "spa"])
        assert combined.matches(tree.factory.for_word("pool"))
        assert combined.matches(tree.factory.for_word("spa"))

    def test_query_mask_accepts_matching_entry(self):
        tree = make_tree()
        tree.insert_object(0, (0.0, 0.0), {"pool", "spa"})
        _ref, _coords, signature = next(tree.iter_leaf_entries())
        query = tree.query_mask(["pool"])(0)
        assert query == tree.query_signature(["pool"])
        assert covers(signature, query)

    def test_query_mask_never_false_negative(self):
        tree = make_tree()
        items = docs(25, seed=9)
        for oid, point, terms in items:
            tree.insert_object(oid, point, terms)
        # For each object, a query on its own terms must match all the way
        # down (checked indirectly: the mask covers the leaf entry).
        leaf_signatures = {ref: sig for ref, _coords, sig in tree.iter_leaf_entries()}
        for oid, _, terms in items:
            mask = tree.query_mask(sorted(terms))
            for node in tree.iter_nodes():
                if node.level == 0 and any(
                    ref == oid for ref, _coords, _sig in node.entries
                ):
                    assert covers(leaf_signatures[oid], mask(node.level))

    def test_matched_terms_subset_of_query(self):
        """The ranked search's per-keyword test: each term's own mask."""
        tree = make_tree()
        tree.insert_object(0, (0.0, 0.0), {"pool"})
        root = tree.read_decoded(tree.root_id)
        level = root.level
        ((_ref, _coords, signature),) = root.entries
        bits = int.from_bytes(signature, "little")
        masks = {term: tree.query_mask([term])(level) for term in ["pool", "zebra"]}
        matched = [term for term, mask in masks.items() if bits & mask.bits == mask.bits]
        assert "pool" in matched
        assert set(matched) <= {"pool", "zebra"}


class TestStorageFootprint:
    def test_node_spans_multiple_blocks_with_long_signatures(self):
        pages = PageStore(InMemoryBlockDevice())
        tree = IR2Tree(pages, HashSignatureFactory(189))  # paper's Hotels config
        assert tree.capacity == 113
        assert tree.blocks_per_node_at(0) > 2

    def test_multiblock_node_read_counts_extent(self):
        pages = PageStore(InMemoryBlockDevice())
        tree = IR2Tree(pages, HashSignatureFactory(189))
        for oid, point, terms in docs(150, seed=11, words=12):
            tree.insert_object(oid, point, terms)
        # The root holds only 2 entries (1 block: extents grow as needed,
        # "additional disk block(s) ... when needed"); a ~56-entry leaf
        # with 189-byte signatures spans several blocks.
        root = tree._load_uncounted(tree.root_id)
        leaf_id = root.entries[0][0]
        pages.device.stats.reset()
        tree.read_decoded(leaf_id)
        stats = pages.device.stats
        assert stats.random_reads == 1
        assert stats.sequential_reads >= 1
