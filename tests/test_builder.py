"""Unit tests for STR bulk loading and insertion building."""

from __future__ import annotations

import random

import pytest

from repro.core import BulkItem, IR2Tree, MIR2Tree, bulk_load, insert_build
from repro.core.schemes import MIR2Scheme
from repro.errors import TreeInvariantError
from repro.spatial import Rect, RTree
from repro.spatial.geometry import coords_area, coords_union_all
from repro.storage import InMemoryBlockDevice, PageStore
from repro.text import HashSignatureFactory, Signature


def or_signature(entries) -> int:
    """Superimposition of the entries' signatures, as an int."""
    acc = 0
    for _ref, _coords, signature in entries:
        acc |= int.from_bytes(signature, "little")
    return acc


def items_for(n, seed=0, with_terms=True):
    rng = random.Random(seed)
    items = []
    for i in range(n):
        terms = {f"w{rng.randrange(50)}" for _ in range(5)} if with_terms else set()
        items.append(
            BulkItem(i, Rect.from_point((rng.uniform(0, 100), rng.uniform(0, 100))), terms)
        )
    return items


def fresh_rtree(capacity=8):
    return RTree(PageStore(InMemoryBlockDevice()), capacity=capacity)


class TestBulkLoadRTree:
    def test_all_items_present(self):
        tree = fresh_rtree()
        items = items_for(100)
        bulk_load(tree, items)
        assert tree.size == 100
        refs = sorted(ref for ref, _coords, _sig in tree.iter_leaf_entries())
        assert refs == list(range(100))
        tree.validate()

    def test_empty_items_noop(self):
        tree = fresh_rtree()
        bulk_load(tree, [])
        assert tree.size == 0
        tree.validate()

    def test_single_item(self):
        tree = fresh_rtree()
        bulk_load(tree, items_for(1))
        assert tree.height == 1
        assert tree.size == 1
        tree.validate()

    def test_exact_capacity_boundary(self):
        tree = fresh_rtree(capacity=8)
        bulk_load(tree, items_for(8), fill=1.0)
        assert tree.height == 1
        tree.validate()

    def test_non_empty_tree_rejected(self):
        tree = fresh_rtree()
        tree.insert(0, Rect.from_point((0.0, 0.0)))
        with pytest.raises(TreeInvariantError):
            bulk_load(tree, items_for(5))

    def test_invalid_fill_rejected(self):
        tree = fresh_rtree()
        with pytest.raises(TreeInvariantError):
            bulk_load(tree, items_for(5), fill=0.0)

    def test_balanced_height(self):
        """STR packing yields logarithmic height."""
        tree = fresh_rtree(capacity=10)
        bulk_load(tree, items_for(500), fill=0.8)
        assert tree.height <= 4
        tree.validate()

    def test_spatial_locality(self):
        """Leaves cover compact regions: sibling MBRs overlap little."""
        tree = fresh_rtree(capacity=10)
        bulk_load(tree, items_for(300, seed=3))
        leaves = [n for n in tree.iter_nodes() if n.level == 0]
        total_area = sum(
            coords_area(coords_union_all(c for _ref, c, _sig in leaf.entries))
            for leaf in leaves
        )
        universe = Rect((0.0, 0.0), (100.0, 100.0)).area()
        assert total_area < 3 * universe  # packed, not shredded

    def test_supports_deletes_after_load(self):
        tree = fresh_rtree()
        items = items_for(60, seed=4)
        bulk_load(tree, items)
        for item in items[:30]:
            assert tree.delete(item.obj_ptr, item.rect) is True
        tree.validate()
        assert tree.size == 30


class TestBulkLoadSignatures:
    def test_ir2_signatures_match_insert_built(self):
        """Bulk and insert builds give identical root superimpositions."""
        factory = HashSignatureFactory(16)
        items = items_for(80, seed=5)
        bulk_tree = IR2Tree(PageStore(InMemoryBlockDevice()), factory, capacity=8)
        bulk_load(bulk_tree, items)
        insert_tree = IR2Tree(PageStore(InMemoryBlockDevice()), factory, capacity=8)
        insert_build(insert_tree, items)
        bulk_root = or_signature(bulk_tree._load_uncounted(bulk_tree.root_id).entries)
        insert_root = or_signature(insert_tree._load_uncounted(insert_tree.root_id).entries)
        assert bulk_root == insert_root

    def test_mir2_bulk_equals_walk_recomputation(self):
        """The bulk loader's term-union fast path must produce exactly the
        signature the faithful subtree walk would."""
        terms_by_ptr = {}
        items = items_for(60, seed=6)
        for item in items:
            terms_by_ptr[item.obj_ptr] = item.terms
        tree = MIR2Tree(
            PageStore(InMemoryBlockDevice()),
            (4, 8, 16),
            lambda ptr: terms_by_ptr[ptr],
            capacity=8,
        )
        bulk_load(tree, items)
        scheme: MIR2Scheme = tree.mir_scheme
        for node in tree.iter_nodes():
            if node.level == 0:
                continue
            for ref, _coords, signature in node.entries:
                child = tree._load_uncounted(ref)
                recomputed = scheme.entry_signature_for_child(
                    tree, child.level, child.entries
                )
                assert signature == recomputed

    def test_plain_rtree_entries_have_empty_signatures(self):
        tree = fresh_rtree()
        bulk_load(tree, items_for(30))
        for node in tree.iter_nodes():
            for _ref, _coords, signature in node.entries:
                assert signature == b""


class TestInsertBuild:
    def test_equivalent_content(self):
        tree = fresh_rtree()
        items = items_for(50, seed=7)
        insert_build(tree, items)
        assert tree.size == 50
        tree.validate()

    def test_signatures_attached(self):
        factory = HashSignatureFactory(8)
        tree = IR2Tree(PageStore(InMemoryBlockDevice()), factory, capacity=8)
        items = items_for(20, seed=8)
        insert_build(tree, items)
        for ref, _coords, signature in tree.iter_leaf_entries():
            assert len(signature) == 8
            item = next(i for i in items if i.obj_ptr == ref)
            assert Signature.from_bytes(signature) == factory.for_words(item.terms)
