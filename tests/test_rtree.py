"""Unit tests for the disk-resident R-Tree."""

from __future__ import annotations

import random

import pytest

from repro.errors import TreeInvariantError
from repro.spatial import LinearSplit, Rect, RTree, build_from_layout
from repro.storage import InMemoryBlockDevice, PageStore


def make_tree(capacity=4, dims=2, **kwargs) -> RTree:
    pages = PageStore(InMemoryBlockDevice())
    return RTree(pages, dims=dims, capacity=capacity, **kwargs)


def insert_points(tree, points, start=0):
    for i, point in enumerate(points, start=start):
        tree.insert(i, Rect.from_point(point))


class TestConstruction:
    def test_empty_tree(self):
        tree = make_tree()
        assert tree.height == 1
        assert tree.size == 0
        tree.validate()

    def test_capacity_derived_from_block_size(self):
        pages = PageStore(InMemoryBlockDevice())
        tree = RTree(pages)
        assert tree.capacity == 113  # the paper's fan-out

    def test_capacity_below_two_rejected(self):
        pages = PageStore(InMemoryBlockDevice())
        with pytest.raises(TreeInvariantError):
            RTree(pages, capacity=1)

    def test_min_fill_bounded_by_half_capacity(self):
        tree = make_tree(capacity=10)
        assert 1 <= tree.min_fill <= 5


class TestInsert:
    def test_single_insert(self):
        tree = make_tree()
        tree.insert(7, Rect.from_point((1.0, 2.0)))
        assert tree.size == 1
        entries = list(tree.iter_leaf_entries())
        assert entries[0][0] == 7

    def test_fill_one_node_no_split(self):
        tree = make_tree(capacity=4)
        insert_points(tree, [(i, i) for i in range(4)])
        assert tree.height == 1
        tree.validate()

    def test_overflow_splits_root(self):
        tree = make_tree(capacity=4)
        insert_points(tree, [(i, i) for i in range(5)])
        assert tree.height == 2
        tree.validate()

    def test_many_inserts_stay_valid(self):
        tree = make_tree(capacity=4)
        rng = random.Random(0)
        insert_points(
            tree, [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(200)]
        )
        assert tree.size == 200
        tree.validate()

    def test_duplicate_points_allowed(self):
        tree = make_tree(capacity=4)
        insert_points(tree, [(1.0, 1.0)] * 20)
        assert tree.size == 20
        tree.validate()

    def test_dimension_mismatch_rejected(self):
        tree = make_tree(dims=2)
        with pytest.raises(TreeInvariantError):
            tree.insert(0, Rect.from_point((1.0, 2.0, 3.0)))

    def test_rectangles_not_just_points(self):
        tree = make_tree(capacity=4)
        for i in range(10):
            tree.insert(i, Rect((i, i), (i + 2.0, i + 3.0)))
        tree.validate()

    def test_linear_split_variant_builds_valid_tree(self):
        tree = make_tree(capacity=4, split_strategy=LinearSplit())
        rng = random.Random(1)
        insert_points(
            tree, [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(100)]
        )
        tree.validate()

    def test_three_dimensional_tree(self):
        pages = PageStore(InMemoryBlockDevice())
        tree = RTree(pages, dims=3, capacity=4)
        rng = random.Random(2)
        for i in range(60):
            point = (rng.uniform(0, 9), rng.uniform(0, 9), rng.uniform(0, 9))
            tree.insert(i, Rect.from_point(point))
        tree.validate()


class TestDelete:
    def test_delete_existing(self):
        tree = make_tree(capacity=4)
        insert_points(tree, [(i, i) for i in range(10)])
        assert tree.delete(3, Rect.from_point((3.0, 3.0))) is True
        assert tree.size == 9
        refs = {ref for ref, _coords, _sig in tree.iter_leaf_entries()}
        assert 3 not in refs
        tree.validate()

    def test_delete_missing_returns_false(self):
        tree = make_tree(capacity=4)
        insert_points(tree, [(i, i) for i in range(5)])
        assert tree.delete(99, Rect.from_point((99.0, 99.0))) is False
        assert tree.size == 5

    def test_delete_requires_matching_rect(self):
        tree = make_tree(capacity=4)
        tree.insert(1, Rect.from_point((1.0, 1.0)))
        assert tree.delete(1, Rect.from_point((2.0, 2.0))) is False
        assert tree.delete(1, Rect.from_point((1.0, 1.0))) is True

    def test_delete_all_leaves_empty_valid_tree(self):
        tree = make_tree(capacity=4)
        points = [(float(i), float(i % 7)) for i in range(30)]
        insert_points(tree, points)
        for i, point in enumerate(points):
            assert tree.delete(i, Rect.from_point(point)) is True
        assert tree.size == 0
        assert tree.height == 1
        tree.validate()

    def test_delete_shrinks_root(self):
        tree = make_tree(capacity=4)
        points = [(float(i), 0.0) for i in range(25)]
        insert_points(tree, points)
        initial_height = tree.height
        assert initial_height >= 2
        for i in range(20):
            tree.delete(i, Rect.from_point(points[i]))
        assert tree.height <= initial_height
        tree.validate()

    def test_interleaved_insert_delete(self):
        tree = make_tree(capacity=4)
        rng = random.Random(7)
        live = {}
        next_id = 0
        for _ in range(400):
            if live and rng.random() < 0.4:
                oid = rng.choice(list(live))
                assert tree.delete(oid, Rect.from_point(live.pop(oid)))
            else:
                point = (rng.uniform(0, 50), rng.uniform(0, 50))
                tree.insert(next_id, Rect.from_point(point))
                live[next_id] = point
                next_id += 1
        assert tree.size == len(live)
        tree.validate()
        refs = {ref for ref, _coords, _sig in tree.iter_leaf_entries()}
        assert refs == set(live)


class TestSearch:
    def test_range_query_matches_brute_force(self):
        tree = make_tree(capacity=4)
        rng = random.Random(3)
        points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(150)]
        insert_points(tree, points)
        window = Rect((20.0, 20.0), (60.0, 70.0))
        got = sorted(ref for ref, _coords, _sig in tree.search(window))
        want = sorted(
            i for i, p in enumerate(points) if window.contains_point(p)
        )
        assert got == want

    def test_empty_window(self):
        tree = make_tree(capacity=4)
        insert_points(tree, [(i, i) for i in range(10)])
        window = Rect((1000.0, 1000.0), (1001.0, 1001.0))
        assert list(tree.search(window)) == []


class TestPersistence:
    def test_nodes_roundtrip_through_store(self):
        """A second tree object over the same page store sees everything."""
        pages = PageStore(InMemoryBlockDevice())
        tree = RTree(pages, capacity=4)
        insert_points(tree, [(i, -i) for i in range(25)])
        reopened = RTree.__new__(RTree)
        reopened.pages = pages
        reopened.dims = tree.dims
        reopened.capacity = tree.capacity
        reopened.min_fill = tree.min_fill
        reopened.split_strategy = tree.split_strategy
        reopened.scheme = tree.scheme
        reopened.root_id = tree.root_id
        reopened.height = tree.height
        reopened.size = tree.size
        reopened.bulk_loaded = False
        reopened.validate()
        assert {ref for ref, _coords, _sig in reopened.iter_leaf_entries()} == set(range(25))

    def test_node_io_is_counted(self):
        tree = make_tree(capacity=4)
        insert_points(tree, [(i, i) for i in range(20)])
        stats = tree.pages.device.stats
        stats.reset()
        list(tree.search(Rect((0.0, 0.0), (100.0, 100.0))))
        assert stats.snapshot().category_reads("node") > 0

    def test_iter_nodes_uncounted(self):
        tree = make_tree(capacity=4)
        insert_points(tree, [(i, i) for i in range(20)])
        stats = tree.pages.device.stats
        stats.reset()
        count = tree.node_count()
        assert count >= 1
        assert stats.snapshot().total_accesses == 0


class TestLayoutBuilder:
    def test_explicit_layout(self):
        pages = PageStore(InMemoryBlockDevice())
        layout = (
            "root",
            [
                ("left", [(1, Rect.from_point((0.0, 0.0)), b""), (2, Rect.from_point((1.0, 1.0)), b"")]),
                ("right", [(3, Rect.from_point((10.0, 10.0)), b""), (4, Rect.from_point((11.0, 11.0)), b"")]),
            ],
        )
        tree, names = build_from_layout(pages, layout, capacity=4)
        assert tree.height == 2
        assert tree.size == 4
        assert set(names) == {"root", "left", "right"}
        root = tree.read_decoded(names["root"])
        assert root.level > 0
        assert len(root.entries) == 2
