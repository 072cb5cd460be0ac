"""Unit tests for incremental NN [HS99] and branch-and-bound k-NN [RKV95]."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import IR2Tree
from repro.spatial import (
    NNTrace,
    Rect,
    RTree,
    brute_force_nearest,
    incremental_nearest,
    k_nearest,
)
from repro.storage import InMemoryBlockDevice, PageStore
from repro.text import ExactSignatureFactory


def build_tree(points, capacity=4):
    tree = RTree(PageStore(InMemoryBlockDevice()), capacity=capacity)
    for i, point in enumerate(points):
        tree.insert(i, Rect.from_point(point))
    return tree


class TestIncrementalNearest:
    def test_orders_by_distance(self):
        rng = random.Random(5)
        points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(80)]
        tree = build_tree(points)
        query = (50.0, 50.0)
        result = list(incremental_nearest(tree, query))
        distances = [d for _, d in result]
        assert distances == sorted(distances)
        assert len(result) == 80

    def test_matches_brute_force_order(self):
        rng = random.Random(6)
        points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(50)]
        tree = build_tree(points)
        query = (3.0, 3.0)
        got = [(ref, round(d, 9)) for ref, d in incremental_nearest(tree, query)]
        from repro.model import SpatialObject

        objects = [SpatialObject(i, p, "") for i, p in enumerate(points)]
        want = [(oid, round(d, 9)) for oid, d in brute_force_nearest(objects, query)]
        # Distances must agree pairwise (ties may permute ids).
        assert [d for _, d in got] == [d for _, d in want]

    def test_incremental_laziness(self):
        """Pulling one neighbor must not read the whole tree."""
        rng = random.Random(8)
        points = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(500)]
        tree = build_tree(points, capacity=8)
        stats = tree.pages.device.stats
        stats.reset()
        first = next(incremental_nearest(tree, (500.0, 500.0)))
        assert first is not None
        assert stats.snapshot().total_reads < tree.node_count()

    def test_query_mask_prunes(self):
        tree = IR2Tree(
            PageStore(InMemoryBlockDevice()),
            ExactSignatureFactory(["even", "odd"]),
            capacity=4,
        )
        for i in range(20):
            tree.insert_object(i, (float(i), 0.0), {"odd" if i % 2 else "even"})
        # The "odd" query mask prunes every even object pointer.
        mask = tree.query_mask(["odd"])
        refs = [ref for ref, _ in incremental_nearest(tree, (0.0, 0.0), mask)]
        assert refs and all(ref % 2 == 1 for ref in refs)

    def test_empty_tree_yields_nothing(self):
        tree = build_tree([])
        assert list(incremental_nearest(tree, (0.0, 0.0))) == []

    def test_trace_records_queue_activity(self):
        tree = build_tree([(0.0, 0.0), (1.0, 1.0)])
        trace = NNTrace()
        list(incremental_nearest(tree, (0.0, 0.0), trace=trace))
        dequeues = trace.of_kind("dequeue")
        assert dequeues[0][0] == "node"  # root first
        assert sum(1 for kind, _, _ in dequeues if kind == "object") == 2

    def test_tie_objects_before_nodes(self):
        """At equal distance an object is reported before a node expands."""
        points = [(5.0, 5.0)] * 3
        tree = build_tree(points, capacity=2)
        result = list(incremental_nearest(tree, (5.0, 5.0)))
        assert len(result) == 3
        assert all(d == 0.0 for _, d in result)


class TestKNearest:
    def test_agrees_with_incremental(self):
        rng = random.Random(9)
        points = [(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(100)]
        tree = build_tree(points)
        query = (25.0, 25.0)
        inc = list(itertools.islice(incremental_nearest(tree, query), 10))
        bb = k_nearest(tree, query, 10)
        assert [round(d, 9) for _, d in inc] == [round(d, 9) for _, d in bb]

    def test_k_zero(self):
        tree = build_tree([(0.0, 0.0)])
        assert k_nearest(tree, (0.0, 0.0), 0) == []

    def test_k_larger_than_size(self):
        tree = build_tree([(0.0, 0.0), (1.0, 0.0)])
        assert len(k_nearest(tree, (0.0, 0.0), 10)) == 2

    def test_results_sorted(self):
        rng = random.Random(10)
        points = [(rng.uniform(0, 9), rng.uniform(0, 9)) for _ in range(30)]
        tree = build_tree(points)
        result = k_nearest(tree, (4.0, 4.0), 7)
        distances = [d for _, d in result]
        assert distances == sorted(distances)


class TestBruteForceOracle:
    def test_sorted_with_oid_tiebreak(self):
        from repro.model import SpatialObject

        objects = [
            SpatialObject(2, (1.0, 0.0), ""),
            SpatialObject(1, (1.0, 0.0), ""),
            SpatialObject(3, (0.5, 0.0), ""),
        ]
        ranked = brute_force_nearest(objects, (0.0, 0.0))
        assert [oid for oid, _ in ranked] == [3, 1, 2]
