"""Hypothesis property tests for R-Tree structural invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial import Rect, RTree
from repro.spatial.nearest import k_nearest
from repro.storage import InMemoryBlockDevice, PageStore

finite = st.floats(-1e4, 1e4, allow_nan=False)
points = st.tuples(finite, finite)


def _fresh_tree(capacity=4) -> RTree:
    return RTree(PageStore(InMemoryBlockDevice()), capacity=capacity)


@given(point_list=st.lists(points, max_size=120))
@settings(max_examples=50, deadline=None)
def test_property_insert_preserves_invariants(point_list):
    """After any insertion sequence the tree validates and holds all ids."""
    tree = _fresh_tree()
    for i, point in enumerate(point_list):
        tree.insert(i, Rect.from_point(point))
    tree.validate()
    refs = sorted(ref for ref, _coords, _sig in tree.iter_leaf_entries())
    assert refs == list(range(len(point_list)))


@given(
    point_list=st.lists(points, min_size=1, max_size=80),
    delete_mask=st.lists(st.booleans(), min_size=1, max_size=80),
)
@settings(max_examples=50, deadline=None)
def test_property_delete_preserves_invariants(point_list, delete_mask):
    """Deleting any subset leaves a valid tree containing the complement."""
    tree = _fresh_tree()
    for i, point in enumerate(point_list):
        tree.insert(i, Rect.from_point(point))
    survivors = set(range(len(point_list)))
    for i, (point, drop) in enumerate(zip(point_list, delete_mask)):
        if drop:
            assert tree.delete(i, Rect.from_point(point)) is True
            survivors.discard(i)
    tree.validate()
    refs = {ref for ref, _coords, _sig in tree.iter_leaf_entries()}
    assert refs == survivors


@given(
    point_list=st.lists(points, min_size=1, max_size=80),
    window=st.tuples(points, points),
)
@settings(max_examples=50, deadline=None)
def test_property_range_query_exact(point_list, window):
    """Range search returns exactly the points inside the window."""
    (x1, y1), (x2, y2) = window
    rect = Rect((min(x1, x2), min(y1, y2)), (max(x1, x2), max(y1, y2)))
    tree = _fresh_tree()
    for i, point in enumerate(point_list):
        tree.insert(i, Rect.from_point(point))
    got = sorted(ref for ref, _coords, _sig in tree.search(rect))
    want = sorted(i for i, p in enumerate(point_list) if rect.contains_point(p))
    assert got == want


@given(
    point_list=st.lists(points, min_size=1, max_size=60, unique=True),
    query=points,
    k=st.integers(1, 10),
)
@settings(max_examples=50, deadline=None)
def test_property_knn_matches_brute_force(point_list, query, k):
    """Branch-and-bound k-NN distances equal the brute-force k smallest."""
    tree = _fresh_tree()
    for i, point in enumerate(point_list):
        tree.insert(i, Rect.from_point(point))
    got = k_nearest(tree, query, k)
    import math

    brute = sorted(
        math.dist(p, query) for p in point_list
    )[: min(k, len(point_list))]
    assert len(got) == len(brute)
    for (_, got_distance), want_distance in zip(got, brute):
        assert got_distance == pytest.approx(want_distance, abs=1e-6)


import pytest  # noqa: E402  (used inside the property above)
