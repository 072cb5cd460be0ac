"""Unit and property tests for the node split strategies."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TreeInvariantError
from repro.spatial import LinearSplit, QuadraticSplit, Rect


def _entries(points):
    """Node entries ``(child_ref, mbr_coords, signature)`` for the points."""
    return [(i, Rect.from_point(p).to_coords(), b"") for i, p in enumerate(points)]


def _refs(entries):
    return [ref for ref, _coords, _sig in entries]


STRATEGIES = [QuadraticSplit(), LinearSplit()]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
class TestCommonBehaviour:
    def test_partition_is_complete_and_disjoint(self, strategy):
        entries = _entries([(i, i % 3) for i in range(10)])
        a, b = strategy.split(entries, min_fill=2)
        refs = sorted(_refs(a + b))
        assert refs == list(range(10))
        assert not set(_refs(a)) & set(_refs(b))

    def test_min_fill_respected(self, strategy):
        entries = _entries([(float(i), 0.0) for i in range(9)])
        a, b = strategy.split(entries, min_fill=4)
        assert len(a) >= 4 and len(b) >= 4

    def test_two_entries(self, strategy):
        entries = _entries([(0.0, 0.0), (5.0, 5.0)])
        a, b = strategy.split(entries, min_fill=1)
        assert len(a) == len(b) == 1

    def test_identical_points_still_split(self, strategy):
        entries = _entries([(1.0, 1.0)] * 6)
        a, b = strategy.split(entries, min_fill=2)
        assert len(a) + len(b) == 6
        assert min(len(a), len(b)) >= 2

    def test_too_few_entries_rejected(self, strategy):
        with pytest.raises(TreeInvariantError):
            strategy.split(_entries([(0.0, 0.0)]), min_fill=1)

    def test_infeasible_min_fill_rejected(self, strategy):
        with pytest.raises(TreeInvariantError):
            strategy.split(_entries([(0.0, 0.0), (1.0, 1.0)]), min_fill=2)


class TestQuadraticQuality:
    def test_separates_two_obvious_clusters(self):
        left = [(random.Random(1).uniform(0, 1), random.Random(i).uniform(0, 1)) for i in range(5)]
        cluster_a = [(x, y) for x, y in left]
        cluster_b = [(x + 100.0, y + 100.0) for x, y in left]
        entries = _entries(cluster_a + cluster_b)
        a, b = QuadraticSplit().split(entries, min_fill=2)
        groups = (
            set(_refs(a)),
            set(_refs(b)),
        )
        assert {frozenset(range(5)), frozenset(range(5, 10))} == {
            frozenset(g) for g in groups
        }

    def test_pick_seeds_maximizes_waste(self):
        # Two far apart, the rest near origin: seeds must be the far pair.
        points = [(0.0, 0.0), (0.1, 0.1), (100.0, 0.0), (0.2, 0.0)]
        entries = _entries(points)
        i, j = QuadraticSplit._pick_seeds(entries)
        assert {entries[i][0], entries[j][0]} & {2} == {2}


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
@given(
    points=st.lists(
        st.tuples(
            st.floats(-1000, 1000, allow_nan=False),
            st.floats(-1000, 1000, allow_nan=False),
        ),
        min_size=4,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_split_preserves_entries(strategy, points):
    entries = _entries(points)
    min_fill = max(1, len(entries) // 3)
    a, b = strategy.split(entries, min_fill)
    assert len(a) + len(b) == len(entries)
    assert len(a) >= min_fill and len(b) >= min_fill
    assert sorted(_refs(a + b)) == sorted(_refs(entries))
