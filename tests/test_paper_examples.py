"""Trace-exact reproduction of the paper's worked Examples 1, 2 and 3.

These tests build the *exact* R-Tree of Figure 2 over the Figure-1 hotel
dataset (the grouping is uniquely determined by the MBR distances quoted
in the paper's traces) and assert the algorithms visit nodes and report
results in the paper's exact order.

Signatures use the exact (one-bit-per-word) backend so the pruning
decisions stated in Example 3 hold deterministically — the paper likewise
narrates the example with no false positives.
"""

from __future__ import annotations

import pytest

from repro.core import Corpus, IR2Tree, SpatialKeywordQuery, ir2_top_k
from repro.core.baselines import iio_top_k
from repro.datasets import (
    EXAMPLE_QUERY_KEYWORDS,
    EXAMPLE_QUERY_POINT,
    figure1_hotels,
    figure2_layout,
)
from repro.spatial import NNTrace, Rect, build_from_layout, incremental_nearest
from repro.spatial.rtree import RTree
from repro.storage import InMemoryBlockDevice, PageStore
from repro.text import ExactSignatureFactory, InvertedIndex


@pytest.fixture
def corpus():
    corpus = Corpus()
    corpus.add_all(figure1_hotels())
    return corpus


@pytest.fixture
def pointer_by_oid(corpus):
    return {obj.oid: pointer for pointer, obj in corpus.iter_items()}


@pytest.fixture
def exact_factory(corpus):
    vocabulary = set()
    for obj in corpus.objects():
        vocabulary |= corpus.analyzer.terms(obj.text)
    return ExactSignatureFactory(sorted(vocabulary))


def _build_figure2(corpus, pointer_by_oid, factory=None):
    """The Figure-2 tree; plain R-Tree or IR2-Tree with exact signatures."""
    objects = {obj.oid: obj for obj in corpus.objects()}
    pages = PageStore(InMemoryBlockDevice())
    if factory is None:
        empty_tree: RTree | None = None
        sig_for = lambda oid: b""
    else:
        empty_tree = IR2Tree(pages, factory, capacity=4)
        sig_for = lambda oid: factory.for_words(
            corpus.analyzer.terms(objects[oid].text)
        ).to_bytes()

    def leaf_entry(oid):
        return (
            pointer_by_oid[oid],
            Rect.from_point(objects[oid].point),
            sig_for(oid),
        )

    tree, names = build_from_layout(
        pages, figure2_layout(leaf_entry), capacity=4, tree=empty_tree
    )
    oid_by_pointer = {pointer: oid for oid, pointer in pointer_by_oid.items()}
    return tree, names, oid_by_pointer


class TestExample1IncrementalNN:
    """Example 1: plain incremental NN on the Figure-2 R-Tree."""

    def test_full_result_order(self, corpus, pointer_by_oid):
        tree, _, oid_of = _build_figure2(corpus, pointer_by_oid)
        order = [
            oid_of[ptr]
            for ptr, _ in incremental_nearest(tree, EXAMPLE_QUERY_POINT)
        ]
        # "H4 ... If we continue, objects H3, H5, H8, H6, H1, H7, H2 are
        # returned next."
        assert order == [4, 3, 5, 8, 6, 1, 7, 2]

    def test_node_visit_sequence(self, corpus, pointer_by_oid):
        tree, names, oid_of = _build_figure2(corpus, pointer_by_oid)
        trace = NNTrace()
        results = incremental_nearest(tree, EXAMPLE_QUERY_POINT, trace=trace)
        first_ptr, first_distance = next(results)
        # Steps 1-5 of Example 1: dequeue N1, N3, N7, then H4 at 18.5.
        node_name = {node_id: name for name, node_id in names.items()}
        dequeued = [
            node_name.get(ref, f"obj{oid_of.get(ref)}")
            for kind, ref, _ in trace.of_kind("dequeue")
        ]
        assert dequeued == ["N1", "N3", "N7", "obj4"]
        assert oid_of[first_ptr] == 4
        assert first_distance == pytest.approx(18.5, abs=0.05)

    def test_enqueue_distances_match_paper(self, corpus, pointer_by_oid):
        tree, names, _ = _build_figure2(corpus, pointer_by_oid)
        trace = NNTrace()
        next(incremental_nearest(tree, EXAMPLE_QUERY_POINT, trace=trace))
        by_ref = {ref: d for _, ref, d in trace.of_kind("enqueue")}
        # Paper's queue snapshots: N2 at 170.4, N3 at 0.0, N6 at 39.4,
        # N7 at 9.0.
        assert by_ref[names["N2"]] == pytest.approx(170.4, abs=0.05)
        assert by_ref[names["N3"]] == pytest.approx(0.0, abs=1e-9)
        assert by_ref[names["N6"]] == pytest.approx(39.4, abs=0.05)
        assert by_ref[names["N7"]] == pytest.approx(9.0, abs=0.05)


class TestExample2IIO:
    """Example 2: the Inverted Index Only baseline."""

    def test_posting_lists_match_paper(self, corpus, pointer_by_oid):
        index = InvertedIndex(InMemoryBlockDevice(), corpus.analyzer)
        index.build((ptr, obj.text) for ptr, obj in corpus.iter_items())
        oid_of = {pointer: oid for oid, pointer in pointer_by_oid.items()}
        internet = sorted(oid_of[p] for p in index.postings("internet"))
        pool = sorted(oid_of[p] for p in index.postings("pool"))
        # Step 1: H1, H2, H6, H7 contain "internet".
        assert internet == [1, 2, 6, 7]
        # Step 2: H2, H3, H4, H7, H8 contain "pool".
        assert pool == [2, 3, 4, 7, 8]

    def test_result_order_and_distances(self, corpus, pointer_by_oid):
        index = InvertedIndex(InMemoryBlockDevice(), corpus.analyzer)
        index.build((ptr, obj.text) for ptr, obj in corpus.iter_items())
        query = SpatialKeywordQuery.of(
            EXAMPLE_QUERY_POINT, EXAMPLE_QUERY_KEYWORDS, 2
        )
        outcome = iio_top_k(index, corpus.store, query)
        # Steps 5-6: L = {(H7, 181.9), (H2, 222.8)} -> return H7, H2.
        assert [r.obj.oid for r in outcome.results] == [7, 2]
        assert outcome.results[0].distance == pytest.approx(181.9, abs=0.05)
        assert outcome.results[1].distance == pytest.approx(222.8, abs=0.05)
        # IIO inspects the whole intersection, independent of k.
        assert outcome.counters.objects_inspected == 2


class TestExample3DistanceFirstIR2:
    """Example 3: the distance-first IR2-Tree algorithm with pruning."""

    def test_results(self, corpus, pointer_by_oid, exact_factory):
        tree, _, _ = _build_figure2(corpus, pointer_by_oid, exact_factory)
        query = SpatialKeywordQuery.of(
            EXAMPLE_QUERY_POINT, EXAMPLE_QUERY_KEYWORDS, 2
        )
        outcome = ir2_top_k(tree, corpus.store, corpus.analyzer, query)
        assert [r.obj.oid for r in outcome.results] == [7, 2]
        # With exact signatures there are no false positives: exactly the
        # two results are loaded (the paper's trace loads only H7 and H2).
        assert outcome.counters.objects_inspected == 2
        assert outcome.counters.false_positives == 0

    def test_trace_matches_paper(self, corpus, pointer_by_oid, exact_factory):
        tree, names, oid_of = _build_figure2(corpus, pointer_by_oid, exact_factory)
        trace = NNTrace()
        query = SpatialKeywordQuery.of(
            EXAMPLE_QUERY_POINT, EXAMPLE_QUERY_KEYWORDS, 2
        )
        outcome = ir2_top_k(tree, corpus.store, corpus.analyzer, query, trace=trace)
        assert len(outcome.results) == 2
        node_name = {node_id: name for name, node_id in names.items()}
        dequeued = [
            node_name.get(ref, f"H{oid_of.get(ref)}")
            for kind, ref, _ in trace.of_kind("dequeue")
        ]
        # Steps 1-7: N1, N2, N5, N4, then H7 and H2 pop as results.
        assert dequeued == ["N1", "N2", "N5", "N4", "H7", "H2"]

    def test_pruned_subtrees_match_paper(self, corpus, pointer_by_oid, exact_factory):
        tree, names, oid_of = _build_figure2(corpus, pointer_by_oid, exact_factory)
        trace = NNTrace()
        query = SpatialKeywordQuery.of(
            EXAMPLE_QUERY_POINT, EXAMPLE_QUERY_KEYWORDS, 2
        )
        ir2_top_k(tree, corpus.store, corpus.analyzer, query, trace=trace)
        node_name = {node_id: name for name, node_id in names.items()}
        pruned = {
            node_name.get(ref, f"H{oid_of.get(ref)}")
            for kind, ref, _ in trace.of_kind("prune")
        }
        # "The other child [N3] is discarded as it fails the signature
        # check. Objects H1 and H6 also get pruned."
        assert pruned == {"N3", "H1", "H6"}

    def test_enqueue_distances_match_paper(self, corpus, pointer_by_oid, exact_factory):
        tree, names, oid_of = _build_figure2(corpus, pointer_by_oid, exact_factory)
        trace = NNTrace()
        query = SpatialKeywordQuery.of(
            EXAMPLE_QUERY_POINT, EXAMPLE_QUERY_KEYWORDS, 2
        )
        ir2_top_k(tree, corpus.store, corpus.analyzer, query, trace=trace)
        by_ref = {ref: d for _, ref, d in trace.of_kind("enqueue")}
        pointer_of = {oid: ptr for ptr, oid in oid_of.items()}
        # Queue snapshots: N5 at 170.5, N4 at 173.8, H7 at 181.9, H2 at 222.8.
        assert by_ref[names["N5"]] == pytest.approx(170.5, abs=0.05)
        assert by_ref[names["N4"]] == pytest.approx(173.8, abs=0.05)
        assert by_ref[pointer_of[7]] == pytest.approx(181.9, abs=0.05)
        assert by_ref[pointer_of[2]] == pytest.approx(222.8, abs=0.05)


class TestRTreeBaselineOnExample:
    def test_baseline_same_answers_more_inspections(self, corpus, pointer_by_oid):
        tree, _, _ = _build_figure2(corpus, pointer_by_oid)
        query = SpatialKeywordQuery.of(
            EXAMPLE_QUERY_POINT, EXAMPLE_QUERY_KEYWORDS, 2
        )
        outcome = ir2_top_k(tree, corpus.store, corpus.analyzer, query)
        assert [r.obj.oid for r in outcome.results] == [7, 2]
        # The baseline retrieves every nearer non-matching hotel first:
        # H4, H3, H5, H8, H6, H1 all precede H7.
        assert outcome.counters.objects_inspected == 8
        assert outcome.counters.false_positives == 6
