"""Distance-first top-k spatial keyword search (paper Section V.B).

:func:`ir2_top_k` is the paper's ``IR2TopK`` (Figure 8): the incremental
NN traversal with the query-signature test applied to every entry, plus
the false-positive verification of Line 21 ("if T.t contains all keywords
in Q.t").  It works unchanged on IR2- and MIR2-Trees — the only
difference is the tree's :meth:`query_mask` (one query signature for
every level, or one per level), exactly as the paper notes ("these last
two algorithms can also operate on MIR2-Trees with no modification").

An incremental generator variant is exposed for callers who want to pull
results lazily (e.g. pagination), plus counters for the cost metrics the
experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.query import SpatialKeywordQuery
from repro.model import SearchResult, result_sort_key
from repro.obs import trace as qtrace
from repro.spatial.geometry import target_point_distance
from repro.spatial.nearest import NNTrace, incremental_nearest
from repro.spatial.rtree import RTree
from repro.storage.objectstore import ObjectStore
from repro.text.analyzer import Analyzer


@dataclass
class SearchCounters:
    """Algorithm-level cost counters (block I/O is tracked by the devices).

    Attributes:
        objects_inspected: objects loaded for verification.
        false_positives: loaded objects that failed the keyword check —
            signature false positives for IR2/MIR2, keyword misses for the
            R-Tree baseline.
    """

    objects_inspected: int = 0
    false_positives: int = 0


@dataclass
class SearchOutcome:
    """Results plus counters for one executed search."""

    results: list[SearchResult] = field(default_factory=list)
    counters: SearchCounters = field(default_factory=SearchCounters)


def ir2_top_k_iter(
    tree: RTree,
    store: ObjectStore,
    analyzer: Analyzer,
    query: SpatialKeywordQuery,
    counters: SearchCounters | None = None,
    trace: NNTrace | None = None,
) -> Iterator[SearchResult]:
    """Incrementally yield distance-first results from an IR2/MIR2-Tree.

    Each candidate produced by the signature-filtered NN traversal is
    loaded and verified against the actual keywords; false positives are
    discarded (and counted) without being yielded.
    """
    terms = analyzer.query_terms(query.keywords)
    for obj_ptr, distance in incremental_nearest(
        tree, query.target, query_mask=tree.query_mask(terms), trace=trace
    ):
        obj = store.load(obj_ptr)
        if counters is not None:
            counters.objects_inspected += 1
        ok = analyzer.contains_all(obj.text, terms)
        span = qtrace.current_span()
        if span is not None:
            span.event(
                qtrace.EVT_OBJECT_VERIFY, oid=obj.oid, false_positive=not ok
            )
        if ok:
            yield SearchResult(obj, distance, score=-distance)
        elif counters is not None:
            counters.false_positives += 1


def drain_top_k(
    iterator: Iterator[SearchResult],
    k: int,
    exclude: frozenset[int] = frozenset(),
) -> list[SearchResult]:
    """Top ``k`` of a non-decreasing distance stream, ties cut by oid.

    Stopping at exactly ``k`` results would truncate the tie group at
    the k-th distance in heap-traversal order, so two correct indexes
    (or a single vs a sharded engine) could legitimately return
    different tie members.  Instead the *whole* tie group at the k-th
    distance is drained and the cut is made on ``(distance, oid)`` —
    the brute-force oracle's order, and the order
    :class:`repro.shard.merge.TopKMerger` guarantees — so single,
    sharded, and oracle answers are byte-identical.

    Results whose oid is in ``exclude`` are dropped as they arrive,
    before they count toward ``k``: the stream is pulled until ``k``
    *live* results (plus their tie group) are in hand.  A snapshot
    version passes the oids its overlay masks; a dropped object was
    still loaded and verified, so it stays counted as inspected.
    """
    results: list[SearchResult] = []
    kth = 0.0
    for result in iterator:
        if result.obj.oid in exclude:
            continue
        if len(results) < k:
            results.append(result)
            kth = result.distance  # stream is non-decreasing
            continue
        if result.distance > kth:
            break
        results.append(result)  # tie member at the k-th distance
    results.sort(key=result_sort_key)
    return results[:k]


def ir2_top_k(
    tree: RTree,
    store: ObjectStore,
    analyzer: Analyzer,
    query: SpatialKeywordQuery,
    trace: NNTrace | None = None,
    exclude: frozenset[int] = frozenset(),
) -> SearchOutcome:
    """The paper's ``IR2TopK``: top ``Q.k`` distance-first answers."""
    outcome = SearchOutcome()
    iterator = ir2_top_k_iter(
        tree, store, analyzer, query, counters=outcome.counters, trace=trace
    )
    with qtrace.start_span("traverse", category="phase"):
        outcome.results = drain_top_k(iterator, query.k, exclude)
    return outcome


def rtree_top_k_iter(
    tree: RTree,
    store: ObjectStore,
    analyzer: Analyzer,
    query: SpatialKeywordQuery,
    counters: SearchCounters | None = None,
) -> Iterator[SearchResult]:
    """The R-Tree baseline (Section V.A), incremental form.

    Plain incremental NN with *no* signature pruning: every neighbor is
    retrieved and its text inspected, which is precisely the baseline's
    weakness — "it has to retrieve every object returned by the NN
    algorithm until the top-k result objects are found".
    """
    terms = analyzer.query_terms(query.keywords)
    for obj_ptr, distance in incremental_nearest(tree, query.target):
        obj = store.load(obj_ptr)
        if counters is not None:
            counters.objects_inspected += 1
        ok = analyzer.contains_all(obj.text, terms)
        span = qtrace.current_span()
        if span is not None:
            span.event(
                qtrace.EVT_OBJECT_VERIFY, oid=obj.oid, false_positive=not ok
            )
        if ok:
            yield SearchResult(obj, distance, score=-distance)
        elif counters is not None:
            counters.false_positives += 1


def rtree_top_k(
    tree: RTree,
    store: ObjectStore,
    analyzer: Analyzer,
    query: SpatialKeywordQuery,
    exclude: frozenset[int] = frozenset(),
) -> SearchOutcome:
    """R-Tree baseline: top ``Q.k`` answers via fetch-and-filter NN."""
    outcome = SearchOutcome()
    iterator = rtree_top_k_iter(
        tree, store, analyzer, query, counters=outcome.counters
    )
    with qtrace.start_span("traverse", category="phase"):
        outcome.results = drain_top_k(iterator, query.k, exclude)
    return outcome


def brute_force_top_k(
    objects, analyzer: Analyzer, query: SpatialKeywordQuery
) -> list[SearchResult]:
    """Index-free oracle for the distance-first query (test reference).

    Scans every object, applies the conjunctive keyword filter, sorts by
    distance (ties by oid for determinism), returns the first ``k``.
    """
    terms = analyzer.query_terms(query.keywords)
    matches = [
        SearchResult(
            obj,
            target_point_distance(obj.point, query.target),
        )
        for obj in objects
        if analyzer.contains_all(obj.text, terms)
    ]
    matches.sort(key=result_sort_key)
    for result in matches:
        result.score = -result.distance
    return matches[: query.k]
