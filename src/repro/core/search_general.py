"""General (ranked) top-k spatial keyword search, paper Section V.C.

Objects are ranked by ``f(distance(T.p, Q.p), IRscore(T.t, Q.t))`` with
``f`` decreasing in distance and increasing in IR score.  The paper's
changes relative to the distance-first algorithm:

1. per-keyword signatures instead of one conjunctive query signature (no
   AND semantics — partial matches may appear in the result);
2. the queue is ordered by ``Upper(v)``, the maximum score any object in
   ``v``'s subtree could reach, built from MINDIST and the best IR score
   the node signature permits;
3. an object is emitted only once its *actual* score is at least the best
   upper bound left in the queue; otherwise it is re-enqueued with its
   actual score ("to be considered later").

Nodes are read as interned
:class:`~repro.spatial.rtree.DecodedNode` values.  Each query term is
tested on its own (change 1) against a node's bit slices: the term's
signature bit positions are found once per query and level, and ANDing
the node's slices for them gives the term's survivors, one ``int`` with
bit ``i`` set for entry ``i``.  The loop then visits the union of the
terms' survivors (every entry when zero-IR pruning is off, or when an
active trace span wants a prune event per entry) in entry order, and
builds each visited entry's ``matched`` list in query-term order.

The node IR bound follows the paper's imaginary-document construction
(every signature-matched keyword present once), made admissible by
maximizing over matched-subset sizes — see
:func:`repro.text.irmodel.upper_bound_ir_score`.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator

from repro.core.query import SpatialKeywordQuery
from repro.core.ranking import RankingCallable
from repro.core.search import SearchCounters, SearchOutcome
from repro.errors import SignatureLengthError
from repro.model import SearchResult
from repro.obs import trace as qtrace
from repro.spatial.geometry import coords_distance, target_point_distance
from repro.spatial.rtree import RTree, bit_positions
from repro.storage.objectstore import ObjectStore
from repro.text.analyzer import Analyzer
from repro.text.irmodel import ir_score, upper_bound_ir_score
from repro.text.vocabulary import Vocabulary

#: Queue element kinds (max-heap on upper bound / actual score).
_NODE = 0
_OBJECT_PTR = 1
_RESULT = 2


def ranked_top_k_iter(
    tree: RTree,
    store: ObjectStore,
    analyzer: Analyzer,
    vocabulary: Vocabulary,
    query: SpatialKeywordQuery,
    ranking: RankingCallable,
    prune_zero_ir: bool = True,
    counters: SearchCounters | None = None,
) -> Iterator[SearchResult]:
    """Yield ranked results in non-increasing combined score.

    Args:
        tree: an IR2- or MIR2-Tree (anything exposing ``query_mask``).
        store: object store for candidate verification.
        analyzer: shared tokenizer.
        vocabulary: corpus statistics providing idf values.
        query: the top-k query (its ``k`` is applied by the caller).
        ranking: combined ranking function ``f`` (monotone per contract).
        prune_zero_ir: drop subtrees whose signature matches no query
            keyword (the paper's optional "if Score > 0" check; disable to
            allow pure-distance results with zero IR score).
        counters: optional cost counters to fill in.

    Raises:
        SignatureLengthError: a node's signature width differs from a
            query term's signature width at that level.
        ValueError: a node read has an inverted entry MBR
            (:meth:`~repro.spatial.rtree.RTree.read_decoded`).

    Each query term is tested on its own (the paper's change 1, no AND
    semantics) on the node's bit slices, and MINDIST comes from the
    entry's coordinate tuple.
    """
    terms = analyzer.query_terms(query.keywords)
    idf = {term: vocabulary.idf(term) for term in terms}
    entry_distance = coords_distance(query.target, tree.dims)
    # Per query term: its idf and ``level -> Signature`` of the term alone.
    term_masks = [(idf[term], tree.query_mask([term])) for term in terms]
    level_bits: dict[tuple[int, int], list[tuple[float, list[int]]]] = {}

    def bits_for(level: int, sig_len: int) -> list[tuple[float, list[int]]]:
        """``(idf, mask bit positions)`` per query term at a level and width."""
        width = sig_len * 8
        term_bits = []
        for weight, mask in term_masks:
            signature = mask(level)
            if signature.length_bits != width:
                raise SignatureLengthError(width, signature.length_bits)
            term_bits.append((weight, bit_positions(signature.bits)))
        return term_bits

    counter = 0
    # Max-heap via negated priority: (-upper, seq, kind, payload, distance)
    heap: list[tuple[float, int, int, object, float]] = []

    def push(priority: float, kind: int, payload, distance: float = 0.0) -> None:
        nonlocal counter
        heapq.heappush(heap, (-priority, counter, kind, payload, distance))
        counter += 1

    push(math.inf, _NODE, tree.root_id)
    while heap:
        neg_priority, _, kind, payload, distance = heapq.heappop(heap)
        if kind == _RESULT:
            # Every remaining element's upper bound is <= this actual
            # score (heap order), so the result is final — the paper's
            # "if Score >= Upper(U.top())" test, realized by re-queueing.
            yield payload
            continue
        if kind == _OBJECT_PTR:
            obj = store.load(payload)
            if counters is not None:
                counters.objects_inspected += 1
            actual_ir = ir_score(obj.text, terms, vocabulary, analyzer)
            rejected = prune_zero_ir and actual_ir == 0.0
            span = qtrace.current_span()
            if span is not None:
                span.event(
                    qtrace.EVT_OBJECT_VERIFY,
                    oid=obj.oid,
                    false_positive=rejected,
                )
            if rejected:
                if counters is not None:
                    counters.false_positives += 1
                continue
            actual_distance = target_point_distance(obj.point, query.target)
            score = ranking(actual_distance, actual_ir)
            push(
                score,
                _RESULT,
                SearchResult(obj, actual_distance, score=score, ir_score=actual_ir),
            )
            continue
        node = tree.read_decoded(payload)
        level = node.level
        entries = node.entries
        span = qtrace.current_span()
        if span is not None:
            span.event(
                qtrace.EVT_NODE_READ,
                node=payload,
                level=level,
                entries=len(entries),
                distance=distance,
            )
        if not entries:
            continue
        term_bits = level_bits.get((level, node.sig_len))
        if term_bits is None:
            term_bits = level_bits[level, node.sig_len] = bits_for(
                level, node.sig_len
            )
        # Per query term: the entries its signature bits survive in.
        matches = [
            (weight, node.survivors(positions)) for weight, positions in term_bits
        ]
        if prune_zero_ir and span is None:
            union = 0
            for _weight, survivors in matches:
                union |= survivors
            indices = bit_positions(union)
        else:
            # Every entry gets an upper bound, or a prune event.
            indices = range(len(entries))
        for index in indices:
            child_ref, coords, _signature = entries[index]
            matched = [weight for weight, survivors in matches if survivors >> index & 1]
            if prune_zero_ir and not matched:
                if span is not None:
                    span.event(
                        qtrace.EVT_SIG_PRUNE,
                        level=level,
                        entry=child_ref,
                        kind="object" if level == 0 else "node",
                    )
                continue
            child_distance = entry_distance(coords)
            upper = ranking(child_distance, upper_bound_ir_score(matched))
            if level == 0:
                push(upper, _OBJECT_PTR, child_ref, child_distance)
            else:
                push(upper, _NODE, child_ref)


def ranked_top_k(
    tree: RTree,
    store: ObjectStore,
    analyzer: Analyzer,
    vocabulary: Vocabulary,
    query: SpatialKeywordQuery,
    ranking: RankingCallable,
    prune_zero_ir: bool = True,
    exclude: frozenset[int] = frozenset(),
) -> SearchOutcome:
    """Top ``Q.k`` answers under the combined ranking function.

    Results whose oid is in ``exclude`` are skipped before they count
    toward ``Q.k`` (they were still loaded and scored, and stay counted
    as inspected).
    """
    outcome = SearchOutcome()
    iterator = ranked_top_k_iter(
        tree,
        store,
        analyzer,
        vocabulary,
        query,
        ranking,
        prune_zero_ir=prune_zero_ir,
        counters=outcome.counters,
    )
    with qtrace.start_span("ranked-traverse", category="phase"):
        for result in iterator:
            if result.obj.oid in exclude:
                continue
            outcome.results.append(result)
            if len(outcome.results) >= query.k:
                break
    return outcome


def brute_force_ranked(
    objects,
    analyzer: Analyzer,
    vocabulary: Vocabulary,
    query: SpatialKeywordQuery,
    ranking: RankingCallable,
    prune_zero_ir: bool = True,
) -> list[SearchResult]:
    """Index-free oracle for the ranked query (test reference)."""
    terms = analyzer.query_terms(query.keywords)
    scored = []
    for obj in objects:
        relevance = ir_score(obj.text, terms, vocabulary, analyzer)
        if prune_zero_ir and relevance == 0.0:
            continue
        distance = target_point_distance(obj.point, query.target)
        scored.append(
            SearchResult(
                obj, distance, score=ranking(distance, relevance), ir_score=relevance
            )
        )
    scored.sort(key=lambda r: (-r.score, r.obj.oid))
    return scored[: query.k]
