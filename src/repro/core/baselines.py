"""The IIO (Inverted Index Only) baseline, paper Section V.A / Figure 7.

The other baseline — the plain R-Tree fetch-and-filter algorithm — lives
in :mod:`repro.core.search` (:func:`~repro.core.search.rtree_top_k`)
because it shares the incremental-NN machinery with ``IR2TopK``.

``IIOTopK`` intersects the inverted lists of every query keyword, loads
every object in the intersection, computes its distance, sorts, and
returns the first ``k``.  It is the paper's only *non-incremental*
algorithm: its cost is independent of ``k`` (flat lines in Figures 9/12)
and grows with keyword frequency, but it wins when keywords are very rare
(Section VI.B).
"""

from __future__ import annotations

from repro.core.query import SpatialKeywordQuery
from repro.core.search import SearchOutcome
from repro.model import SearchResult, result_sort_key
from repro.obs import trace as qtrace
from repro.spatial.geometry import target_point_distance
from repro.storage.objectstore import ObjectStore
from repro.text.inverted_index import InvertedIndex


def iio_top_k(
    index: InvertedIndex,
    store: ObjectStore,
    query: SpatialKeywordQuery,
    exclude: frozenset[int] = frozenset(),
) -> SearchOutcome:
    """The paper's ``IIOTopK`` (Figure 7).

    Lines 1-3: retrieve and intersect the keyword posting lists.
    Lines 4-8: load every object in the intersection and compute its
    distance to ``Q.p``.  Lines 9-10: sort by distance, return the first
    ``Q.k``.  Every object in the intersection is charged as an
    inspection — the algorithm cannot stop early.  Objects whose oid is
    in ``exclude`` are inspected but never enter the cut.
    """
    outcome = SearchOutcome()
    with qtrace.start_span("postings", category="phase"):
        pointers = index.retrieve_conjunction(query.keywords)
    scored: list[SearchResult] = []
    with qtrace.start_span("verify", category="phase") as span:
        for pointer in pointers:
            obj = store.load(pointer)
            outcome.counters.objects_inspected += 1
            if span is not None:
                # Every intersection member is a true match (the posting
                # lists are exact), so IIO never sees a false positive.
                span.event(
                    qtrace.EVT_OBJECT_VERIFY, oid=obj.oid, false_positive=False
                )
            if obj.oid in exclude:
                continue
            distance = target_point_distance(obj.point, query.target)
            scored.append(SearchResult(obj, distance, score=-distance))
    scored.sort(key=result_sort_key)
    outcome.results = scored[: query.k]
    return outcome
