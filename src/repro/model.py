"""Core data model: the spatial object.

Section II of the paper defines a (spatial) object ``T`` as a pair
``(T.p, T.t)`` where ``T.p`` is a location in multidimensional space and
``T.t`` is a text document.  :class:`SpatialObject` is that pair plus a
stable integer identifier used by the stores and indexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class SpatialObject:
    """One spatial object: an id, a point location, and a text document.

    Attributes:
        oid: application-level object identifier (e.g. row number in the
            source dataset).  Unique within a store.
        point: location ``T.p`` as a tuple of coordinates.  The paper's
            running example uses ``(latitude, longitude)``; any
            dimensionality is supported.
        text: the document ``T.t``; for the hotel example this is the
            concatenation of the name and amenities attributes.
    """

    oid: int
    point: tuple[float, ...]
    text: str

    @property
    def dims(self) -> int:
        """Spatial dimensionality of the object's location."""
        return len(self.point)

    def with_text(self, text: str) -> "SpatialObject":
        """Return a copy of this object with a replaced document."""
        return SpatialObject(self.oid, self.point, text)


@dataclass(slots=True)
class SearchResult:
    """One ranked answer of a top-k spatial keyword query.

    Attributes:
        obj: the matching object.
        distance: Euclidean distance from the query point to ``obj.point``.
        score: combined ranking score; for distance-first queries this is
            simply ``-distance`` so larger is better for both query types.
        ir_score: textual relevance component (0.0 for boolean queries).
    """

    obj: SpatialObject
    distance: float
    score: float = 0.0
    ir_score: float = 0.0

    @property
    def oid(self) -> int:
        """Identifier of the matching object."""
        return self.obj.oid

    def copy(self) -> "SearchResult":
        """An independent copy (``obj`` is frozen and safely shared).

        The serving layer's result cache hands each hit copies so a
        caller mutating a returned result (e.g. re-scoring in place)
        cannot corrupt the cached answer for later hits.
        """
        return SearchResult(self.obj, self.distance, self.score, self.ir_score)


def result_sort_key(result: SearchResult) -> tuple[float, int]:
    """The canonical ``(distance, oid)`` tie-breaking order.

    Every code path that cuts a distance-first result list at ``k`` —
    the single-engine searches, the scan baselines, the sharded
    :class:`~repro.shard.merge.TopKMerger`, and the brute-force oracle —
    sorts by this key, which is what makes their answers byte-identical
    under exact distance ties.
    """
    return (result.distance, result.obj.oid)
