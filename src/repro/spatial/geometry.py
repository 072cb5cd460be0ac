"""n-dimensional points and minimum bounding rectangles (MBRs).

The paper's running examples are two-dimensional, but Section I notes the
method "can be applied to arbitrarily-shaped and multi-dimensional
objects"; everything here is written for arbitrary dimensionality.

Distances follow the paper's convention: plain Euclidean distance between
coordinate tuples (the hotel example treats latitude/longitude as plain
numbers — e.g. ``distance(H4, [30.5, 100.0]) = 18.5``), and the classic
``MINDIST`` lower bound between a point and an MBR used by every R-Tree
nearest-neighbor algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Sequence

Point = tuple[float, ...]


def point_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two points of equal dimensionality."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def box_min_distance(
    lo: Sequence[float], hi: Sequence[float], point: Sequence[float]
) -> float:
    """MINDIST from ``point`` to the box ``[lo, hi]`` (0 when inside).

    Takes bare corner tuples so a traversal can rank decoded node entries
    without building a :class:`Rect` for each.
    """
    total = 0.0
    for l, h, c in zip(lo, hi, point):
        if c < l:
            total += (l - c) ** 2
        elif c > h:
            total += (c - h) ** 2
    return math.sqrt(total)


def box_box_distance(
    lo: Sequence[float],
    hi: Sequence[float],
    other_lo: Sequence[float],
    other_hi: Sequence[float],
) -> float:
    """Smallest distance between boxes ``[lo, hi]`` and ``[other_lo, other_hi]``."""
    total = 0.0
    for sl, sh, ol, oh in zip(lo, hi, other_lo, other_hi):
        if oh < sl:
            total += (sl - oh) ** 2
        elif ol > sh:
            total += (ol - sh) ** 2
    return math.sqrt(total)


# The ``coords_*`` helpers take an MBR as the flat ``lo + hi`` tuple a
# node entry stores, so tree maintenance works on decoded entries with no
# Rect per entry.  The Rect methods call them too: one formula each, and
# both forms see bit-identical floats.


def coords_area(coords: Sequence[float]) -> float:
    """Product of the side lengths of the MBR (0 when degenerate)."""
    dims = len(coords) >> 1
    result = 1.0
    for i in range(dims):
        result *= coords[dims + i] - coords[i]
    return result


def coords_union(a: Sequence[float], b: Sequence[float]) -> tuple[float, ...]:
    """Smallest MBR covering ``a`` and ``b``; a tie keeps ``a``'s coordinate."""
    dims = len(a) >> 1
    # min() and max()'s picks in one comprehension, twice as fast as map().
    return tuple(
        [
            (b[i] if b[i] < a[i] else a[i])
            if i < dims
            else (b[i] if b[i] > a[i] else a[i])
            for i in range(dims + dims)
        ]
    )


def coords_union_all(boxes: Iterable[Sequence[float]]) -> tuple[float, ...]:
    """Smallest MBR covering every box in ``boxes``, folded left to right."""
    boxes = list(boxes)
    if not boxes:
        raise ValueError("union of zero rectangles")
    return tuple(reduce(coords_union, boxes))


def coords_enlargement(a: Sequence[float], b: Sequence[float]) -> float:
    """Area increase ``a`` needs to also cover ``b`` (Guttman's ChooseLeaf)."""
    return coords_area(coords_union(a, b)) - coords_area(a)


def coords_contain(outer: Sequence[float], inner: Sequence[float]) -> bool:
    """True when the MBR ``inner`` lies entirely inside ``outer``."""
    dims = len(outer) >> 1
    return all(
        outer[i] <= inner[i] and inner[dims + i] <= outer[dims + i]
        for i in range(dims)
    )


def coords_intersect(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when the MBRs ``a`` and ``b`` share at least a boundary point."""
    dims = len(a) >> 1
    return all(a[i] <= b[dims + i] and b[i] <= a[dims + i] for i in range(dims))


def coords_center(coords: Sequence[float]) -> Point:
    """Geometric center of the MBR ``lo + hi``."""
    dims = len(coords) >> 1
    return tuple((coords[i] + coords[dims + i]) / 2.0 for i in range(dims))


@dataclass(frozen=True)
class Rect:
    """Axis-aligned minimum bounding rectangle in n dimensions.

    Represented by its low corner and high corner (the paper's Figure 2
    stores an MBR as "its southwest and its northeast points").

    Attributes:
        lo: per-dimension minimum coordinates.
        hi: per-dimension maximum coordinates (``hi[i] >= lo[i]``).
    """

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError(
                f"corner dimensionality mismatch: {len(self.lo)} vs {len(self.hi)}"
            )
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"inverted rectangle: lo={self.lo}, hi={self.hi}")

    # -- Constructors --------------------------------------------------------

    @staticmethod
    def from_point(point: Sequence[float]) -> "Rect":
        """Degenerate rectangle covering a single point."""
        p = tuple(float(c) for c in point)
        return Rect(p, p)

    @staticmethod
    def from_coords(coords: Sequence[float]) -> "Rect":
        """Inverse of :meth:`to_coords` (lo coordinates then hi)."""
        if len(coords) % 2:
            raise ValueError(f"odd coordinate count: {len(coords)}")
        dims = len(coords) // 2
        return Rect(tuple(coords[:dims]), tuple(coords[dims:]))

    @staticmethod
    def union_all(rects: Iterable["Rect"]) -> "Rect":
        """Smallest rectangle enclosing every rectangle in ``rects``."""
        return Rect.from_coords(coords_union_all(rect.to_coords() for rect in rects))

    # -- Basic properties -------------------------------------------------------

    @property
    def dims(self) -> int:
        """Dimensionality of the rectangle."""
        return len(self.lo)

    @property
    def center(self) -> Point:
        """Geometric center of the rectangle."""
        return coords_center(self.lo + self.hi)

    def area(self) -> float:
        """Product of side lengths (0 for degenerate rectangles)."""
        return coords_area(self.lo + self.hi)

    def margin(self) -> float:
        """Sum of side lengths (the R*-Tree 'margin' metric)."""
        return sum(h - l for l, h in zip(self.lo, self.hi))

    def to_coords(self) -> tuple[float, ...]:
        """Flatten to ``(lo_0..lo_{d-1}, hi_0..hi_{d-1})`` for serialization."""
        return self.lo + self.hi

    # -- Relations ---------------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both ``self`` and ``other``."""
        return Rect.from_coords(coords_union(self.lo + self.hi, other.lo + other.hi))

    def intersects(self, other: "Rect") -> bool:
        """True when the rectangles share at least a boundary point."""
        return coords_intersect(self.lo + self.hi, other.lo + other.hi)

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies inside or on the boundary."""
        return all(l <= c <= h for l, c, h in zip(self.lo, point, self.hi))

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside ``self``."""
        return coords_contain(self.lo + self.hi, other.lo + other.hi)

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to also cover ``other``.

        This is Guttman's ChooseLeaf criterion: the child whose MBR needs
        the least enlargement receives the new entry.
        """
        return coords_enlargement(self.lo + self.hi, other.lo + other.hi)

    # -- Distances ----------------------------------------------------------------

    def min_distance(self, point: Sequence[float]) -> float:
        """MINDIST: smallest Euclidean distance from ``point`` to this MBR.

        Zero when the point lies inside.  This is the ``Dist(p, MBR)`` of
        the paper's Figure 3 and the priority used by incremental NN.
        """
        return box_min_distance(self.lo, self.hi, point)

    def min_distance_rect(self, other: "Rect") -> float:
        """Smallest Euclidean distance between two MBRs (0 if they touch).

        Used by *area* queries: the paper's NN algorithm notes "an area
        could be used instead" of the query point (Section III), in which
        case ``Dist`` becomes rectangle-to-rectangle MINDIST.
        """
        return box_box_distance(self.lo, self.hi, other.lo, other.hi)

    def max_distance(self, point: Sequence[float]) -> float:
        """MAXDIST: largest distance from ``point`` to any point of the MBR."""
        total = 0.0
        for l, h, c in zip(self.lo, self.hi, point):
            total += max(abs(c - l), abs(c - h)) ** 2
        return math.sqrt(total)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        lo = ", ".join(f"{c:g}" for c in self.lo)
        hi = ", ".join(f"{c:g}" for c in self.hi)
        return f"Rect([{lo}] - [{hi}])"


def target_min_distance(rect: Rect, target) -> float:
    """MINDIST from an MBR to a query target (point or area)."""
    if isinstance(target, Rect):
        return rect.min_distance_rect(target)
    return rect.min_distance(target)


def coords_distance(target, dims: int) -> Callable[[Sequence[float]], float]:
    """MINDIST from a query target to an MBR given as ``lo + hi`` coordinates.

    Returns a function of the coordinate tuple a decoded node entry
    carries, equal to :func:`target_min_distance` on the same MBR, so a
    traversal can rank raw entries without building a :class:`Rect`.
    """
    if isinstance(target, Rect):
        area_lo, area_hi = target.lo, target.hi

        def distance(coords: Sequence[float]) -> float:
            return box_box_distance(coords[:dims], coords[dims:], area_lo, area_hi)

    else:

        def distance(coords: Sequence[float]) -> float:
            return box_min_distance(coords[:dims], coords[dims:], target)

    return distance


def target_point_distance(point: Sequence[float], target) -> float:
    """Distance from an object's point to a query target (point or area)."""
    if isinstance(target, Rect):
        return target.min_distance(point)
    return point_distance(point, target)
