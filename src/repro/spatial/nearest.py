"""Nearest-neighbor search over R-Trees.

:func:`incremental_nearest` is the Incremental Nearest Neighbor algorithm
of Hjaltason and Samet [HS99] shown in the paper's Figure 3: a priority
queue seeded with the root yields nodes and objects in order of MINDIST,
reporting each object pointer exactly when it is proven to be the next
nearest.  The paper's ``IR2NearestNeighbor`` (Figure 8) is the same loop
with a signature test applied to every entry before it enters the queue;
the optional ``query_mask`` (``level -> query signature``, from the
tree's ``query_mask(terms)``) turns that test on, so one implementation
serves both the plain R-Tree baseline and the IR2-/MIR2-Trees.

The loop works on the interned :class:`~repro.spatial.rtree.DecodedNode`
a node image decodes to (:meth:`RTree.read_decoded`), with no
:class:`Rect` or signature object built per entry.  "s matches w" is
tested for all of a node's entries at once on its bit slices: the query
mask's set bit positions are found once per query and level, the node's
slices for those bits are ANDed (:meth:`DecodedNode.survivors`), and
only the surviving entries are visited, in entry order, so the heap sees
the same pushes in the same order as a per-entry test would give.  Most
entries of a keyword query are pruned, so most are never touched.  When
an :class:`NNTrace` or an active trace span wants a prune event per
entry, the same loop walks every entry in order instead and tests each
one's bit in the survivors.  A slice is built from the node image the
first time a query needs it and kept with the interned image (up to a
fixed number per node); the check that every entry MBR has
``lo <= hi`` comes from the decode, which the node intern runs once per
distinct image.

Nodes are enqueued *by pointer* and loaded only when dequeued.  (The
paper's Figure 3 writes ``Enqueue(LoadNode(ptr), dist)``, but loading at
enqueue time would read children that are never expanded; [HS99]'s actual
algorithm — and the paper's claim of accessing "a minimal number of R-Tree
nodes" — defer the load, as we do.)

:func:`k_nearest` is the classic branch-and-bound k-NN of Roussopoulos et
al. [RKV95], provided as an independent oracle for cross-checking tests.
It reads the same :class:`~repro.spatial.rtree.DecodedNode` entries
through :meth:`RTree.read_decoded`, with counted I/O.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.errors import SignatureLengthError
from repro.obs import trace as qtrace
from repro.spatial.geometry import coords_distance, point_distance
from repro.spatial.rtree import DecodedNode, RTree, bit_positions

if TYPE_CHECKING:
    from repro.text.signature import Signature

#: Queue element kinds, ordered so objects pop before nodes at equal
#: distance (an object at distance d is a confirmed result; a node at the
#: same distance can only yield objects at >= d).
_KIND_OBJECT = 0
_KIND_NODE = 1

#: ``level -> query signature`` at that level's width; the traversal
#: reads its ``bits`` and ``length_bits``.
QueryMask = Callable[[int], "Signature"]


@dataclass
class NNTrace:
    """Optional execution trace for the incremental NN loop.

    Records ``("enqueue"|"dequeue"|"prune", kind, ref, distance)`` tuples
    where ``kind`` is ``"node"`` or ``"object"`` and ``ref`` is the node id
    or object pointer.  Used by the tests reproducing the paper's worked
    Examples 1 and 3 step for step.
    """

    events: list[tuple[str, str, int, float]] = field(default_factory=list)

    def record(self, op: str, kind: str, ref: int, distance: float) -> None:
        self.events.append((op, kind, ref, distance))

    def of_kind(self, op: str) -> list[tuple[str, int, float]]:
        """All events of one operation, as ``(kind, ref, distance)``."""
        return [(k, r, d) for o, k, r, d in self.events if o == op]


def incremental_nearest(
    tree: RTree,
    point: Sequence[float],
    query_mask: QueryMask | None = None,
    trace: NNTrace | None = None,
) -> Iterator[tuple[int, float]]:
    """Yield ``(obj_ptr, distance)`` pairs in non-decreasing distance.

    Args:
        tree: the R-Tree (or IR2-/MIR2-Tree) to search.
        point: query target — a point ``Q.p`` or a :class:`Rect` query
            area (the paper: "an area could be used instead").
        query_mask: ``level -> Signature``, the superimposed query
            signature at that level's width (the tree's
            ``query_mask(terms)``).  An entry survives when its signature
            bits cover the query bits — the paper's "if s matches w" —
            tested on the node's bit slices, one AND per query bit.
            ``None`` disables filtering.
        trace: optional :class:`NNTrace` collecting the queue activity.

    Raises:
        SignatureLengthError: a node's signature width differs from the
            query signature's width at that level.
        ValueError: a node read has an inverted entry MBR (``lo > hi``),
            whether or not the signature test would prune that entry
            (:meth:`RTree.read_decoded` checks every entry at decode).

    The generator is *incremental*: callers pull exactly as many neighbors
    as they need, and tree I/O happens lazily as the queue is consumed.
    """
    distance_to = coords_distance(point, tree.dims)
    # ``(level, sig_len) -> query bit positions``, width-checked once per
    # query; a node of another width raises before anything is cached.
    level_bits: dict[tuple[int, int], list[int]] = {}

    counter = 0
    heap: list[tuple[float, int, int, int]] = []  # (dist, kind, seq, ref)

    def push(distance: float, kind: int, ref: int) -> None:
        nonlocal counter
        heapq.heappush(heap, (distance, kind, counter, ref))
        counter += 1
        if trace is not None:
            trace.record(
                "enqueue", "node" if kind == _KIND_NODE else "object", ref, distance
            )

    push(0.0, _KIND_NODE, tree.root_id)
    while heap:
        distance, kind, _, ref = heapq.heappop(heap)
        if trace is not None:
            trace.record(
                "dequeue", "node" if kind == _KIND_NODE else "object", ref, distance
            )
        if kind == _KIND_OBJECT:
            yield ref, distance
            continue
        node = tree.read_decoded(ref)
        level = node.level
        entries = node.entries
        span = qtrace.current_span()
        if span is not None:
            span.event(
                qtrace.EVT_NODE_READ,
                node=ref,
                level=level,
                entries=len(entries),
                distance=distance,
            )
        child_kind = _KIND_OBJECT if level == 0 else _KIND_NODE
        positions: Sequence[int] = ()
        if query_mask is not None and entries:
            positions = level_bits.get((level, node.sig_len))
            if positions is None:
                query = query_mask(level)
                if query.length_bits != node.sig_len * 8:
                    raise SignatureLengthError(node.sig_len * 8, query.length_bits)
                positions = level_bits[level, node.sig_len] = bit_positions(
                    query.bits
                )
        survivors = node.survivors(positions)
        if positions and trace is None and span is None:
            indices: Sequence[int] = bit_positions(survivors)
        else:
            # Every entry, in order: no query bit prunes any, or each
            # pruned one gets a prune event.
            indices = range(len(entries))
        for index in indices:
            child_ref, coords, _signature = entries[index]
            if survivors >> index & 1:
                push(distance_to(coords), child_kind, child_ref)
                continue
            if trace is not None:
                trace.record(
                    "prune",
                    "object" if level == 0 else "node",
                    child_ref,
                    distance_to(coords),
                )
            if span is not None:
                span.event(
                    qtrace.EVT_SIG_PRUNE,
                    level=level,
                    entry=child_ref,
                    kind="object" if level == 0 else "node",
                )


def k_nearest(
    tree: RTree, point: Sequence[float], k: int
) -> list[tuple[int, float]]:
    """Branch-and-bound k-NN [RKV95]: the k closest object pointers.

    Maintains the current k-th best distance and prunes subtrees whose
    MINDIST exceeds it.  Results are sorted by distance.  This duplicates
    what ``itertools.islice(incremental_nearest(...), k)`` returns and
    exists as an independently-implemented oracle for property tests.
    """
    if k <= 0:
        return []
    distance_to = coords_distance(point, tree.dims)
    best: list[tuple[float, int]] = []  # max-heap via negated distance

    def visit(node: DecodedNode) -> None:
        if node.level == 0:
            for ref, coords, _sig in node.entries:
                distance = distance_to(coords)
                if len(best) < k:
                    heapq.heappush(best, (-distance, ref))
                elif distance < -best[0][0]:
                    heapq.heapreplace(best, (-distance, ref))
            return
        children = sorted(
            (distance_to(coords), index, ref)
            for index, (ref, coords, _sig) in enumerate(node.entries)
        )
        for distance, _index, ref in children:
            if len(best) >= k and distance > -best[0][0]:
                break  # children are sorted; the rest are farther
            visit(tree.read_decoded(ref))

    visit(tree.read_decoded(tree.root_id))
    ordered = sorted((-neg, ref) for neg, ref in best)
    return [(ref, distance) for distance, ref in ordered]


def brute_force_nearest(
    objects: Sequence, point: Sequence[float]
) -> list[tuple[int, float]]:
    """Sort objects by distance to ``point`` (test oracle, no index).

    Args:
        objects: sequence of :class:`~repro.model.SpatialObject`.
        point: query point.

    Returns:
        ``[(oid, distance), ...]`` sorted by distance then oid.
    """
    ranked = sorted(
        (point_distance(obj.point, point), obj.oid) for obj in objects
    )
    return [(oid, distance) for distance, oid in ranked]
