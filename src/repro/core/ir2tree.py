"""The IR2-Tree (Information Retrieval R-Tree), paper Section IV.

An :class:`IR2Tree` is a disk-resident R-Tree whose every entry carries a
fixed-length superimposed-coding signature: leaf entries hold the
signature of their object's document, and a non-leaf entry holds the
superimposition of everything in its child's subtree.  Insert and Delete
are the R-Tree algorithms of Figures 5 and 6 — signature maintenance rides
the same AdjustTree / CondenseTree passes that maintain MBRs, so the
asymptotic maintenance cost matches the plain R-Tree.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.schemes import IR2Scheme
from repro.spatial.geometry import Rect
from repro.spatial.rtree import RTree
from repro.spatial.split import SplitStrategy
from repro.storage.intern import Intern
from repro.storage.pagestore import PageStore
from repro.text.signature import Signature, SignatureFactory


class IR2Tree(RTree):
    """R-Tree with fixed-length per-entry signatures.

    Args:
        pages: page store for the node images.
        factory: word -> signature mapping (length fixes the per-entry
            signature size; the paper uses 189 bytes for Hotels and 8 for
            Restaurants).
        dims: spatial dimensionality.
        capacity: entries per node; the paper keeps the plain R-Tree
            fan-out (113 for 4 KB blocks) and spills into extra blocks.
        split_strategy: node split algorithm (quadratic by default).
        node_intern: decoded node images, shared (see :class:`RTree`).
    """

    algorithm_label = "IR2"

    def __init__(
        self,
        pages: PageStore,
        factory: SignatureFactory,
        dims: int = 2,
        capacity: int | None = None,
        split_strategy: SplitStrategy | None = None,
        node_intern: Intern | None = None,
    ) -> None:
        super().__init__(
            pages,
            dims=dims,
            capacity=capacity,
            split_strategy=split_strategy,
            scheme=IR2Scheme(factory),
            node_intern=node_intern,
        )
        self.factory = factory

    # -- Object-level API -----------------------------------------------------

    def insert_object(
        self, obj_ptr: int, point: Sequence[float], terms: Sequence[str] | set[str]
    ) -> None:
        """Insert an object: signature computed from its distinct terms."""
        signature = self.factory.for_words(terms)
        self.insert(obj_ptr, Rect.from_point(point), signature.to_bytes())

    def delete_object(self, obj_ptr: int, point: Sequence[float]) -> bool:
        """Delete the entry for ``obj_ptr`` at ``point``; True when found."""
        return self.delete(obj_ptr, Rect.from_point(point))

    # -- Query-side signature helpers ---------------------------------------------

    def query_signature(self, terms: Sequence[str]) -> Signature:
        """``Signature(Q.t)``: superimposition of the query keywords."""
        return self.factory.for_words(terms)

    def query_mask(self, terms: Sequence[str]) -> Callable[[int], Signature]:
        """The query side of Figure 8's "s matches w" test, per level.

        Returns the ``query_mask`` callable
        :func:`repro.spatial.nearest.incremental_nearest` takes: every
        level shares one signature width, so it maps each level to the
        same superimposed query signature.
        """
        query = self.query_signature(terms)
        return lambda level: query
