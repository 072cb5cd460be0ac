"""The Multilevel IR2-Tree (MIR2-Tree), paper Section IV.

Fixed-length signatures saturate toward the root: a high node superimposes
so many words that most bits are 1 and the signature stops pruning.  The
MIR2-Tree counters this with multi-level superimposed coding [CS89, DR83]:
every level gets its own (optimal [MC94]) signature length, and a node's
signature superimposes the signatures of *all objects in its subtree*
hashed at that level's length.

The price is maintenance: differing lengths mean a parent signature cannot
be derived from its children's signatures, so Insert/Delete recompute each
affected ancestor by re-reading every object below it (counted I/O).  The
paper's verdict — "for frequently updated datasets, IR2-Tree is the
choice" — is reproduced by ``benchmarks/bench_maintenance.py``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.schemes import MIR2Scheme, TermResolver, plan_level_lengths
from repro.spatial.geometry import Rect
from repro.spatial.rtree import Entry, Node, RTree
from repro.spatial.split import SplitStrategy
from repro.storage.intern import Intern
from repro.storage.pagestore import PageStore
from repro.text.signature import Signature


class MIR2Tree(RTree):
    """R-Tree with per-level signature lengths (object superimposition).

    Args:
        pages: page store for the node images.
        level_lengths: signature bytes per level, leaves first; levels
            beyond the list reuse its last value.  Use
            :func:`~repro.core.schemes.plan_level_lengths` to derive them
            from corpus statistics.
        term_resolver: object pointer -> distinct terms, used by the
            maintenance walks (reads are charged to the object store).
        dims: spatial dimensionality.
        capacity: entries per node (paper: same fan-out as the R-Tree).
        bits_per_word: signature hash bits per word.
        seed: signature hash seed.
        split_strategy: node split algorithm (quadratic by default).
        node_intern: decoded node images, shared (see :class:`RTree`).
    """

    algorithm_label = "MIR2"

    def __init__(
        self,
        pages: PageStore,
        level_lengths: Sequence[int],
        term_resolver: TermResolver,
        dims: int = 2,
        capacity: int | None = None,
        bits_per_word: int = 3,
        seed: int = 0,
        split_strategy: SplitStrategy | None = None,
        node_intern: Intern | None = None,
    ) -> None:
        scheme = MIR2Scheme(level_lengths, term_resolver, bits_per_word, seed)
        super().__init__(
            pages,
            dims=dims,
            capacity=capacity,
            split_strategy=split_strategy,
            scheme=scheme,
            node_intern=node_intern,
        )
        self.mir_scheme = scheme

    @classmethod
    def with_planned_levels(
        cls,
        pages: PageStore,
        leaf_length_bytes: int,
        avg_unique_words_per_object: float,
        vocabulary_size: int,
        term_resolver: TermResolver,
        dims: int = 2,
        capacity: int | None = None,
        bits_per_word: int = 3,
        seed: int = 0,
        split_strategy: SplitStrategy | None = None,
        node_intern: Intern | None = None,
    ) -> "MIR2Tree":
        """Build with level lengths planned from corpus statistics.

        Mirrors the paper's setup where "the displayed signature lengths
        are used for the leaf nodes of MIR2-Tree.  Longer signatures are
        used for the top nodes."
        """
        from repro.storage.serialization import node_capacity

        effective_capacity = capacity or node_capacity(
            pages.device.block_size, dims
        )
        lengths = plan_level_lengths(
            leaf_length_bytes,
            avg_unique_words_per_object,
            vocabulary_size,
            effective_capacity,
        )
        return cls(
            pages,
            lengths,
            term_resolver,
            dims=dims,
            capacity=capacity,
            bits_per_word=bits_per_word,
            seed=seed,
            split_strategy=split_strategy,
            node_intern=node_intern,
        )

    # -- Object-level API ----------------------------------------------------------

    def insert_object(
        self, obj_ptr: int, point: Sequence[float], terms: Sequence[str] | set[str]
    ) -> None:
        """Insert an object (leaf signature at the level-0 length).

        Ancestor signatures are recomputed by the scheme's subtree walks
        during AdjustTree — the expensive maintenance the paper describes.
        """
        signature = self.mir_scheme.factory_for_level(0).for_words(terms)
        self.insert(obj_ptr, Rect.from_point(point), signature.to_bytes())

    def delete_object(self, obj_ptr: int, point: Sequence[float]) -> bool:
        """Delete the entry for ``obj_ptr`` at ``point``; True when found."""
        return self.delete(obj_ptr, Rect.from_point(point))

    # -- Query-side signature helpers -------------------------------------------------

    def query_mask(self, terms: Sequence[str]) -> Callable[[int], Signature]:
        """Per-level query signatures for distance-first search.

        Each level has its own signature width, so the query signature
        is hashed at a level's length the first time a node of that level
        is read, then reused.
        """
        per_level: dict[int, Signature] = {}

        def mask(level: int) -> Signature:
            query = per_level.get(level)
            if query is None:
                query = self.mir_scheme.factory_for_level(level).for_words(terms)
                per_level[level] = query
            return query

        return mask

    def matched_terms(
        self, entry: Entry, node: Node, terms: Sequence[str]
    ) -> list[str]:
        """Query terms individually covered by the entry's signature."""
        factory = self.mir_scheme.factory_for_level(node.level)
        entry_signature = Signature.from_bytes(entry.signature)
        return [
            term
            for term in terms
            if entry_signature.matches(factory.for_word(term))
        ]
