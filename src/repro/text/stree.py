"""S-Tree: a dynamic balanced signature tree [Dep86].

Section VII: "we adopt the idea of an indexed descriptor file structure
[PBC80] (S-Tree [Dep86] is a variant of an indexed descriptor), which is
a tree where the lowest level consists of block signatures ... A group of
b signatures at the i-th level is superimposed together to form a
signature at the (i-1)-th level."

The IR²-Tree is exactly this idea grafted onto an R-Tree's *spatial*
grouping.  The S-Tree proper groups by **signature similarity** instead:
Insert descends toward the child whose signature needs the fewest new
bits (least weight increase), and an overfull node splits around the two
most dissimilar seed signatures.  Implementing it provides the paper's
intellectual ancestor as a keyword-only index, so benchmarks can separate
what the IR²-Tree owes to signatures-in-a-tree from what it owes to
spatial grouping.

The tree is disk-resident through the same
:class:`~repro.storage.pagestore.PageStore` machinery as the R-Tree
family (node images reuse the entry serialization with a degenerate
0-dimensional MBR).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.errors import TreeInvariantError
from repro.storage.pagestore import PageStore
from repro.storage.serialization import decode_node, encode_node
from repro.text.analyzer import Analyzer
from repro.text.signature import HashSignatureFactory, Signature

#: Default maximum entries per S-Tree node.
DEFAULT_NODE_CAPACITY = 32


@dataclass
class SEntry:
    """One S-Tree slot: a child reference and its signature.

    ``child_ref`` is a node id in internal nodes and an object pointer in
    leaves.
    """

    child_ref: int
    signature: Signature


@dataclass
class SNode:
    """One S-Tree node."""

    node_id: int
    level: int
    entries: list[SEntry] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def superimposed(self, length_bits: int) -> Signature:
        """OR of all entry signatures."""
        return Signature.superimpose_all(
            (entry.signature for entry in self.entries), length_bits
        )


class STree:
    """Dynamic balanced signature tree over ``(pointer, terms)`` documents.

    Args:
        pages: page store for node images.
        analyzer: shared tokenizer.
        factory: signature scheme (one fixed length, as in [Dep86]).
        capacity: maximum entries per node.
    """

    def __init__(
        self,
        pages: PageStore,
        analyzer: Analyzer,
        factory: HashSignatureFactory,
        capacity: int = DEFAULT_NODE_CAPACITY,
    ) -> None:
        if capacity < 2:
            raise TreeInvariantError(f"capacity must be >= 2, got {capacity}")
        self.pages = pages
        self.analyzer = analyzer
        self.factory = factory
        self.capacity = capacity
        self.height = 1
        self.size = 0
        root = SNode(pages.new_node_id(), 0)
        self.root_id = root.node_id
        self.store_node(root)

    # ------------------------------------------------------------------ I/O --

    def store_node(self, node: SNode) -> None:
        """Serialize and write one node (counted I/O)."""
        raw_entries = [
            (entry.child_ref, (), entry.signature.to_bytes())
            for entry in node.entries
        ]
        image = encode_node(
            node.node_id,
            node.level,
            node.is_leaf,
            0,  # no spatial dimensions
            self.factory.length_bytes,
            raw_entries,
        )
        self.pages.write(node.node_id, image)

    def load_node(self, node_id: int) -> SNode:
        """Read and decode one node (counted I/O)."""
        return self._decode(node_id, self.pages.read(node_id))

    @staticmethod
    def _decode(node_id: int, image: bytes) -> SNode:
        _, level, _, _, raw_entries = decode_node(image, 0)
        entries = [
            SEntry(ref, Signature.from_bytes(sig)) for ref, _, sig in raw_entries
        ]
        return SNode(node_id, level, entries)

    # --------------------------------------------------------------- Insert --

    def insert(self, pointer: int, text: str) -> None:
        """Index one document."""
        self.insert_terms(pointer, self.analyzer.terms(text))

    def insert_terms(self, pointer: int, terms: Iterable[str]) -> None:
        """Index one document given its distinct ``terms``."""
        signature = self.factory.for_words(terms)
        self._insert_entry(SEntry(pointer, signature))
        self.size += 1

    def _insert_entry(self, entry: SEntry) -> None:
        path = self._choose_path(entry.signature)
        node = path[-1][0]
        node.entries.append(entry)
        sibling = self._split_if_needed(node)
        self.store_node(node)
        if sibling is not None:
            self.store_node(sibling)
        self._adjust(path, sibling)

    def _choose_path(self, signature: Signature) -> list[tuple[SNode, int]]:
        """Descend by least weight increase (the S-Tree criterion)."""
        node = self.load_node(self.root_id)
        path: list[tuple[SNode, int]] = []
        while not node.is_leaf:
            best_index = 0
            best_key = (float("inf"), float("inf"))
            for i, entry in enumerate(node.entries):
                grown = entry.signature.bits | signature.bits
                increase = (grown ^ entry.signature.bits).bit_count()
                key = (increase, entry.signature.weight())
                if key < best_key:
                    best_key = key
                    best_index = i
            path.append((node, best_index))
            node = self.load_node(node.entries[best_index].child_ref)
        path.append((node, -1))
        return path

    def _split_if_needed(self, node: SNode) -> SNode | None:
        if len(node.entries) <= self.capacity:
            return None
        group_a, group_b = self._split_entries(node.entries)
        node.entries = group_a
        return SNode(self.pages.new_node_id(), node.level, group_b)

    def _split_entries(
        self, entries: Sequence[SEntry]
    ) -> tuple[list[SEntry], list[SEntry]]:
        """Seed with the two most dissimilar signatures (max Hamming
        distance), then assign each entry to the seed needing fewer new
        bits, keeping groups at least quarter-full."""
        best_pair = (0, 1)
        best_distance = -1
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                distance = (
                    entries[i].signature.bits ^ entries[j].signature.bits
                ).bit_count()
                if distance > best_distance:
                    best_distance = distance
                    best_pair = (i, j)
        seed_a, seed_b = best_pair
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        bits_a = entries[seed_a].signature.bits
        bits_b = entries[seed_b].signature.bits
        min_fill = max(1, len(entries) // 4)
        rest = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
        for index, entry in enumerate(rest):
            remaining = len(rest) - index
            if len(group_a) + remaining == min_fill:
                group_a.extend(rest[index:])
                break
            if len(group_b) + remaining == min_fill:
                group_b.extend(rest[index:])
                break
            grow_a = (entry.signature.bits | bits_a) ^ bits_a
            grow_b = (entry.signature.bits | bits_b) ^ bits_b
            if (grow_a.bit_count(), len(group_a)) <= (
                grow_b.bit_count(),
                len(group_b),
            ):
                group_a.append(entry)
                bits_a |= entry.signature.bits
            else:
                group_b.append(entry)
                bits_b |= entry.signature.bits
        return group_a, group_b

    def _adjust(self, path: list[tuple[SNode, int]], sibling: SNode | None) -> None:
        child = path[-1][0]
        for parent, child_index in reversed(path[:-1]):
            parent.entries[child_index].signature = child.superimposed(
                self.factory.length_bits
            )
            if sibling is not None:
                parent.entries.append(
                    SEntry(
                        sibling.node_id,
                        sibling.superimposed(self.factory.length_bits),
                    )
                )
            sibling = self._split_if_needed(parent)
            self.store_node(parent)
            if sibling is not None:
                self.store_node(sibling)
            child = parent
        if sibling is not None:
            new_root = SNode(self.pages.new_node_id(), child.level + 1)
            new_root.entries = [
                SEntry(child.node_id, child.superimposed(self.factory.length_bits)),
                SEntry(
                    sibling.node_id, sibling.superimposed(self.factory.length_bits)
                ),
            ]
            self.store_node(new_root)
            self.root_id = new_root.node_id
            self.height += 1

    # --------------------------------------------------------------- Search --

    def candidates(self, keywords: Sequence[str]) -> list[int]:
        """Object pointers whose signatures cover the conjunctive query.

        Prunes every subtree whose superimposed signature misses a query
        bit; the result still contains signature false positives and must
        be verified against the documents (as with every signature
        method).
        """
        terms = self.analyzer.query_terms(keywords)
        query = self.factory.for_words(terms)
        if query.bits == 0:
            return []
        matches: list[int] = []
        stack = [self.root_id]
        while stack:
            node = self.load_node(stack.pop())
            for entry in node.entries:
                if not entry.signature.matches(query):
                    continue
                if node.is_leaf:
                    matches.append(entry.child_ref)
                else:
                    stack.append(entry.child_ref)
        return sorted(matches)

    # ---------------------------------------------------------- Introspection --

    def _load_uncounted(self, node_id: int) -> SNode:
        """Load a node off the books (validation and statistics only).

        Decodes the extent's raw bytes: no device, collector or trace
        sees the read and no shared-read session serves it.
        """
        return self._decode(node_id, self.pages.read_uncounted(node_id))

    def iter_nodes(self) -> Iterator[SNode]:
        """Yield every node (uncounted reads; for validation and stats)."""
        stack = [self.root_id]
        while stack:
            node = self._load_uncounted(stack.pop())
            yield node
            if not node.is_leaf:
                stack.extend(entry.child_ref for entry in node.entries)

    def validate(self) -> None:
        """Check structural invariants (balance, coverage, fan-out)."""
        found = 0
        for node in self.iter_nodes():
            if len(node.entries) > self.capacity:
                raise TreeInvariantError(
                    f"S-Tree node {node.node_id} overfull: {len(node.entries)}"
                )
            if node.is_leaf:
                found += len(node.entries)
                continue
            for entry in node.entries:
                child = self._load_uncounted(entry.child_ref)
                if child.level != node.level - 1:
                    raise TreeInvariantError("S-Tree not height-balanced")
                child_sig = child.superimposed(self.factory.length_bits)
                if not entry.signature.matches(child_sig):
                    raise TreeInvariantError(
                        "parent signature does not cover child superimposition"
                    )
        if found != self.size:
            raise TreeInvariantError(
                f"S-Tree says size={self.size}, found {found}"
            )

    @property
    def size_bytes(self) -> int:
        """On-disk footprint in bytes."""
        return self.pages.size_bytes
