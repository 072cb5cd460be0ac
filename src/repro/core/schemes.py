"""Signature schemes: what turns an R-Tree into an IR2- or MIR2-Tree.

Section IV: an IR2-Tree node's signature "is the superimposition (OR-ing)
of all the signatures of its entries", one fixed length everywhere.  The
MIR2-Tree instead uses "the optimal signature length for each level" and
superimposes "the signatures of all objects in the subtree of each node,
instead of the signatures of the children nodes" — which is exactly why
its maintenance must re-read the underlying objects.

Both behaviours plug into :class:`~repro.spatial.rtree.RTree` through the
:class:`~repro.spatial.rtree.SignatureScheme` hooks, so signature upkeep
rides the standard AdjustTree / CondenseTree passes, as the paper intends.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.spatial.rtree import RTree, SignatureScheme
from repro.spatial.split import NodeEntry
from repro.text.sigdesign import scaled_length_bytes
from repro.text.signature import HashSignatureFactory, SignatureFactory

#: Resolves an object pointer to the object's distinct term set.  Supplied
#: by the engine as ``analyzer.terms(store.load(ptr).text)`` so the object
#: reads are charged as disk accesses.
TermResolver = Callable[[int], set[str]]


class IR2Scheme(SignatureScheme):
    """Fixed-length signatures, parent = OR of the child's entry signatures.

    Args:
        factory: word -> signature mapping shared by the whole tree.
    """

    def __init__(self, factory: SignatureFactory) -> None:
        self.factory = factory

    def length_for_level(self, level: int) -> int:
        return self.factory.length_bytes

    def entry_signature_for_child(
        self, tree: RTree, level: int, entries: Sequence[NodeEntry]
    ) -> bytes:
        """Superimpose the child's entry signatures (cheap, no extra I/O).

        Because every level shares one length, OR-ing the child's entries
        equals OR-ing every object signature in the subtree — the identity
        the IR2-Tree's cheap maintenance rests on.
        """
        superimposed = 0
        for _ref, _coords, signature in entries:
            superimposed |= int.from_bytes(signature, "little")
        return superimposed.to_bytes(self.factory.length_bytes, "little")

    def object_signature(self, terms) -> bytes:
        return self.factory.for_words(terms).to_bytes()

    def subtree_signature(
        self, level: int, entries: Sequence[NodeEntry], subtree_terms
    ) -> bytes:
        """OR of the child's (in-memory) entries — no object reads needed."""
        return self.entry_signature_for_child(None, level, entries)  # type: ignore[arg-type]


class MIR2Scheme(SignatureScheme):
    """Per-level signature lengths with object-level superimposition.

    Entries stored at level ``l`` carry signatures of ``level_lengths[l]``
    bytes (clamped to the last configured level).  A parent entry's
    signature is recomputed from *all objects* in the child's subtree:
    the walk loads every descendant node and object through counted I/O,
    faithfully reproducing the expensive maintenance the paper warns
    about ("we have to recompute the signatures of all ancestor nodes by
    accessing all underlying objects").

    Args:
        level_lengths: signature bytes per level, leaves first.
        term_resolver: maps an object pointer to its distinct terms
            (loading the object through the store so I/O is charged).
        bits_per_word: hash bits set per word at every level.
        seed: signature hash seed.
    """

    def __init__(
        self,
        level_lengths: Sequence[int],
        term_resolver: TermResolver,
        bits_per_word: int = 3,
        seed: int = 0,
    ) -> None:
        if not level_lengths:
            raise ValueError("need at least one level length")
        self.level_lengths = list(level_lengths)
        self.term_resolver = term_resolver
        self.bits_per_word = bits_per_word
        self.seed = seed
        self._factories = [
            HashSignatureFactory(length, bits_per_word, seed)
            for length in self.level_lengths
        ]

    def factory_for_level(self, level: int) -> HashSignatureFactory:
        """Signature factory for entries stored at ``level`` (clamped)."""
        index = min(max(level, 0), len(self._factories) - 1)
        return self._factories[index]

    def length_for_level(self, level: int) -> int:
        return self.factory_for_level(level).length_bytes

    def entry_signature_for_child(
        self, tree: RTree, level: int, entries: Sequence[NodeEntry]
    ) -> bytes:
        """Re-hash every term under the child at the parent level's length."""
        terms: set[str] = set()
        for pointer in self.subtree_object_pointers(tree, level, entries):
            terms |= self.term_resolver(pointer)
        factory = self.factory_for_level(level + 1)
        return factory.for_words(terms).to_bytes()

    def object_signature(self, terms) -> bytes:
        return self.factory_for_level(0).for_words(terms).to_bytes()

    def subtree_signature(
        self, level: int, entries: Sequence[NodeEntry], subtree_terms
    ) -> bytes:
        """Hash the known subtree term union at the parent level's length."""
        factory = self.factory_for_level(level + 1)
        return factory.for_words(subtree_terms).to_bytes()

    @staticmethod
    def subtree_object_pointers(
        tree: RTree, level: int, entries: Sequence[NodeEntry]
    ) -> list[int]:
        """All object pointers below the node at ``level`` with ``entries``
        (descendants read through :meth:`RTree.read_decoded`, counted)."""
        pointers: list[int] = []
        stack = [(level, entries)]
        while stack:
            level, entries = stack.pop()
            if level == 0:
                pointers.extend(ref for ref, _coords, _sig in entries)
            else:
                for ref, _coords, _sig in entries:
                    child = tree.read_decoded(ref)
                    stack.append((child.level, child.entries))
        return pointers


def plan_level_lengths(
    leaf_length_bytes: int,
    avg_unique_words_per_object: float,
    vocabulary_size: int,
    capacity: int,
    max_levels: int = 8,
    fill_factor: float = 0.7,
) -> list[int]:
    """Size each MIR2-Tree level with the optimal-length scaling [MC94].

    Level 0 keeps the configured leaf length.  A node at level ``l``
    superimposes roughly ``(fill_factor * capacity) ** l`` objects; the
    expected number of distinct words among ``n`` documents that each
    contribute ``d`` distinct words from a vocabulary of ``V`` follows the
    coupon-collector form ``V * (1 - (1 - d/V) ** n)``.  Each level's
    length scales the leaf length by the ratio of distinct-word counts so
    every level operates at the same false-positive design point.

    Returns:
        One length (bytes) per level, leaves first, non-decreasing.
    """
    if leaf_length_bytes <= 0:
        raise ValueError(f"leaf length must be positive, got {leaf_length_bytes}")
    if vocabulary_size <= 0 or avg_unique_words_per_object <= 0:
        return [leaf_length_bytes] * max(1, max_levels)
    d0 = min(avg_unique_words_per_object, float(vocabulary_size))
    lengths = [leaf_length_bytes]
    branch = max(2.0, fill_factor * capacity)
    for level in range(1, max_levels):
        subtree_objects = branch**level
        try:
            miss = (1.0 - d0 / vocabulary_size) ** subtree_objects
        except OverflowError:  # pragma: no cover - astronomically large trees
            miss = 0.0
        distinct = vocabulary_size * (1.0 - miss)
        distinct = max(d0, min(float(vocabulary_size), distinct))
        lengths.append(scaled_length_bytes(leaf_length_bytes, math.ceil(d0), math.ceil(distinct)))
    return lengths
