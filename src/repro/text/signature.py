"""Signature files: superimposed coding [FC84].

A *signature* is a fixed-length bit vector.  Each word sets a small number
of bits (via independent hash functions); a document's signature is the
bitwise OR (superimposition) of its words' signatures, and a node's
signature superimposes everything below it.  The containment test

    ``document_signature & query_signature == query_signature``

never misses a true match (no false negatives) but can report *false
positives* — exactly the property the IR2-Tree exploits for subtree
pruning and then compensates for with the verification step on Line 21 of
the paper's Figure 8.

Two factories are provided:

* :class:`HashSignatureFactory` — the production scheme: ``bits_per_word``
  independent, deterministic, seeded BLAKE2b hashes per word, with a
  per-factory word cache so each vocabulary word is hashed once.
* :class:`ExactSignatureFactory` — one dedicated bit per vocabulary word:
  no false positives at all.  Used by tests to reproduce the paper's
  worked examples deterministically and by the false-positive ablation as
  the ground-truth reference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import SignatureLengthError


@dataclass(frozen=True)
class Signature:
    """An immutable bit-vector signature.

    Attributes:
        bits: the bit pattern as an arbitrary-precision integer (bit ``i``
            corresponds to position ``i``).
        length_bits: nominal width of the vector; ``bits`` always fits it.
    """

    bits: int
    length_bits: int

    def __post_init__(self) -> None:
        if self.length_bits < 0:
            raise SignatureLengthError(self.length_bits, self.length_bits)
        if self.bits < 0 or self.bits >> self.length_bits:
            raise SignatureLengthError(self.bits.bit_length(), self.length_bits)

    # -- Constructors ---------------------------------------------------------

    @staticmethod
    def empty(length_bits: int) -> "Signature":
        """The all-zero signature of the given width."""
        return Signature(0, length_bits)

    @staticmethod
    def from_bytes(data: bytes) -> "Signature":
        """Decode a signature from little-endian bytes."""
        return Signature(int.from_bytes(data, "little"), len(data) * 8)

    @staticmethod
    def superimpose_all(
        signatures: Iterable["Signature"], length_bits: int
    ) -> "Signature":
        """OR together any number of signatures of width ``length_bits``."""
        acc = 0
        for signature in signatures:
            if signature.length_bits != length_bits:
                raise SignatureLengthError(signature.length_bits, length_bits)
            acc |= signature.bits
        return Signature(acc, length_bits)

    # -- Operations -------------------------------------------------------------

    def superimpose(self, other: "Signature") -> "Signature":
        """Bitwise OR of two equal-width signatures."""
        if self.length_bits != other.length_bits:
            raise SignatureLengthError(self.length_bits, other.length_bits)
        return Signature(self.bits | other.bits, self.length_bits)

    def __or__(self, other: "Signature") -> "Signature":
        return self.superimpose(other)

    def matches(self, query: "Signature") -> bool:
        """Containment test: every bit of ``query`` is set in ``self``.

        The paper's "s matches w" check (Figure 8, lines 5 and 9).
        """
        if self.length_bits != query.length_bits:
            raise SignatureLengthError(self.length_bits, query.length_bits)
        return self.bits & query.bits == query.bits

    def weight(self) -> int:
        """Number of set bits (signature weight)."""
        return self.bits.bit_count()

    @property
    def length_bytes(self) -> int:
        """Width of the vector in whole bytes."""
        return (self.length_bits + 7) // 8

    def to_bytes(self) -> bytes:
        """Encode as little-endian bytes of the signature's byte width."""
        return self.bits.to_bytes(self.length_bytes, "little")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signature({self.length_bits} bits, weight={self.weight()})"


class SignatureFactory:
    """Interface: deterministic word -> signature mapping of fixed width."""

    #: Width of produced signatures in bits.
    length_bits: int

    @property
    def length_bytes(self) -> int:
        """Width of produced signatures in whole bytes."""
        return (self.length_bits + 7) // 8

    def for_word(self, word: str) -> Signature:
        """Signature of a single word."""
        return Signature(self.word_bits(word), self.length_bits)

    def word_bits(self, word: str) -> int:
        """The bit pattern of :meth:`for_word`, as an integer."""
        raise NotImplementedError

    def for_words(self, words: Iterable[str]) -> Signature:
        """Superimposed signature of a word collection: its words' bits ORed."""
        acc = 0
        for word in words:
            acc |= self.word_bits(word)
        return Signature(acc, self.length_bits)

    def empty(self) -> Signature:
        """The all-zero signature at this factory's width."""
        return Signature.empty(self.length_bits)


class HashSignatureFactory(SignatureFactory):
    """Superimposed coding via seeded BLAKE2b multi-hashing.

    Each word sets ``bits_per_word`` (not necessarily distinct) bit
    positions derived from one 16-byte keyed hash.  The mapping is a pure
    function of ``(word, seed, length_bits, bits_per_word)``, so indexes
    are reproducible across runs and machines.

    Args:
        length_bytes: signature width in bytes (the paper sweeps 2-378).
        bits_per_word: bits set per word (``m`` in the design formulas).
        seed: hash seed; change to draw an independent signature scheme.
    """

    def __init__(self, length_bytes: int, bits_per_word: int = 3, seed: int = 0) -> None:
        if length_bytes <= 0:
            raise SignatureLengthError(length_bytes * 8, 0)
        if bits_per_word < 1:
            raise ValueError(f"bits_per_word must be >= 1, got {bits_per_word}")
        self.length_bits = length_bytes * 8
        self.bits_per_word = bits_per_word
        self.seed = seed
        self._cache: dict[str, int] = {}

    def word_bits(self, word: str) -> int:
        bits = self._cache.get(word)
        if bits is None:
            bits = self._hash_word(word)
            self._cache[word] = bits
        return bits

    def _hash_word(self, word: str) -> int:
        digest = hashlib.blake2b(
            word.encode("utf-8"),
            digest_size=16,
            key=self.seed.to_bytes(8, "little"),
        ).digest()
        value = int.from_bytes(digest, "little")
        bits = 0
        for _ in range(self.bits_per_word):
            bits |= 1 << (value % self.length_bits)
            value //= self.length_bits
        return bits


class ExactSignatureFactory(SignatureFactory):
    """One dedicated bit per vocabulary word: zero false positives.

    Only practical for small vocabularies; used to reproduce the paper's
    worked examples (where pruning decisions are stated as facts) and as a
    ground-truth baseline in the false-positive ablation.

    Args:
        vocabulary: the closed set of words; width = its size.
        strict: raise on out-of-vocabulary words instead of mapping them
            to the empty signature.
    """

    def __init__(self, vocabulary: Sequence[str], strict: bool = False) -> None:
        ordered = sorted(set(vocabulary))
        self._slots = {word: i for i, word in enumerate(ordered)}
        # Round up to whole bytes so widths survive a disk round-trip
        # (signatures are stored as bytes in node entries).
        self.length_bits = 8 * max(1, -(-len(ordered) // 8))
        self.strict = strict

    def word_bits(self, word: str) -> int:
        slot = self._slots.get(word)
        if slot is None:
            if self.strict:
                raise KeyError(f"word {word!r} not in signature vocabulary")
            return 0
        return 1 << slot
