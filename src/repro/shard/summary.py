"""Per-shard keyword summaries for coordinator-side routing.

A :class:`KeywordSummary` is a Bloom filter over the distinct terms of
one shard's corpus, built from the same superimposed-coding machinery as
the IR2-Tree's signatures (:class:`repro.text.signature
.HashSignatureFactory`).  The coordinator keeps one summary per shard in
its routing table and tests query keywords against it *before* paying
any shard I/O:

* a term whose signature is **not** contained in the summary is
  provably absent from the shard (no false negatives), so

  - a **conjunctive** (point/area) query can skip the shard as soon as
    *any* query term is absent — every answer must contain all terms;
  - a **ranked** query with zero-IR pruning can skip the shard only when
    *all* query terms are absent — partial matches still score.

* containment can be a **false positive** (superimposed bits collide),
  which costs a wasted shard probe but never a wrong answer.

Deletes only ever *loosen* a Bloom filter (bits cannot be cleared
per-document), so each summary carries a ``stale_deletes`` counter; the
owning engine rebuilds the summary from the shard's live objects once
enough deletes accumulate (see ``ShardedEngine._note_summary_delete``),
mirroring the effective-delete compaction of ``IIOIndex``.

Summaries serialize to JSON dicts (hex-encoded bit pattern) and ride in
the sharded manifest; manifests written before this field existed load
fine — the engine rebuilds summaries from the shard corpora instead.
"""

from __future__ import annotations

from typing import Iterable

from repro.text.signature import HashSignatureFactory

#: Default Bloom-filter width in bytes.  16384 bits with 3 bits per word
#: keeps the fill ratio around 25% (single-term false-positive rate
#: ~1.5%) for shards holding a few thousand distinct terms, while
#: costing only ~4 KiB of hex in the manifest per shard.
DEFAULT_SUMMARY_BYTES = 2048

#: Bits set per term (``m`` in the signature design formulas).
DEFAULT_BITS_PER_WORD = 3


class KeywordSummary:
    """Bloom filter over one shard's distinct terms, with staleness.

    Args:
        length_bytes: filter width in bytes.
        bits_per_word: bits set per term.
        seed: hash seed (all summaries of an engine share one scheme).
        bits: initial bit pattern (used when reloading from a manifest).
        stale_deletes: deletes absorbed since the last rebuild.
    """

    def __init__(
        self,
        length_bytes: int = DEFAULT_SUMMARY_BYTES,
        bits_per_word: int = DEFAULT_BITS_PER_WORD,
        seed: int = 0,
        bits: int = 0,
        stale_deletes: int = 0,
    ) -> None:
        self.factory = HashSignatureFactory(
            length_bytes, bits_per_word=bits_per_word, seed=seed
        )
        self.bits = bits
        self.stale_deletes = stale_deletes

    # -- Maintenance ----------------------------------------------------------

    def add_terms(self, terms: Iterable[str]) -> None:
        """Superimpose one document's distinct terms onto the filter."""
        for term in terms:
            self.bits |= self.factory.for_word(term).bits

    def note_delete(self) -> None:
        """Record one effective delete; bits stay set (filter loosens)."""
        self.stale_deletes += 1

    def rebuild(self, term_sets: Iterable[Iterable[str]]) -> None:
        """Reset and refill from the live documents' term sets.

        Superimposing is idempotent, so each distinct term's bits are
        ORed in once, however many documents hold it.
        """
        self.bits = self.factory.for_words(set().union(*term_sets)).bits
        self.stale_deletes = 0

    # -- Routing tests --------------------------------------------------------

    def may_contain(self, term: str) -> bool:
        """False only when ``term`` is provably absent from the shard."""
        word = self.factory.for_word(term).bits
        return self.bits & word == word

    def may_contain_all(self, terms: Iterable[str]) -> bool:
        """Conjunctive routing test: every term might be present."""
        return all(self.may_contain(term) for term in terms)

    def may_contain_any(self, terms: Iterable[str]) -> bool:
        """Disjunctive routing test: at least one term might be present.

        Vacuously true for an empty term collection — a query without
        keywords constrains nothing.
        """
        terms = list(terms)
        if not terms:
            return True
        return any(self.may_contain(term) for term in terms)

    # -- Copy / serialization -------------------------------------------------

    def copy(self) -> "KeywordSummary":
        """An independent summary with the same bits and staleness."""
        return KeywordSummary(
            length_bytes=self.factory.length_bytes,
            bits_per_word=self.factory.bits_per_word,
            seed=self.factory.seed,
            bits=self.bits,
            stale_deletes=self.stale_deletes,
        )

    def to_dict(self) -> dict:
        """JSON-serializable state; inverse of :meth:`from_dict`."""
        return {
            "length_bytes": self.factory.length_bytes,
            "bits_per_word": self.factory.bits_per_word,
            "seed": self.factory.seed,
            "bits": format(self.bits, "x"),
            "stale_deletes": self.stale_deletes,
        }

    @staticmethod
    def from_dict(state: dict) -> "KeywordSummary":
        """Rebuild a summary from its :meth:`to_dict` payload."""
        return KeywordSummary(
            length_bytes=state["length_bytes"],
            bits_per_word=state["bits_per_word"],
            seed=state["seed"],
            bits=int(state["bits"], 16),
            stale_deletes=state.get("stale_deletes", 0),
        )
