"""Disk-resident inverted index.

The IIO baseline (paper Section V.A, Figure 7) "first finds all the
objects (object ids) whose text document contains the query keywords by
intersecting the lists returned by the inverted index".  This module is
that index: for every term, a sorted array of object pointers stored
*byte-packed* on a block device — lists are laid out contiguously, small
lists share blocks (as real inverted files do), and retrieving a list
costs one random access plus sequential accesses for every further block
it spans.  That cost profile is the reason IIO degrades when query
keywords are frequent and shines when they are rare (Section VI.B).

Incremental maintenance appends a rewritten copy of the affected list
(the old copy becomes dead space, as in log-structured postings files);
:meth:`InvertedIndex.compact` rewrites the file densely.  The term
dictionary is kept in memory, as real systems keep their lexicon cached;
its serialized size is charged to the structure footprint so Table 2's
IIO sizes are honest.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.errors import QueryError
from repro.storage.block import BlockDevice
from repro.text.analyzer import Analyzer
from repro.text.codecs import PostingCodec, get_codec

#: Category label for posting-list accesses in IOStats.
POSTINGS_CATEGORY = "postings"


def intersect_sorted(short: Sequence[int], long: Sequence[int]) -> list[int]:
    """Intersect two sorted, duplicate-free lists via galloping search.

    For each element of the shorter list, the position in the longer list
    is found by exponential probing from the previous match followed by a
    binary search — ``O(s * log(l/s))``, which beats a linear merge when
    the lengths are skewed (the common case for conjunctive keyword
    queries: one rare term against one frequent term).
    """
    if len(short) > len(long):
        short, long = long, short
    result: list[int] = []
    base = 0
    n = len(long)
    for value in short:
        # Gallop: find an upper bound for value starting at `base`.
        step = 1
        high = base
        while high < n and long[high] < value:
            high = base + step
            step <<= 1
        low = max(base, (high - (step >> 1)))
        high = min(high, n)
        # Binary search in [low, high).
        while low < high:
            mid = (low + high) // 2
            if long[mid] < value:
                low = mid + 1
            else:
                high = mid
        if low < n and long[low] == value:
            result.append(value)
            base = low + 1
        else:
            base = low
        if base >= n:
            break
    return result


class InvertedIndex:
    """Term -> sorted object-pointer postings, byte-packed on a device.

    Args:
        device: block device holding the posting lists.
        analyzer: tokenizer shared with the rest of the system.
        compression: posting codec — "raw" (uint32 arrays, the base
            experiments) or "varint" (delta + LEB128 compression per
            [NMN+00], cited by the paper).
    """

    def __init__(
        self,
        device: BlockDevice,
        analyzer: Analyzer,
        compression: str = "raw",
    ) -> None:
        self.device = device
        self.analyzer = analyzer
        self.codec: PostingCodec = get_codec(compression)
        # term -> (byte_offset, byte_length, posting_count)
        self._lexicon: dict[str, tuple[int, int, int]] = {}
        self._end = 0  # next free byte in the postings log
        self._live_bytes = 0  # bytes of current (non-superseded) lists

    # -- Construction -----------------------------------------------------------

    def build(self, documents: Iterable[tuple[int, str]]) -> None:
        """Bulk-build from ``(object_pointer, text)`` pairs (:meth:`build_terms`)."""
        terms = self.analyzer.terms
        self.build_terms((pointer, terms(text)) for pointer, text in documents)

    def build_terms(self, documents: Iterable[tuple[int, Iterable[str]]]) -> None:
        """Bulk-build from ``(object_pointer, distinct terms)`` pairs.

        Postings are accumulated in memory, sorted, and laid out term by
        term in one buffer — a dense, mostly-sequential layout — and each
        block the buffer covers is then written once.  The log restarts
        at byte 0 and the device is cut back to the blocks it covers, so
        a rebuild replaces every earlier list and sizes the index, and
        its saved image, exactly as a fresh build over the same
        documents.
        """
        accumulator: dict[str, list[int]] = {}
        for pointer, terms in documents:
            for term in terms:
                accumulator.setdefault(term, []).append(pointer)
        self._lexicon.clear()
        log = bytearray()
        for term in sorted(accumulator):
            postings = sorted(set(accumulator[term]))
            data = self.codec.encode(postings)
            self._lexicon[term] = (len(log), len(data), len(postings))
            log += data
        self._write_bytes(0, bytes(log))
        self._end = self._live_bytes = len(log)
        self._truncate_log()

    def add(self, pointer: int, text: str) -> None:
        """Index one new document (incremental maintenance).

        Each of the document's terms has its posting list read, extended,
        and rewritten at the log tail — the linear per-term update cost
        that makes inverted-index maintenance expensive relative to the
        R-Tree family.  Terms are walked in sorted order, as :meth:`build`
        lays them out, so the log layout never follows the string hash.
        """
        for term in sorted(self.analyzer.terms(text)):
            postings = self._read_postings(term) if term in self._lexicon else []
            if pointer not in postings:
                postings.append(pointer)
                postings.sort()
            self._replace_postings(term, postings)

    def remove(self, pointer: int, text: str) -> bool:
        """Remove one document's pointer from its terms' posting lists.

        Returns whether the pointer was actually present in (and removed
        from) at least one list — callers use this to distinguish an
        effective delete from a no-op, so it must not report True merely
        because other documents share the terms.  Lists the pointer was
        never in are left untouched (no rewrite I/O).
        """
        removed = False
        for term in sorted(self.analyzer.terms(text)):
            entry = self._lexicon.get(term)
            if entry is None:
                continue
            postings = self._read_postings(term)
            kept = [p for p in postings if p != pointer]
            if len(kept) == len(postings):
                continue
            removed = True
            if kept:
                self._replace_postings(term, kept)
            else:
                self._lexicon.pop(term)
                self._live_bytes -= entry[1]
        return removed

    def compact(self) -> None:
        """Rewrite every live list densely, reclaiming dead log space.

        The device is cut back to the blocks the compacted log covers.
        """
        lists = {term: self._read_postings(term) for term in sorted(self._lexicon)}
        self._lexicon.clear()
        self._end = 0
        self._live_bytes = 0
        for term, postings in lists.items():
            self._append_postings(term, postings)
        self._truncate_log()

    def _truncate_log(self) -> None:
        """Drop the device blocks past the end of the log."""
        block_size = self.device.block_size
        self.device.truncate(-(-self._end // block_size))

    def _append_postings(self, term: str, postings: Sequence[int]) -> None:
        data = self.codec.encode(postings)
        offset = self._end
        self._write_bytes(offset, data)
        self._end += len(data)
        self._lexicon[term] = (offset, len(data), len(postings))
        self._live_bytes += len(data)

    def _replace_postings(self, term: str, postings: Sequence[int]) -> None:
        old = self._lexicon.get(term)
        if old is not None:
            self._live_bytes -= old[1]
        self._append_postings(term, postings)

    def _write_bytes(self, offset: int, data: bytes) -> None:
        """Write ``data`` at byte ``offset`` via read-modify-write of blocks."""
        if not data:
            return
        block_size = self.device.block_size
        first = offset // block_size
        last = (offset + len(data) - 1) // block_size
        pos = 0
        for block_id in range(first, last + 1):
            block_lo = block_id * block_size
            in_block = max(offset, block_lo) - block_lo
            take = min(block_size - in_block, len(data) - pos)
            if in_block == 0 and take == block_size:
                chunk = data[pos : pos + take]
            else:
                if block_id < self.device.num_blocks:
                    existing = bytearray(self.device._read_raw(block_id))
                else:
                    existing = bytearray(block_size)
                existing[in_block : in_block + take] = data[pos : pos + take]
                chunk = bytes(existing)
            self.device.write_block(block_id, chunk, POSTINGS_CATEGORY)
            pos += take

    # -- Retrieval ---------------------------------------------------------------

    def postings(self, term: str) -> list[int]:
        """The paper's ``RetrieveObjectPointersList``: counted block reads."""
        if term not in self._lexicon:
            return []
        return self._read_postings(term)

    def _read_postings(self, term: str) -> list[int]:
        offset, length, count = self._lexicon[term]
        if length == 0:
            return []
        block_size = self.device.block_size
        first = offset // block_size
        last = (offset + length - 1) // block_size
        data = self.device.read_extent(first, last - first + 1, POSTINGS_CATEGORY)
        start = offset - first * block_size
        payload = data[start : start + length]
        return self.codec.decode(payload, count)

    def retrieve_conjunction(
        self, keywords: Iterable[str], terms: Sequence[str] | None = None
    ) -> list[int]:
        """Pointers of objects containing *all* keywords (Figure 7, lines 1-3).

        Lists are fetched shortest-first so the running intersection stays
        small; an empty list short-circuits without further I/O.  The
        intersection itself uses galloping (exponential) search — probing
        each longer list for the survivors of the shorter one — the
        standard technique when list lengths are skewed.  ``terms`` are
        the keywords' normalized terms when the caller has them
        (:meth:`~repro.text.analyzer.Analyzer.query_terms`); they are
        computed here otherwise.
        """
        if terms is None:
            terms = self.analyzer.query_terms(keywords)
        if not terms:
            raise QueryError("conjunctive retrieval needs at least one keyword")
        # Order by posting count without touching the disk (a copy: the
        # caller's terms keep their order).
        lexicon = self._lexicon
        result: list[int] | None = None
        for term in sorted(terms, key=lambda t: lexicon.get(t, (0, 0, 0))[2]):
            postings = self.postings(term)
            if not postings:
                return []
            if result is None:
                result = postings
            else:
                result = intersect_sorted(result, postings)
            if not result:
                return []
        return result if result is not None else []

    def document_frequency(self, term: str) -> int:
        """Posting-list length of ``term`` (no I/O)."""
        entry = self._lexicon.get(term)
        return entry[2] if entry else 0

    # -- Introspection -------------------------------------------------------------

    def __contains__(self, term: str) -> bool:
        return term in self._lexicon

    def __len__(self) -> int:
        return len(self._lexicon)

    def terms(self) -> Iterator[str]:
        """Iterate over indexed terms."""
        return iter(self._lexicon)

    @property
    def postings_bytes(self) -> int:
        """Bytes of live (current) posting lists."""
        return self._live_bytes

    @property
    def dead_bytes(self) -> int:
        """Superseded log space reclaimable by :meth:`compact`."""
        return self._end - self._live_bytes

    @property
    def lexicon_bytes(self) -> int:
        """Serialized size of the in-memory dictionary (term + extent info)."""
        return sum(len(term.encode("utf-8")) + 14 for term in self._lexicon)

    @property
    def size_bytes(self) -> int:
        """Structure footprint: live postings plus the lexicon (Table 2)."""
        return self._live_bytes + self.lexicon_bytes

    @property
    def size_mb(self) -> float:
        """Structure footprint in megabytes (Table 2's IIO column)."""
        return self.size_bytes / (1024 * 1024)
