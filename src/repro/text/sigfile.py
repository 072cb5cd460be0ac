"""Sequential signature file: the classic alternative to inverted files.

The paper's signature machinery descends from Faloutsos and
Christodoulakis's signature *files* [FC84]: a flat file holding one
fixed-length signature per document, scanned sequentially at query time.
Zobel et al. [ZMR98] (cited by the paper) is the classic comparison of
that organization against inverted files.  We include it as an extra
baseline for the keyword-filtering stage: it reads the whole (compact)
signature file with cheap *sequential* I/O, produces a candidate set with
false positives, and verifies candidates against the object store.

This is exactly the IR2-Tree's leaf level without the tree above it —
benchmarking it isolates how much the paper's contribution owes to the
spatial hierarchy versus to signatures alone.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from repro.errors import ObjectNotFoundError
from repro.storage.block import BlockDevice
from repro.text.analyzer import Analyzer
from repro.text.signature import HashSignatureFactory, Signature

#: Category label for signature-file accesses in IOStats.
SIGFILE_CATEGORY = "sigfile"

_PTR = struct.Struct("<I")


class SignatureFile:
    """Flat file of ``(object_pointer, signature)`` records.

    Args:
        device: block device holding the records.
        analyzer: tokenizer shared with the rest of the system.
        factory: signature scheme (length fixes the record size).
    """

    def __init__(
        self,
        device: BlockDevice,
        analyzer: Analyzer,
        factory: HashSignatureFactory,
    ) -> None:
        self.device = device
        self.analyzer = analyzer
        self.factory = factory
        self._record_size = _PTR.size + factory.length_bytes
        self._count = 0
        self._slot_by_pointer: dict[int, int] = {}

    # -- Construction -----------------------------------------------------------

    def build(self, documents: Iterable[tuple[int, str]]) -> None:
        """Append a signature record for every ``(pointer, text)`` pair."""
        for pointer, text in documents:
            self.add(pointer, text)

    def add(self, pointer: int, text: str) -> None:
        """Append one document's record (cheap: one record write)."""
        self.add_terms(pointer, self.analyzer.terms(text))

    def add_terms(self, pointer: int, terms: Iterable[str]) -> None:
        """Append the record of a document with distinct ``terms``."""
        signature = self.factory.for_words(terms)
        record = _PTR.pack(pointer) + signature.to_bytes()
        self._write_record(self._count, record)
        self._slot_by_pointer[pointer] = self._count
        self._count += 1

    def remove(self, pointer: int) -> None:
        """Tombstone a document's record (zeroed signature never matches
        a non-empty query)."""
        slot = self._slot_by_pointer.pop(pointer, None)
        if slot is None:
            raise ObjectNotFoundError(pointer)
        blank = _PTR.pack(0xFFFFFFFF) + bytes(self.factory.length_bytes)
        self._write_record(slot, blank)

    def _write_record(self, slot: int, record: bytes) -> None:
        offset = slot * self._record_size
        block_size = self.device.block_size
        first = offset // block_size
        last = (offset + len(record) - 1) // block_size
        pos = 0
        for block_id in range(first, last + 1):
            block_lo = block_id * block_size
            in_block = max(offset, block_lo) - block_lo
            take = min(block_size - in_block, len(record) - pos)
            if block_id < self.device.num_blocks:
                existing = bytearray(self.device._read_raw(block_id))
            else:
                existing = bytearray(block_size)
            existing[in_block : in_block + take] = record[pos : pos + take]
            self.device.write_block(block_id, bytes(existing), SIGFILE_CATEGORY)
            pos += take

    # -- Retrieval ---------------------------------------------------------------

    def candidates(self, keywords: Sequence[str]) -> list[int]:
        """Scan the whole file; return pointers whose signature covers the
        conjunctive query signature (includes false positives).

        The scan is one long extent read — almost entirely *sequential*
        accesses, the organization's selling point on spinning disks.
        """
        terms = self.analyzer.query_terms(keywords)
        query = self.factory.for_words(terms)
        if self._count == 0 or query.bits == 0:
            return []
        total_bytes = self._count * self._record_size
        blocks = self.device.blocks_needed(total_bytes)
        data = self.device.read_extent(0, blocks, SIGFILE_CATEGORY)
        matches: list[int] = []
        width = self.factory.length_bytes
        for slot in range(self._count):
            offset = slot * self._record_size
            (pointer,) = _PTR.unpack_from(data, offset)
            if pointer == 0xFFFFFFFF:
                continue  # tombstone
            signature = Signature.from_bytes(
                data[offset + _PTR.size : offset + _PTR.size + width]
            )
            if signature.matches(query):
                matches.append(pointer)
        return matches

    # -- Introspection -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slot_by_pointer)

    @property
    def size_bytes(self) -> int:
        """File footprint: every record slot (including tombstones)."""
        return self._count * self._record_size

    @property
    def size_mb(self) -> float:
        """File footprint in megabytes."""
        return self.size_bytes / (1024 * 1024)
