"""Posting-list codecs: raw arrays and delta+varint compression.

The paper cites Navarro et al. [NMN+00], *Adding Compression to Block
Addressing Inverted Indexes* — the standard engineering move for the IIO
baseline's structure.  Two codecs are provided:

* :class:`RawCodec` — little-endian ``uint32`` per pointer (the layout
  the base experiments use; 4 bytes per posting, direct indexing).
* :class:`VarintCodec` — postings are sorted, so consecutive gaps are
  small; store the first pointer absolute and every subsequent one as a
  delta, each encoded as a LEB128 varint (7 payload bits per byte, high
  bit = continuation).  Dense lists compress toward ~1 byte/posting,
  which shrinks both the structure (Table 2's IIO column) and the blocks
  a retrieval must read.

Both codecs are self-inverse (`decode(encode(x)) == x` for any sorted
pointer list) and are property-tested against each other.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.errors import SerializationError


class PostingCodec:
    """Interface: sorted pointer list <-> bytes."""

    #: Identifier persisted in manifests and used by factories.
    name = "abstract"

    def encode(self, postings: Sequence[int]) -> bytes:
        """Serialize a sorted list of non-negative pointers."""
        raise NotImplementedError

    def decode(self, data: bytes, count: int) -> list[int]:
        """Inverse of :meth:`encode` (``count`` = number of postings)."""
        raise NotImplementedError


class RawCodec(PostingCodec):
    """Fixed-width uint32 postings (4 bytes each).

    A list encodes and decodes with one ``struct`` call over all its
    pointers (``struct`` caches the compiled format).
    """

    name = "raw"

    def encode(self, postings: Sequence[int]) -> bytes:
        return struct.pack(f"<{len(postings)}I", *postings)

    def decode(self, data: bytes, count: int) -> list[int]:
        if len(data) < 4 * count:
            raise SerializationError(
                f"raw posting data truncated: {len(data)} bytes for {count}"
            )
        return list(struct.unpack_from(f"<{count}I", data))


class VarintCodec(PostingCodec):
    """Delta + LEB128 varint compression for sorted postings."""

    name = "varint"

    def encode(self, postings: Sequence[int]) -> bytes:
        out = bytearray()
        previous = 0
        first = True
        for pointer in postings:
            if first:
                value = pointer
                first = False
            else:
                value = pointer - previous
                if value < 0:
                    raise SerializationError(
                        "varint codec requires sorted, unique postings"
                    )
            previous = pointer
            while True:
                byte = value & 0x7F
                value >>= 7
                if value:
                    out.append(byte | 0x80)
                else:
                    out.append(byte)
                    break
        return bytes(out)

    def decode(self, data: bytes, count: int) -> list[int]:
        postings: list[int] = []
        value = 0
        shift = 0
        current = 0
        for byte in data:
            if len(postings) >= count:
                break
            value |= (byte & 0x7F) << shift
            if byte & 0x80:
                shift += 7
                continue
            current = current + value if postings else value
            postings.append(current)
            value = 0
            shift = 0
        if len(postings) < count:
            raise SerializationError(
                f"varint posting data truncated: decoded {len(postings)} "
                f"of {count}"
            )
        return postings


_CODECS = {codec.name: codec for codec in (RawCodec(), VarintCodec())}


def get_codec(name: str) -> PostingCodec:
    """Look up a codec by name ("raw" or "varint")."""
    codec = _CODECS.get(name)
    if codec is None:
        raise SerializationError(f"unknown posting codec {name!r}")
    return codec
