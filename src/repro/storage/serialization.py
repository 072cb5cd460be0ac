"""Byte-level encoding of tree nodes.

The paper derives the R-Tree fan-out from the block size: with 4 KB blocks
"this translates to 113 children per node in our implementation"
(Section VI), and the IR2-/MIR2-Trees *keep that same fan-out* while
"allocat[ing] additional disk block(s) to an IR2-Tree node when needed".

This module makes those numbers real rather than assumed.  A node image is:

====== ======================= =====================================
offset field                   encoding
====== ======================= =====================================
0      magic                   2 bytes ``b"RN"``
2      flags                   1 byte; bit 0 set for leaf nodes
3      level                   1 byte; 0 for leaves
4      entry count             uint16 little-endian
6      node id                 uint32 little-endian
10     signature length        uint16 (bytes per entry signature)
12     reserved                4 zero bytes
16     entries                 ``count`` fixed-size records
====== ======================= =====================================

Each entry record is ``child_ref`` (uint32: a node id for internal nodes,
an object pointer for leaves), the MBR as ``2*dims`` float64 values
(low coordinates then high coordinates), then ``sig_len`` signature bytes.

With ``dims=2`` and no signature an entry is 36 bytes, so a 4 KB block
holds ``(4096 - 16) // 36 == 113`` entries — exactly the paper's figure.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from repro.errors import SerializationError

#: Fixed node header size in bytes.
HEADER_SIZE = 16

#: Header layout: magic, flags, level, count, node_id, sig_len, reserved.
_HEADER = struct.Struct("<2sBBHIH4x")

_MAGIC = b"RN"

#: Bytes of one MBR coordinate (float64).
_COORD_SIZE = 8

#: Bytes of the child reference (uint32).
_REF_SIZE = 4


def entry_size(dims: int, sig_len: int = 0) -> int:
    """Size in bytes of one node entry.

    Args:
        dims: spatial dimensionality.
        sig_len: per-entry signature length in bytes (0 for a plain R-Tree).
    """
    return _REF_SIZE + 2 * dims * _COORD_SIZE + sig_len


def node_capacity(block_size: int, dims: int = 2) -> int:
    """Maximum entries per node, derived from one block of a plain R-Tree.

    This is the paper's convention: the fan-out is fixed by the R-Tree
    entry size, and signature-bearing trees use the *same* fan-out while
    spilling into extra blocks.  For 4096-byte blocks and two dimensions
    this returns 113.
    """
    capacity = (block_size - HEADER_SIZE) // entry_size(dims, 0)
    if capacity < 2:
        raise SerializationError(
            f"block size {block_size} too small for an R-Tree node ({dims}D)"
        )
    return capacity


def node_byte_size(capacity: int, dims: int, sig_len: int) -> int:
    """On-disk size in bytes of a full node with the given shape."""
    return HEADER_SIZE + capacity * entry_size(dims, sig_len)


def blocks_per_node(block_size: int, capacity: int, dims: int, sig_len: int) -> int:
    """Contiguous blocks one node occupies (>= 1)."""
    return max(1, -(-node_byte_size(capacity, dims, sig_len) // block_size))


def encode_node(
    node_id: int,
    level: int,
    is_leaf: bool,
    dims: int,
    sig_len: int,
    entries: list[tuple[int, tuple[float, ...], bytes]],
) -> bytes:
    """Serialize a node to its byte image.

    Args:
        node_id: identifier of the node in the page store.
        level: tree level (0 = leaf).
        is_leaf: leaf flag; redundantly encoded and validated on decode.
        dims: spatial dimensionality.
        sig_len: per-entry signature length in bytes; every entry's
            signature must be exactly this long (possibly 0).
        entries: list of ``(child_ref, mbr_coords, signature_bytes)`` where
            ``mbr_coords`` is ``(lo_0..lo_{d-1}, hi_0..hi_{d-1})``.
    """
    if level < 0 or level > 255:
        raise SerializationError(f"level {level} out of range [0, 255]")
    if len(entries) > 0xFFFF:
        raise SerializationError(f"too many entries: {len(entries)}")
    flags = 1 if is_leaf else 0
    pieces = [_HEADER.pack(_MAGIC, flags, level, len(entries), node_id, sig_len)]
    coord_struct = struct.Struct(f"<{2 * dims}d")
    for child_ref, mbr, sig in entries:
        if len(mbr) != 2 * dims:
            raise SerializationError(
                f"MBR has {len(mbr)} coordinates, expected {2 * dims}"
            )
        if len(sig) != sig_len:
            raise SerializationError(
                f"signature is {len(sig)} bytes, expected {sig_len}"
            )
        if child_ref < 0 or child_ref > 0xFFFFFFFF:
            raise SerializationError(f"child reference {child_ref} out of uint32")
        pieces.append(struct.pack("<I", child_ref))
        pieces.append(coord_struct.pack(*mbr))
        pieces.append(sig)
    return b"".join(pieces)


def decode_node(
    data: bytes, dims: int
) -> tuple[int, int, bool, int, list[tuple[int, tuple[float, ...], bytes]]]:
    """Deserialize a node image.

    Returns:
        ``(node_id, level, is_leaf, sig_len, entries)`` with entries in the
        same shape accepted by :func:`encode_node`.

    Raises:
        SerializationError: on a bad magic value or truncated image.
    """
    if len(data) < HEADER_SIZE:
        raise SerializationError(f"node image truncated: {len(data)} bytes")
    magic, flags, level, count, node_id, sig_len = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise SerializationError(f"bad node magic {magic!r}")
    is_leaf = bool(flags & 1)
    rec_size = entry_size(dims, sig_len)
    needed = HEADER_SIZE + count * rec_size
    if len(data) < needed:
        raise SerializationError(
            f"node image truncated: need {needed} bytes, have {len(data)}"
        )
    records = _entry_struct(dims, sig_len).iter_unpack(
        memoryview(data)[HEADER_SIZE:needed]
    )
    entries = [(rec[0], rec[1:-1], rec[-1]) for rec in records]
    return node_id, level, is_leaf, sig_len, entries


@lru_cache(maxsize=64)
def _entry_struct(dims: int, sig_len: int) -> struct.Struct:
    """One entry record: child ref, ``2*dims`` coordinates, signature."""
    return struct.Struct(f"<I{2 * dims}d{sig_len}s")
