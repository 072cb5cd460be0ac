"""Page store: tree nodes on a block device.

Maps node ids to contiguous block extents on a
:class:`~repro.storage.block.BlockDevice` and moves node byte images in and
out.  Reading or writing a node costs one random block access plus
(extent length - 1) sequential accesses — the accounting behind the thick
and thin bars of the paper's Figures 9b-14b.

The id -> extent directory is kept in memory and its lookups are *not*
charged as I/O.  This is faithful to the paper's setting: there, a
``NodePtr`` *is* the physical block address of the child node, so following
a pointer requires no directory at all.  Our directory merely emulates
physical pointers while letting nodes be relocated when they grow.
"""

from __future__ import annotations

from repro.errors import PageNotFoundError
from repro.storage.allocator import ExtentAllocator
from repro.storage.block import BlockDevice


class PageStore:
    """Node-image persistence with extent allocation and I/O accounting.

    Args:
        device: backing block device.
        category: label under which node accesses are recorded in the
            device's :class:`~repro.storage.iostats.IOStats`.
    """

    def __init__(self, device: BlockDevice, category: str = "node") -> None:
        self.device = device
        self.category = category
        self._allocator = ExtentAllocator()
        self._directory: dict[int, tuple[int, int]] = {}
        self._next_id = 0

    # -- Node id management --------------------------------------------------

    def new_node_id(self) -> int:
        """Reserve and return a fresh node id (no blocks allocated yet)."""
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._directory

    def __len__(self) -> int:
        return len(self._directory)

    def node_ids(self) -> list[int]:
        """Ids of all currently stored nodes."""
        return list(self._directory)

    # -- I/O -------------------------------------------------------------------

    def write(self, node_id: int, image: bytes, reserve_blocks: int | None = None) -> None:
        """Store a node image, (re)allocating its extent as needed.

        Corresponds to the paper's ``StoreNode``: charged as one random
        write plus sequential writes for any additional blocks.

        Args:
            node_id: id of the node being stored.
            image: serialized node bytes.
            reserve_blocks: minimum extent size; trees pass the full-
                capacity node footprint here so a node's blocks are
                reserved up front (the paper sizes nodes by capacity —
                "two disk blocks per node" — not by current fill) and
                in-place updates never relocate the node.
        """
        needed = self.device.blocks_needed(len(image))
        if reserve_blocks is not None and reserve_blocks > needed:
            needed = reserve_blocks
        extent = self._directory.get(node_id)
        if extent is None:
            start = self._allocator.allocate(needed)
        else:
            start, old_len = extent
            start = self._allocator.reallocate(start, old_len, needed)
        self._directory[node_id] = (start, needed)
        # Pad to the full extent: storing a node writes all of its blocks
        # (and guarantees later extent reads never run past the device end).
        padded = image.ljust(needed * self.device.block_size, b"\x00")
        self.device.write_extent(start, padded, self.category)

    def read(self, node_id: int) -> bytes:
        """Load a node image.

        Corresponds to the paper's ``LoadNode``: one random read plus
        sequential reads for any additional blocks.
        """
        extent = self._directory.get(node_id)
        if extent is None:
            raise PageNotFoundError(node_id)
        start, length = extent
        return self.device.read_extent(start, length, self.category)

    def read_uncounted(self, node_id: int) -> bytes:
        """Load a node image off the books (validation and statistics only).

        Reads the extent's raw bytes: nothing is charged to the device or
        to a collector, no trace event is emitted and no shared-read
        session is consulted.
        """
        start, length = self.extent_of(node_id)
        return self.device._read_raw_extent(start, length)

    def delete(self, node_id: int) -> None:
        """Free a node's blocks and forget its id."""
        extent = self._directory.pop(node_id, None)
        if extent is None:
            raise PageNotFoundError(node_id)
        self._allocator.free(*extent)

    # -- Introspection -----------------------------------------------------------

    def extent_of(self, node_id: int) -> tuple[int, int]:
        """Return ``(start_block, num_blocks)`` for a stored node."""
        extent = self._directory.get(node_id)
        if extent is None:
            raise PageNotFoundError(node_id)
        return extent

    @property
    def used_blocks(self) -> int:
        """Blocks currently holding live node images."""
        return sum(length for _, length in self._directory.values())

    @property
    def size_bytes(self) -> int:
        """On-disk footprint of live nodes in bytes."""
        return self.used_blocks * self.device.block_size

    @property
    def size_mb(self) -> float:
        """On-disk footprint of live nodes in megabytes."""
        return self.size_bytes / (1024 * 1024)
