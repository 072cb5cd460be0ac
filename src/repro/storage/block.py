"""Block devices: the lowest storage layer.

All index structures in this reproduction are *disk resident*, exactly as in
the paper's Section VI ("All index structures (R-Tree, IR2-Tree, MIR2-Tree
and inverted index) are disk-resident", block size 4 KB).  A
:class:`BlockDevice` models one file of fixed-size blocks and reports every
access to an :class:`~repro.storage.iostats.IOStats` instance.

Two interchangeable backends are provided:

* :class:`InMemoryBlockDevice` keeps blocks in a Python list of
  immutable ``bytes`` objects.  It is the default for tests and benchmarks: the
  evaluation metric is the *number* of block accesses, not the wall time of
  Python file I/O.  It returns one stable ``bytes`` object per unchanged
  multi-block extent, so a map keyed by node images finds a repeat by
  identity instead of hashing and comparing it again.
* :class:`FileBlockDevice` stores blocks in a real file on disk, proving
  the serialization layer round-trips through an actual filesystem.

Both expose single-block and *extent* (contiguous multi-block) operations.
An extent read costs one random access plus length-1 sequential accesses,
which is how the paper's multi-block IR2/MIR2 nodes are charged.

:meth:`BlockDevice.read_block` is the one counted read.  It reads
``count`` contiguous blocks (one by default) and does its work once per
call, not once per block: one range check, one shared-read session
lookup in the thread's :class:`~repro.storage.iostats.IOScope`, one
:meth:`~repro.storage.iostats.IOStats.record_reads` charge and one
backend read (:meth:`BlockDevice._read_raw_extent`).
:meth:`BlockDevice.read_extent` is the same call under the name the
node, postings and signature-file readers use.
"""

from __future__ import annotations

import os
import threading
from typing import Iterator

from repro.errors import BlockOutOfRangeError, BlockSizeError
from repro.storage.iostats import IOStats, current_scope

#: Disk block size used throughout the paper's experiments (4 KB).
DEFAULT_BLOCK_SIZE = 4096


class BlockDevice:
    """Abstract fixed-block storage with access accounting.

    Subclasses implement :meth:`_read_raw` and :meth:`_write_raw`; this base
    class handles bounds checks, zero-padding, extent operations, and the
    :class:`IOStats` bookkeeping shared by all backends.

    Args:
        block_size: size of each block in bytes.
        stats: accounting sink; a fresh one is created when omitted.
        name: label used in ``repr`` and error messages.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        stats: IOStats | None = None,
        name: str = "device",
    ) -> None:
        if block_size <= 0:
            raise BlockSizeError(block_size, block_size)
        self.block_size = block_size
        self.stats = stats if stats is not None else IOStats()
        self.name = name

    # -- Backend hooks -----------------------------------------------------

    def _read_raw(self, block_id: int) -> bytes:
        raise NotImplementedError

    def _read_raw_extent(self, start: int, count: int) -> bytes:
        """Uncounted read of ``count`` blocks from ``start`` (in range)."""
        return b"".join(self._read_raw(b) for b in range(start, start + count))

    def _write_raw(self, block_id: int, data: bytes) -> None:
        raise NotImplementedError

    @property
    def num_blocks(self) -> int:
        """Number of blocks currently allocated on the device."""
        raise NotImplementedError

    # -- Counted reads and writes ----------------------------------------------

    def read_block(
        self, block_id: int, category: str = "data", count: int = 1
    ) -> bytes:
        """Read ``count`` contiguous blocks from ``block_id``, counted.

        Accounting: the first block is classified by head position
        (usually random); each following block is sequential by
        construction.  An extent that starts below 0 or runs past the
        device end raises :class:`BlockOutOfRangeError` for its first bad
        block before anything is charged or read.

        When a :class:`~repro.storage.sharedread.SharedReadSession` is
        active on the calling thread, a block another query in the batch
        already fetched is served from the session instead: recorded as a
        ``shared_read`` (zero device I/O, head position unchanged).  Each
        maximal run of the extent's other blocks is charged and read as
        one extent and stored in the session.
        """
        if count < 1:
            return b""
        if block_id < 0 or block_id + count > self.num_blocks:
            self._raise_out_of_range(block_id)
        session = current_scope().session
        if session is None:
            self.stats.record_reads(block_id, count, category)
            return self._read_raw_extent(block_id, count)
        cached = session.lookup_extent(self, block_id, count)
        pieces = []
        run_start = None  # first block of the pending run of misses
        for block, data in enumerate(cached, block_id):
            if data is None:
                if run_start is None:
                    run_start = block
                continue
            if run_start is not None:
                pieces.append(self._read_run(session, run_start, block, category))
                run_start = None
            self.stats.record_shared_read(block, category)
            pieces.append(data)
        if run_start is not None:
            pieces.append(
                self._read_run(session, run_start, block_id + count, category)
            )
        return b"".join(pieces)

    def _read_run(self, session, start: int, stop: int, category: str) -> bytes:
        """Charge, read and share blocks ``start`` .. ``stop - 1``."""
        self.stats.record_reads(start, stop - start, category)
        data = self._read_raw_extent(start, stop - start)
        session.store_extent(self, start, data, self.block_size)
        return data

    def write_block(self, block_id: int, data: bytes, category: str = "data") -> None:
        """Write one block (payload is zero-padded to the block size).

        Writing at ``num_blocks`` appends a new block; writing further past
        the end grows the device with zero blocks in between.
        """
        if len(data) > self.block_size:
            raise BlockSizeError(len(data), self.block_size)
        if block_id < 0:
            raise BlockOutOfRangeError(block_id, self.num_blocks)
        self._grow_to(block_id + 1)
        session = current_scope().session
        if session is not None:
            # Mutations are excluded for the lifetime of a batch by the
            # serving layer's RW lock; invalidate anyway so a session that
            # outlives a direct device write can never serve stale bytes.
            session.invalidate(self, block_id)
        self.stats.record_write(block_id, category)
        padded = data.ljust(self.block_size, b"\x00")
        self._write_raw(block_id, padded)

    # -- Extent API ----------------------------------------------------------

    def read_extent(self, start: int, count: int, category: str = "data") -> bytes:
        """Read ``count`` contiguous blocks from ``start``; see :meth:`read_block`."""
        return self.read_block(start, category, count)

    def write_extent(self, start: int, data: bytes, category: str = "data") -> int:
        """Write ``data`` over contiguous blocks starting at ``start``.

        Returns the number of blocks written.  The payload is chunked into
        block-size pieces; the final piece is zero-padded.
        """
        count = max(1, -(-len(data) // self.block_size))
        for i in range(count):
            chunk = data[i * self.block_size : (i + 1) * self.block_size]
            self.write_block(start + i, chunk, category)
        return count

    def blocks_needed(self, num_bytes: int) -> int:
        """Number of blocks required to hold ``num_bytes`` (at least 1)."""
        return max(1, -(-num_bytes // self.block_size))

    # -- Introspection ---------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Total allocated size of the device in bytes."""
        return self.num_blocks * self.block_size

    @property
    def size_mb(self) -> float:
        """Total allocated size of the device in megabytes."""
        return self.size_bytes / (1024 * 1024)

    def iter_blocks(self) -> Iterator[bytes]:
        """Yield every block's content without touching the access counters.

        Intended for offline size/debug inspection only; real algorithms
        must go through :meth:`read_block` so their I/O is counted.
        """
        for block_id in range(self.num_blocks):
            yield self._read_raw(block_id)

    def _check_extent(self, start: int, count: int) -> None:
        if start < 0 or start + count > self.num_blocks:
            self._raise_out_of_range(start)

    def _raise_out_of_range(self, start: int) -> None:
        """Raise for the first bad block of an extent from ``start``."""
        num_blocks = self.num_blocks
        bad = start if start < 0 or start >= num_blocks else num_blocks
        raise BlockOutOfRangeError(bad, num_blocks)

    def _grow_to(self, num_blocks: int) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"blocks={self.num_blocks}, block_size={self.block_size})"
        )


class InMemoryBlockDevice(BlockDevice):
    """Block device backed by an in-process list of immutable blocks.

    The default backend: access *counting* is identical to the file-backed
    device while avoiding filesystem overhead in tests and benchmarks.
    Blocks are ``bytes``, replaced whole on write, so a single-block read
    returns the stored object without a copy and a device copy can share
    them.

    Extent images are stable: the joined image of each multi-block extent
    read is kept, keyed by ``(start, count)``, and the same object is
    returned by every later read of that extent until a block inside it
    is written.  A content-addressed map keyed by the image (the R-tree's
    node intern) then hashes each image once and finds it again by
    identity.  At most one image is kept per multi-block extent; a write
    drops exactly the images whose extent covers the written block.  The
    images sit behind the counted read: :meth:`BlockDevice.read_block`
    charges every block as before.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        stats: IOStats | None = None,
        name: str = "memory",
    ) -> None:
        super().__init__(block_size, stats, name)
        self._blocks: list[bytes] = []
        self._images: dict[tuple[int, int], bytes] = {}
        # Block -> keys of the kept images whose extent covers it.  A key
        # may outlive its image here; dropping a missing image is a no-op.
        self._covering: dict[int, set[tuple[int, int]]] = {}
        # Orders image misses against writes, so an image joined from
        # blocks a write has replaced is never kept past that write.
        self._lock = threading.Lock()

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    def _read_raw(self, block_id: int) -> bytes:
        return self._blocks[block_id]

    def _read_raw_extent(self, start: int, count: int) -> bytes:
        if count < 2:
            return b"".join(self._blocks[start : start + count])
        key = (start, count)
        image = self._images.get(key)
        if image is None:
            with self._lock:
                image = self._images.get(key)
                if image is None:
                    image = b"".join(self._blocks[start : start + count])
                    self._keep(key, image)
        return image

    def _keep(self, key: tuple[int, int], image: bytes) -> None:
        """Hold ``image`` for extent ``key`` (caller holds the lock)."""
        self._images[key] = image
        covering = self._covering
        start, count = key
        for block in range(start, start + count):
            keys = covering.get(block)
            if keys is None:
                covering[block] = {key}
            else:
                keys.add(key)

    def _write_raw(self, block_id: int, data: bytes) -> None:
        with self._lock:
            self._blocks[block_id] = bytes(data)
            keys = self._covering.pop(block_id, None)
            if keys:
                images = self._images
                for key in keys:
                    images.pop(key, None)

    def _grow_to(self, num_blocks: int) -> None:
        while len(self._blocks) < num_blocks:
            self._blocks.append(bytes(self.block_size))

    def copy_from(self, source: "InMemoryBlockDevice") -> None:
        """Replace this device's content with ``source``'s (uncounted).

        Blocks and extent images are immutable, so both are shared, not
        copied: until either device writes inside an extent, reading it
        on the copy returns the very image object the source returns.
        """
        with source._lock:
            blocks = list(source._blocks)
            images = dict(source._images)
        with self._lock:
            self._blocks = blocks
            self._images = {}
            self._covering = {}
            for key, image in images.items():
                self._keep(key, image)

    def load_bytes(self, data: bytes) -> None:
        """Replace this device's content with ``data``, cut into blocks
        (uncounted); ``len(data)`` must be a multiple of the block size."""
        size = self.block_size
        if len(data) % size:
            raise ValueError(
                f"{len(data)} bytes is not a whole number of {size}-byte blocks"
            )
        with self._lock:
            self._blocks = [data[i : i + size] for i in range(0, len(data), size)]
            self._images = {}
            self._covering = {}


class FileBlockDevice(BlockDevice):
    """Block device backed by a real file.

    Useful to validate that every structure genuinely round-trips through
    persistent storage.  The file is opened lazily and kept open; use the
    device as a context manager or call :meth:`close` explicitly.
    """

    def __init__(
        self,
        path: str,
        block_size: int = DEFAULT_BLOCK_SIZE,
        stats: IOStats | None = None,
        create: bool = True,
    ) -> None:
        super().__init__(block_size, stats, name=os.path.basename(path))
        self.path = path
        mode = "r+b"
        if create and not os.path.exists(path):
            with open(path, "wb"):
                pass
        self._file = open(path, mode)
        size = os.path.getsize(path)
        if size % block_size:
            # Trailing partial block: pad the file up to a block boundary.
            self._file.seek(0, os.SEEK_END)
            self._file.write(b"\x00" * (block_size - size % block_size))
            self._file.flush()
        self._num_blocks = os.path.getsize(path) // block_size

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    def _read_raw(self, block_id: int) -> bytes:
        self._file.seek(block_id * self.block_size)
        return self._file.read(self.block_size)

    def _read_raw_extent(self, start: int, count: int) -> bytes:
        self._file.seek(start * self.block_size)
        return self._file.read(count * self.block_size)

    def _write_raw(self, block_id: int, data: bytes) -> None:
        self._file.seek(block_id * self.block_size)
        self._file.write(data)

    def _grow_to(self, num_blocks: int) -> None:
        if num_blocks <= self._num_blocks:
            return
        self._file.seek(0, os.SEEK_END)
        self._file.write(b"\x00" * (num_blocks - self._num_blocks) * self.block_size)
        self._num_blocks = num_blocks

    def close(self) -> None:
        """Flush and close the backing file."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "FileBlockDevice":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
