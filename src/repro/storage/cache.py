"""LRU buffer pool (extension; disabled by default).

The paper evaluates cold-cache behaviour: every node access is a disk
access.  Real deployments put a buffer pool between the index and the
drive, so we provide one as a documented extension and measure its effect
in ``benchmarks/bench_ablation_cache.py``.

:class:`BufferPoolDevice` wraps any
:class:`~repro.storage.block.BlockDevice` and serves repeated reads of hot
blocks from memory.  Cache hits are recorded separately and do **not**
count as disk accesses; the wrapped device's stats continue to reflect
true disk traffic.  Writes are write-through (the paper's trees store
nodes eagerly), updating the cached copy.

The pool is safe under concurrent readers and writers, and cache hits are
not serialized behind in-flight disk reads: a short *pool lock* protects
the LRU map and the hit/miss counters (so ``hits + misses`` always equals
the number of blocks read and a reader can never observe a torn cache
entry), while a separate *inner lock* serializes access to the
wrapped device only — its backends (notably
:class:`~repro.storage.block.FileBlockDevice` with its single shared file
handle) are not themselves safe under interleaved raw reads and writes.
A miss releases the pool lock while the block is fetched, re-checks the
cache before admitting, and skips admission entirely if any write landed
in the window, so concurrent hits proceed and stale data is never cached.
Writes hold only the inner lock across the disk write and take the pool
lock just for the in-memory epoch bump and cache refresh afterwards, so
hits are never serialized behind disk *write* latency either — the pool
lock is never held across any disk I/O.  The serving layer
(:mod:`repro.serve`) relies on this when many query threads share one
buffered device.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.storage.block import BlockDevice


class BufferPoolDevice(BlockDevice):
    """Write-through LRU cache in front of another block device.

    Args:
        inner: the device actually holding the blocks.
        capacity_blocks: maximum number of cached blocks (must be >= 1).
    """

    def __init__(self, inner: BlockDevice, capacity_blocks: int = 256) -> None:
        if capacity_blocks < 1:
            raise ValueError("buffer pool capacity must be at least 1 block")
        super().__init__(inner.block_size, inner.stats, name=f"lru({inner.name})")
        self.inner = inner
        self.capacity_blocks = capacity_blocks
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        self._pool_lock = threading.RLock()
        self._inner_lock = threading.Lock()
        self._write_epoch = 0
        self.hits = 0
        self.misses = 0

    @property
    def num_blocks(self) -> int:
        return self.inner.num_blocks

    # BlockDevice template hooks are unused; reads/writes are overridden
    # wholesale so hits can bypass the accounting entirely.
    def _read_raw(self, block_id: int) -> bytes:  # pragma: no cover
        return self.inner._read_raw(block_id)

    def _write_raw(self, block_id: int, data: bytes) -> None:  # pragma: no cover
        self.inner._write_raw(block_id, data)

    def _grow_to(self, num_blocks: int) -> None:
        self.inner._grow_to(num_blocks)

    def read_block(
        self, block_id: int, category: str = "data", count: int = 1
    ) -> bytes:
        """Serve each block from cache when possible; read the rest through.

        Blocks are taken in order, each a hit or a miss, so ``hits +
        misses`` grows by ``count``.  Each maximal run of misses is read
        from the inner device as one extent — charged exactly as its
        blocks read one at a time — and admitted block by block before
        the block after it is looked up.  The pool lock is released while
        the inner device is read, so hits on other blocks proceed while a
        miss is on disk.
        """
        self._check_extent(block_id, count)
        block_size = self.block_size
        stop = block_id + count
        pieces = []
        block = block_id
        while block < stop:
            with self._pool_lock:
                cached = self._cache.get(block)
                if cached is not None:
                    self._cache.move_to_end(block)
                    self.hits += 1
                    pieces.append(cached)
                    block += 1
                    continue
                run_stop = block + 1
                while run_stop < stop and run_stop not in self._cache:
                    run_stop += 1
                self.misses += run_stop - block
                epoch = self._write_epoch
            with self._inner_lock:
                data = self.inner.read_block(block, category, run_stop - block)
            with self._pool_lock:
                for offset in range(0, len(data), block_size):
                    piece = data[offset : offset + block_size]
                    pieces.append(self._admit_read(block, piece, epoch))
                    block += 1
        return b"".join(pieces)

    def _admit_read(self, block_id: int, data: bytes, epoch: int) -> bytes:
        """Cache a block a miss just read, unless it may be stale; return
        the freshest copy (caller holds the pool lock)."""
        current = self._cache.get(block_id)
        if current is not None:
            # Another miss (or a write-through) populated the entry
            # while we were on disk; theirs is at least as fresh.
            self._cache.move_to_end(block_id)
            return current
        if self._write_epoch == epoch:
            self._admit(block_id, data)
        # else: a write landed during our disk read and its cached
        # copy was already evicted — admitting `data` could cache a
        # pre-write block image, so serve it uncached instead.
        return data

    def write_block(self, block_id: int, data: bytes, category: str = "data") -> None:
        """Write through to the inner device and refresh the cached copy.

        The pool lock is **not** held across the inner disk write —
        otherwise every concurrent cache hit would stall behind disk
        write latency, contradicting the module contract.  Instead the
        inner lock is taken first and the pool lock only wraps the
        (memory-speed) epoch bump and cache update after the disk write
        completes.  Because concurrent writers serialize on the inner
        lock and each updates the cache while still holding it, the
        cache update order always matches the disk write order; the
        epoch bump preserves the read path's stale-admission guard
        exactly as before (a miss that read the disk inside a write
        window is never admitted).
        """
        padded = data.ljust(self.block_size, b"\x00")
        with self._inner_lock:
            self.inner.write_block(block_id, data, category)
            with self._pool_lock:
                self._write_epoch += 1
                if block_id in self._cache:
                    self._cache[block_id] = padded
                    self._cache.move_to_end(block_id)
                else:
                    self._admit(block_id, padded)

    def _admit(self, block_id: int, data: bytes) -> None:
        self._cache[block_id] = data
        if len(self._cache) > self.capacity_blocks:
            self._cache.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        """Fraction of reads served from the cache (0.0 when no reads)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every cached block and reset hit/miss counters."""
        with self._pool_lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0
