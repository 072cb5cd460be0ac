"""Unit tests for the LRU buffer pool device."""

from __future__ import annotations

import pytest

from repro.storage import BufferPoolDevice, InMemoryBlockDevice


@pytest.fixture
def pool():
    inner = InMemoryBlockDevice(block_size=32)
    return BufferPoolDevice(inner, capacity_blocks=2)


class TestCaching:
    def test_hit_skips_disk(self, pool):
        pool.write_block(0, b"a")
        pool.inner.stats.reset()
        pool.read_block(0)  # cached by the write-through
        assert pool.inner.stats.total_reads == 0
        assert pool.hits == 1

    def test_miss_reads_through_and_admits(self, pool):
        pool.inner.write_block(0, b"cold")  # bypass the pool
        assert pool.read_block(0)[:4] == b"cold"
        assert pool.misses == 1
        pool.inner.stats.reset()
        pool.read_block(0)
        assert pool.inner.stats.total_reads == 0

    def test_lru_eviction(self, pool):
        for block in range(3):  # capacity 2 -> block 0 evicted
            pool.write_block(block, bytes([block]))
        pool.inner.stats.reset()
        pool.read_block(0)
        assert pool.inner.stats.total_reads == 1

    def test_read_refreshes_recency(self, pool):
        pool.write_block(0, b"a")
        pool.write_block(1, b"b")
        pool.read_block(0)  # 0 becomes most recent
        pool.write_block(2, b"c")  # evicts 1, not 0
        pool.inner.stats.reset()
        pool.read_block(0)
        assert pool.inner.stats.total_reads == 0
        pool.read_block(1)
        assert pool.inner.stats.total_reads == 1

    def test_write_through_updates_cached_copy(self, pool):
        pool.write_block(0, b"old")
        pool.write_block(0, b"new")
        assert pool.read_block(0)[:3] == b"new"
        assert pool.inner._read_raw(0)[:3] == b"new"

    def test_hit_rate(self, pool):
        pool.write_block(0, b"a")
        pool.read_block(0)
        pool.inner.write_block(5, b"x")
        pool.read_block(5)
        assert pool.hit_rate == pytest.approx(0.5)

    def test_clear(self, pool):
        pool.write_block(0, b"a")
        pool.read_block(0)
        pool.clear()
        assert pool.hits == 0
        assert pool.hit_rate == 0.0
        pool.inner.stats.reset()
        pool.read_block(0)
        assert pool.inner.stats.total_reads == 1

    def test_partly_cached_extent_reads_the_misses_through(self):
        inner = InMemoryBlockDevice(block_size=8)
        inner.write_extent(0, bytes(range(40)))
        pool = BufferPoolDevice(inner, capacity_blocks=8)
        pool.read_block(2)
        inner.stats.reset()
        assert pool.read_extent(0, 5, "node") == bytes(range(40))
        assert (pool.hits, pool.misses) == (1, 5)  # 1 + 4 this extent
        # Runs 0-1 and 3-4 are charged as if read block by block.
        assert inner.stats.random_reads == 2
        assert inner.stats.sequential_reads == 2
        inner.stats.reset()
        assert pool.read_extent(0, 5) == bytes(range(40))
        assert pool.hits + pool.misses == 11
        assert inner.stats.total_reads == 0

    def test_extent_admissions_evict_in_block_order(self):
        inner = InMemoryBlockDevice(block_size=8)
        inner.write_extent(0, bytes(range(24)))
        pool = BufferPoolDevice(inner, capacity_blocks=2)
        pool.read_block(1)
        pool.read_block(2)
        inner.stats.reset()
        # Admitting 0 evicts 1 and admitting 1 evicts 2 before each is
        # looked up, exactly as three single-block reads would.
        assert pool.read_extent(0, 3) == bytes(range(24))
        assert (pool.hits, pool.misses) == (0, 5)
        assert inner.stats.random_reads == 1
        assert inner.stats.sequential_reads == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BufferPoolDevice(InMemoryBlockDevice(), capacity_blocks=0)

    def test_num_blocks_delegates(self, pool):
        pool.write_block(4, b"z")
        assert pool.num_blocks == pool.inner.num_blocks == 5

    def test_stats_shared_with_inner(self, pool):
        """Disk-access accounting lives on the inner device's stats."""
        pool.write_block(0, b"a")
        assert pool.stats is pool.inner.stats
        assert pool.stats.total_writes == 1
