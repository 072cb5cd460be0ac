"""Unit tests for a bounded :class:`SharedReadSession` as a block cache.

With ``capacity_blocks=N`` the session keeps at most ``N`` blocks per
device and evicts the least recently read first.  A hit is served from
the session and charged as a ``shared_read``; only a miss reaches the
device.
"""

from __future__ import annotations

import pytest

from repro.storage import InMemoryBlockDevice
from repro.storage.sharedread import SharedReadSession, activate_session


def make_device(n_blocks: int) -> InMemoryBlockDevice:
    """``n_blocks`` 8-byte blocks holding ``bytes(range(8 * n_blocks))``."""
    device = InMemoryBlockDevice(block_size=8)
    device.write_extent(0, bytes(range(8 * n_blocks)))
    device.stats.reset()
    return device


class TestCaching:
    def test_hit_skips_disk(self):
        device = make_device(1)
        session = SharedReadSession(capacity_blocks=2)
        with activate_session(session):
            device.read_block(0)
            device.stats.reset()
            assert device.read_block(0) == bytes(range(8))
        assert device.stats.snapshot().total_reads == 0
        assert device.stats.shared_reads == 1
        assert session.hits == 1

    def test_miss_reads_through_and_admits(self):
        device = make_device(1)
        session = SharedReadSession(capacity_blocks=2)
        with activate_session(session):
            assert device.read_block(0) == bytes(range(8))
            assert (session.hits, session.misses, len(session)) == (0, 1, 1)
            assert device.stats.snapshot().total_reads == 1
            device.stats.reset()
            device.read_block(0)
        assert device.stats.snapshot().total_reads == 0

    def test_lru_eviction(self):
        device = make_device(3)
        session = SharedReadSession(capacity_blocks=2)
        with activate_session(session):
            for block in range(3):  # reading 2 evicts 0
                device.read_block(block)
            device.stats.reset()
            device.read_block(2)
            assert device.stats.shared_reads == 1
            device.read_block(0)
        assert device.stats.snapshot().total_reads == 1
        assert (session.hits, session.misses, len(session)) == (1, 4, 2)

    def test_hit_rate(self):
        device = make_device(6)
        session = SharedReadSession(capacity_blocks=2)
        with activate_session(session):
            device.read_block(0)
            device.read_block(0)
            device.read_block(5)
            device.read_block(5)
        assert session.hits / (session.hits + session.misses) == pytest.approx(0.5)
        assert device.stats.shared_reads / (
            device.stats.snapshot().total_reads + device.stats.shared_reads
        ) == pytest.approx(0.5)

    def test_partly_cached_extent_reads_the_misses_through(self):
        device = make_device(5)
        session = SharedReadSession(capacity_blocks=8)
        with activate_session(session):
            device.read_block(2)
            device.stats.reset()
            assert device.read_extent(0, 5, "node") == bytes(range(40))
            assert (session.hits, session.misses) == (1, 1 + 4)
            # Runs 0-1 and 3-4 are charged as if read block by block.
            assert device.stats.random_reads == 2
            assert device.stats.sequential_reads == 2
            device.stats.reset()
            assert device.read_extent(0, 5) == bytes(range(40))
        assert session.hits + session.misses == 11
        assert device.stats.snapshot().total_reads == 0
        assert device.stats.shared_reads == 5
