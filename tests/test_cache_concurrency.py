"""Many threads sharing one bounded :class:`SharedReadSession`.

The threaded consistency check (``hits + misses`` equal to the blocks
read, no torn block) is
``tests/test_batching.py::TestSharedReadSession::test_threads_sharing_a_bounded_session_stay_consistent``.
"""

from __future__ import annotations

import threading

from repro.storage import InMemoryBlockDevice
from repro.storage.sharedread import SharedReadSession, activate_session

N_BLOCKS = 48
BLOCK_SIZE = 256


def expected_content(block_id: int) -> bytes:
    """The canonical (padded) content of block ``block_id``."""
    return f"blk-{block_id}".encode().ljust(BLOCK_SIZE, b"\x00")


def make_device() -> InMemoryBlockDevice:
    device = InMemoryBlockDevice(BLOCK_SIZE)
    for block_id in range(N_BLOCKS):
        device.write_block(block_id, expected_content(block_id))
    device.stats.reset()
    return device


class TestConcurrentReads:
    def test_hot_set_smaller_than_capacity_hits_after_warmup(self):
        device = make_device()
        session = SharedReadSession(capacity_blocks=N_BLOCKS)
        torn: list[int] = []

        def reader():
            with activate_session(session):
                for block_id in range(N_BLOCKS):
                    if device.read_block(block_id) != expected_content(block_id):
                        torn.append(block_id)

        reader()  # warm up: all misses
        assert session.misses == N_BLOCKS
        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert torn == []
        assert session.misses == N_BLOCKS  # everything else was a hit
        assert session.hits == 6 * N_BLOCKS
        assert device.stats.snapshot().total_reads == N_BLOCKS
        assert device.stats.shared_reads == 6 * N_BLOCKS
