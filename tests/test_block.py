"""Unit tests for the block devices (in-memory and file-backed)."""

from __future__ import annotations

import pytest

from repro.errors import BlockOutOfRangeError, BlockSizeError
from repro.storage import FileBlockDevice, InMemoryBlockDevice
from repro.storage.iostats import collecting_io
from repro.storage.sharedread import SharedReadSession, activate_session


class TestInMemoryDevice:
    def test_write_then_read_roundtrip(self):
        device = InMemoryBlockDevice(block_size=64)
        device.write_block(0, b"hello")
        data = device.read_block(0)
        assert data[:5] == b"hello"
        assert len(data) == 64  # zero padded

    def test_write_appends_blocks(self):
        device = InMemoryBlockDevice(block_size=64)
        device.write_block(0, b"a")
        device.write_block(3, b"b")  # grows with zero blocks in between
        assert device.num_blocks == 4
        assert device.read_block(2) == b"\x00" * 64

    def test_read_out_of_range(self):
        device = InMemoryBlockDevice(block_size=64)
        with pytest.raises(BlockOutOfRangeError):
            device.read_block(0)

    def test_write_negative_block(self):
        device = InMemoryBlockDevice(block_size=64)
        with pytest.raises(BlockOutOfRangeError):
            device.write_block(-1, b"x")

    def test_oversized_payload_rejected(self):
        device = InMemoryBlockDevice(block_size=8)
        with pytest.raises(BlockSizeError):
            device.write_block(0, b"123456789")

    def test_invalid_block_size(self):
        with pytest.raises(BlockSizeError):
            InMemoryBlockDevice(block_size=0)

    def test_accounting_goes_through_stats(self):
        device = InMemoryBlockDevice(block_size=64)
        device.write_block(0, b"a", "node")
        device.read_block(0, "node")
        assert device.stats.total_writes == 1
        assert device.stats.total_reads == 1
        assert device.stats.category_reads("node") == 1

    def test_size_properties(self):
        device = InMemoryBlockDevice(block_size=1024)
        device.write_block(9, b"z")
        assert device.size_bytes == 10 * 1024
        assert device.size_mb == pytest.approx(10 / 1024)


class TestExtents:
    def test_write_extent_chunks_payload(self):
        device = InMemoryBlockDevice(block_size=8)
        written = device.write_extent(0, b"0123456789abcdef0")
        assert written == 3
        assert device.num_blocks == 3

    def test_read_extent_concatenates(self):
        device = InMemoryBlockDevice(block_size=8)
        device.write_extent(0, b"0123456789abcdef")
        data = device.read_extent(0, 2)
        assert data == b"0123456789abcdef"

    def test_extent_costs_one_random_plus_sequential(self):
        device = InMemoryBlockDevice(block_size=8)
        device.write_extent(0, b"x" * 32)
        device.stats.reset()
        device.read_extent(0, 4)
        assert device.stats.random_reads == 1
        assert device.stats.sequential_reads == 3

    @pytest.mark.parametrize(
        "start, count, first_bad",
        [(2, 5, 4), (-1, 3, -1), (4, 1, 4), (9, 2, 9)],
    )
    def test_out_of_range_extent_charges_nothing(self, start, count, first_bad):
        device = InMemoryBlockDevice(block_size=8)
        device.write_extent(0, b"x" * 32)
        device.stats.reset()
        device.read_block(0)
        before = device.stats.counts()
        with collecting_io() as io, activate_session(SharedReadSession()):
            with pytest.raises(BlockOutOfRangeError) as excinfo:
                device.read_extent(start, count)
            with pytest.raises(BlockOutOfRangeError):
                device.read_block(start, "data", count)
        assert excinfo.value.block_id == first_bad
        assert device.stats.counts() == before
        assert io.total_reads == io.shared_reads == 0
        device.read_block(1)  # the head never left block 0
        assert device.stats.sequential_reads == 1

    def test_empty_extent_reads_nothing(self):
        device = InMemoryBlockDevice(block_size=8)
        device.write_extent(0, b"x" * 16)
        device.stats.reset()
        assert device.read_extent(2, 0) == b""
        assert device.stats.total_reads == 0

    def test_extent_inside_session_reads_runs_of_misses(self):
        device = InMemoryBlockDevice(block_size=8)
        device.write_extent(0, bytes(range(48)))
        device.stats.reset()
        session = SharedReadSession()
        with activate_session(session):
            device.read_block(2)
            device.read_block(3)
            data = device.read_extent(0, 6)
        assert data == bytes(range(48))
        # 2 and 3 are hits; 0-1 and 4-5 are each one random + one
        # sequential read, as if read block by block.
        assert device.stats.shared_reads == 2
        assert device.stats.random_reads == 1 + 2
        assert device.stats.sequential_reads == 1 + 2
        assert (session.hits, session.misses) == (2, 6)

    def test_write_empty_extent_still_one_block(self):
        device = InMemoryBlockDevice(block_size=8)
        assert device.write_extent(0, b"") == 1

    def test_blocks_needed(self):
        device = InMemoryBlockDevice(block_size=8)
        assert device.blocks_needed(0) == 1
        assert device.blocks_needed(8) == 1
        assert device.blocks_needed(9) == 2


class TestFileDevice:
    def test_roundtrip_through_real_file(self, tmp_path):
        path = str(tmp_path / "blocks.dat")
        with FileBlockDevice(path, block_size=32) as device:
            device.write_block(0, b"persistent")
            device.write_block(2, b"tail")
            assert device.read_block(0)[:10] == b"persistent"
        # Reopen and verify persistence.
        with FileBlockDevice(path, block_size=32) as device:
            assert device.num_blocks == 3
            assert device.read_block(2)[:4] == b"tail"

    def test_partial_file_padded_to_block_boundary(self, tmp_path):
        path = tmp_path / "ragged.dat"
        path.write_bytes(b"123")  # not a multiple of the block size
        with FileBlockDevice(str(path), block_size=32) as device:
            assert device.num_blocks == 1
            assert device.read_block(0)[:3] == b"123"

    def test_accounting_matches_memory_device(self, tmp_path):
        memory = InMemoryBlockDevice(block_size=16)
        disk = FileBlockDevice(str(tmp_path / "d.dat"), block_size=16)
        for target in (memory, disk):
            target.write_extent(0, b"a" * 40)
            target.stats.reset()
            target.read_extent(0, 3)
            target.read_block(0)
        assert memory.stats.random_reads == disk.stats.random_reads
        assert memory.stats.sequential_reads == disk.stats.sequential_reads
        disk.close()

    def test_file_extent_is_one_read_of_adjacent_blocks(self, tmp_path):
        with FileBlockDevice(str(tmp_path / "e.dat"), block_size=16) as device:
            device.write_extent(0, bytes(range(64)))
            device.stats.reset()
            assert device.read_extent(1, 3) == bytes(range(16, 64))
            assert device.stats.random_reads == 1
            assert device.stats.sequential_reads == 2
            with pytest.raises(BlockOutOfRangeError):
                device.read_extent(2, 3)
            assert device.stats.total_reads == 3

    def test_iter_blocks_does_not_count(self):
        device = InMemoryBlockDevice(block_size=8)
        device.write_extent(0, b"x" * 24)
        device.stats.reset()
        blocks = list(device.iter_blocks())
        assert len(blocks) == 3
        assert device.stats.total_accesses == 0
