"""Unit tests for the simulated drive timing model."""

from __future__ import annotations

import pytest

from repro.storage import DEFAULT_DRIVE, DriveModel, IOCounts, IOStats


class TestDriveModel:
    def test_random_access_includes_seek_rotation_transfer(self):
        drive = DriveModel(seek_ms=4.0, rotation_ms=3.0, transfer_mb_per_s=40.96, block_size=4096)
        assert drive.transfer_ms == pytest.approx(0.1)
        assert drive.random_access_ms == pytest.approx(7.1)
        assert drive.sequential_access_ms == pytest.approx(0.1)

    def test_simulated_ms_combines_patterns(self):
        drive = DriveModel(seek_ms=5.0, rotation_ms=5.0, transfer_mb_per_s=4.096, block_size=4096)
        stats = IOStats()
        stats.record_read(0)  # random
        stats.record_read(1)  # sequential
        stats.record_read(2)  # sequential
        # random = 10 + 1 = 11 ms, sequential = 1 ms each
        assert drive.simulated_ms(stats.snapshot()) == pytest.approx(13.0)

    def test_writes_charged_like_reads(self):
        drive = DriveModel()
        reads = IOStats()
        reads.record_read(0)
        writes = IOStats()
        writes.record_write(0)
        assert drive.simulated_ms(reads.snapshot()) == drive.simulated_ms(writes.snapshot())

    def test_random_dominates_sequential(self):
        """The paper: execution time is primarily proportional to random
        accesses — the model must price a random access much higher."""
        assert DEFAULT_DRIVE.random_access_ms > 20 * DEFAULT_DRIVE.sequential_access_ms

    def test_zero_stats_zero_time(self):
        assert DEFAULT_DRIVE.simulated_ms(IOCounts()) == 0.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_DRIVE.seek_ms = 1.0  # type: ignore[misc]
