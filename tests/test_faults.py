"""Unit tests for the fault-injection storage layer (repro.storage.faults)."""

from __future__ import annotations

import pytest

from repro import SpatialKeywordEngine
from repro.datasets import figure1_hotels
from repro.errors import (
    BlockOutOfRangeError,
    DeviceFaultError,
    StorageError,
    TransientDeviceError,
)
from repro.storage import (
    FaultInjectingDevice,
    FaultPlan,
    InMemoryBlockDevice,
    inject_engine_faults,
    retry_transient,
)


def loaded_device(n_blocks=4, fill=0xAB):
    device = InMemoryBlockDevice()
    for block_id in range(n_blocks):
        device.write_block(block_id, bytes([fill]) * device.block_size)
    return device


class TestFaultPlan:
    def test_scripted_read_fault_is_permanent_by_default(self):
        device = FaultInjectingDevice(loaded_device(), fail_read_at=(1,))
        device.read_block(0)  # read #0 passes
        with pytest.raises(DeviceFaultError) as excinfo:
            device.read_block(1)
        assert not isinstance(excinfo.value, TransientDeviceError)
        assert "read #1" in str(excinfo.value)
        assert device.plan.failures_injected == 1

    def test_transient_flag_selects_retryable_error(self):
        device = FaultInjectingDevice(
            loaded_device(), fail_read_at=(0,), transient=True
        )
        with pytest.raises(TransientDeviceError):
            device.read_block(0)

    def test_scripted_write_fault(self):
        device = FaultInjectingDevice(loaded_device(), fail_write_at=(0,))
        with pytest.raises(DeviceFaultError):
            device.write_block(0, b"x")
        device.write_block(1, b"y")  # write #1 passes

    def test_max_failures_budget_then_recovery(self):
        device = FaultInjectingDevice(
            loaded_device(), read_error_rate=1.0, max_failures=2
        )
        for _ in range(2):
            with pytest.raises(DeviceFaultError):
                device.read_block(0)
        # Budget exhausted: the fault has "cleared".
        assert device.read_block(0) == device.inner.read_block(0)
        assert device.plan.failures_injected == 2

    def test_disarm_stops_everything(self):
        plan = FaultPlan(read_error_rate=1.0, write_error_rate=1.0,
                         fail_read_at=(0, 1, 2), bitflip_rate=1.0)
        device = FaultInjectingDevice(loaded_device(), plan)
        plan.disarm()
        assert device.read_block(0) == device.inner.read_block(0)
        device.write_block(0, b"fine")

    def test_seeded_rates_are_deterministic(self):
        def failure_pattern(seed):
            device = FaultInjectingDevice(
                loaded_device(), seed=seed, read_error_rate=0.5
            )
            pattern = []
            for _ in range(32):
                try:
                    device.read_block(0)
                    pattern.append(False)
                except DeviceFaultError:
                    pattern.append(True)
            return pattern

        assert failure_pattern(7) == failure_pattern(7)
        assert failure_pattern(7) != failure_pattern(8)
        assert any(failure_pattern(7))
        assert not all(failure_pattern(7))


class TestTornWritesAndBitFlips:
    def test_torn_write_persists_half_the_block(self):
        inner = loaded_device(1, fill=0x00)
        device = FaultInjectingDevice(inner, torn_write_at=(0,))
        payload = bytes([0xFF]) * device.block_size
        with pytest.raises(DeviceFaultError, match="torn write"):
            device.write_block(0, payload)
        half = device.block_size // 2
        on_disk = inner.read_block(0)
        assert on_disk[:half] == payload[:half]
        assert on_disk[half:] == bytes(half)  # zero-padded tail, not 0xFF

    def test_bitflip_corrupts_exactly_one_bit_silently(self):
        inner = loaded_device(1)
        device = FaultInjectingDevice(inner, bitflip_rate=1.0)
        clean = inner.read_block(0)
        flipped = device.read_block(0)  # no exception
        assert flipped != clean
        diff = [a ^ b for a, b in zip(clean, flipped)]
        changed = [d for d in diff if d]
        assert len(changed) == 1 and bin(changed[0]).count("1") == 1
        assert inner.read_block(0) == clean  # the device itself is untouched
        assert device.plan.bitflips_injected == 1


class TestExtentFaults:
    def test_fault_at_second_block_charges_only_the_first(self):
        inner = loaded_device(4)
        inner.stats.reset()
        device = FaultInjectingDevice(inner, fail_read_at=(1,))
        with pytest.raises(DeviceFaultError, match="block 1"):
            device.read_extent(0, 3, "node")
        assert inner.stats.random_reads == 1
        assert inner.stats.sequential_reads == 0
        assert inner.stats.category_reads("node") == 1
        assert device.plan.reads_seen == 2

    def test_bitflips_land_inside_each_blocks_slice(self):
        inner = loaded_device(3)
        device = FaultInjectingDevice(inner, bitflip_rate=1.0)
        clean = inner.read_extent(0, 3)
        flipped = device.read_extent(0, 3)
        size = device.block_size
        for block in range(3):
            piece = slice(block * size, (block + 1) * size)
            changed = [a ^ b for a, b in zip(clean[piece], flipped[piece]) if a ^ b]
            assert len(changed) == 1 and bin(changed[0]).count("1") == 1
        assert device.plan.bitflips_injected == 3

    def test_out_of_range_extent_consumes_no_read_ordinal(self):
        inner = loaded_device(3)
        inner.stats.reset()
        device = FaultInjectingDevice(inner, fail_read_at=(0,))
        with pytest.raises(BlockOutOfRangeError):
            device.read_extent(1, 3)
        assert device.plan.reads_seen == 0
        assert inner.stats.total_reads == 0


class TestDeviceWrapping:
    def test_shares_inner_stats_and_counts_once(self):
        inner = loaded_device(3)
        inner.stats.reset()
        device = FaultInjectingDevice(inner)
        assert device.stats is inner.stats
        device.read_block(0)
        device.read_block(1)
        assert inner.stats.total_reads == 2

    def test_uncounted_raw_paths_delegate(self):
        inner = loaded_device(3)
        device = FaultInjectingDevice(inner, read_error_rate=1.0)
        # iter_blocks goes through the raw hooks: no faults, no counts.
        inner.stats.reset()
        blocks = list(device.iter_blocks())
        assert len(blocks) == 3
        assert inner.stats.total_reads == 0

    def test_num_blocks_and_extent_growth(self):
        inner = InMemoryBlockDevice()
        device = FaultInjectingDevice(inner)
        device.write_extent(0, b"z" * (inner.block_size * 2 + 10))
        assert device.num_blocks == inner.num_blocks == 3

    def test_shared_plan_counts_ordinals_across_devices(self):
        plan = FaultPlan(fail_read_at=(2,))
        first = FaultInjectingDevice(loaded_device(), plan)
        second = FaultInjectingDevice(loaded_device(), plan)
        first.read_block(0)   # read #0
        second.read_block(0)  # read #1
        with pytest.raises(DeviceFaultError):
            first.read_block(1)  # read #2 — wherever it lands


class TestRetryTransient:
    def test_retries_transient_until_success_with_backoff(self):
        sleeps = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientDeviceError("blip")
            return "done"

        assert retry_transient(flaky, retries=2, backoff_s=0.01,
                               sleep=sleeps.append) == "done"
        assert sleeps == [0.01, 0.02]  # exponential

    def test_permanent_fault_propagates_immediately(self):
        sleeps = []

        def broken():
            raise DeviceFaultError("dead")

        with pytest.raises(DeviceFaultError):
            retry_transient(broken, retries=5, sleep=sleeps.append)
        assert sleeps == []

    def test_exhausted_budget_raises_the_last_transient(self):
        sleeps = []

        def always():
            raise TransientDeviceError("still down")

        with pytest.raises(TransientDeviceError):
            retry_transient(always, retries=2, sleep=sleeps.append)
        assert len(sleeps) == 2


class TestInjectEngineFaults:
    def build(self):
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=8)
        engine.add_all(figure1_hotels())
        engine.build()
        return engine

    def test_injected_engine_fails_then_recovers_on_disarm(self):
        engine = self.build()
        baseline = engine.query((30.5, 100.0), ["internet", "pool"], k=2)
        plan = inject_engine_faults(engine, read_error_rate=1.0)
        with pytest.raises(StorageError):
            engine.query((30.5, 100.0), ["internet", "pool"], k=2)
        plan.disarm()
        healed = engine.query((30.5, 100.0), ["internet", "pool"], k=2)
        assert healed.oids == baseline.oids == [7, 2]

    def test_io_accounting_unchanged_under_wrapping(self):
        clean = self.build()
        wrapped = self.build()
        inject_engine_faults(wrapped)  # a no-fault plan: pure pass-through
        clean.reset_io()
        wrapped.reset_io()
        a = clean.query((30.5, 100.0), ["pool"], k=3)
        b = wrapped.query((30.5, 100.0), ["pool"], k=3)
        assert b.oids == a.oids
        assert b.io.total_reads == a.io.total_reads
        assert b.io.random_reads == a.io.random_reads

    def test_every_device_reference_is_repointed(self):
        engine = self.build()
        inject_engine_faults(engine)
        assert isinstance(engine.corpus.device, FaultInjectingDevice)
        assert engine.corpus.store.device is engine.corpus.device
        assert isinstance(engine.index.device, FaultInjectingDevice)
        assert engine.index.pages.device is engine.index.device
