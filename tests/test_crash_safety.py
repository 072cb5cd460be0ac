"""Crash-safety of the atomic save protocol and corruption detection.

The contract under test (docs/STORAGE.md, "Durability and fault model"):
a save interrupted at *any* fault point leaves a directory that either
loads the previous complete state, loads the new complete state, or
raises a typed error — never a silently mixed or corrupt engine.  And
``verify_engine`` detects every corruption these tests inject.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import SpatialKeywordEngine
from repro.datasets import figure1_hotels
from repro.errors import DatasetError, PersistError
from repro.persist import (
    load_engine,
    save_engine,
    saving_fault_hook,
    verify_engine,
)
from repro.serve import QueryService
from repro.shard import ShardedEngine
from repro.storage import CrashTimer, FaultPlan, SimulatedCrash

QUERY = ((30.5, 100.0), ["internet", "pool"], 2)
OLD_OIDS = [7, 2]
NEW_OIDS = [99, 7]


def build_single(kind="ir2", extra=False):
    engine = SpatialKeywordEngine(index=kind, signature_bytes=8)
    engine.add_all(figure1_hotels())
    if extra:
        # The marker object that distinguishes new state from old.
        engine.add_object(99, (30.5, 100.0), "internet pool crashsafe")
    engine.build()
    return engine


def build_sharded(n_shards=3, extra=False):
    engine = ShardedEngine(n_shards=n_shards, index="ir2", signature_bytes=8)
    engine.add_all(figure1_hotels())
    if extra:
        engine.add(
            type(figure1_hotels()[0])(99, (30.5, 100.0), "internet pool crashsafe")
        )
    engine.build()
    return engine


def answer(engine):
    point, keywords, k = QUERY
    return engine.query(point, keywords, k=k).oids


def fault_points(builder, target):
    """One dry run enumerating the labels a save passes through."""
    timer = CrashTimer()
    with saving_fault_hook(timer):
        save_engine(builder(extra=True), str(target))
    return timer.points


def crash_save_at(builder, target, crash_at):
    """Attempt a save that dies at the ``crash_at``-th fault point."""
    timer = CrashTimer(crash_at=crash_at)
    with pytest.raises(SimulatedCrash):
        with saving_fault_hook(timer):
            save_engine(builder(extra=True), str(target))
    return timer.points[-1]


def assert_previous_state_or_typed_error(target, point):
    """The acceptance criterion, point by point."""
    try:
        reloaded = load_engine(str(target))
    except DatasetError:
        # Typed failure is acceptable — only the swap window may produce
        # it when a previous state existed.
        assert point == "swapped-out", (
            f"crash at {point!r} lost the previous state"
        )
        return
    oids = answer(reloaded)
    if point in ("swapped-in", "cleaned-up"):
        assert oids == NEW_OIDS, f"crash at {point!r} gave {oids}"
    else:
        assert oids == OLD_OIDS, (
            f"crash at {point!r} leaked partial new state: {oids}"
        )
    # Whatever loaded must also pass verification (leftover staging /
    # trash siblings are warnings, not errors).
    report = verify_engine(str(target))
    assert report["ok"], report


class TestCrashMidSaveSingle:
    def test_every_fault_point_is_safe(self, tmp_path):
        probe = fault_points(build_single, tmp_path / "probe")
        assert "staged" in probe and "manifest-written" in probe
        for crash_at in range(len(probe)):
            target = tmp_path / f"crash-{crash_at}"
            save_engine(build_single(), str(target))
            assert answer(load_engine(str(target))) == OLD_OIDS
            point = crash_save_at(build_single, target, crash_at)
            assert_previous_state_or_typed_error(target, point)

    def test_first_save_crash_leaves_no_loadable_garbage(self, tmp_path):
        probe = fault_points(build_single, tmp_path / "probe")
        for crash_at in range(len(probe)):
            target = tmp_path / f"fresh-{crash_at}"
            point = crash_save_at(build_single, target, crash_at)
            if point == "swapped-in":
                assert answer(load_engine(str(target))) == NEW_OIDS
            else:
                with pytest.raises(DatasetError):
                    load_engine(str(target))

    def test_crashed_save_is_reported_by_verify(self, tmp_path):
        target = tmp_path / "eng"
        save_engine(build_single(), str(target))
        crash_save_at(build_single, target, 0)
        report = verify_engine(str(target))
        assert report["ok"]  # the old state is intact...
        assert any(".tmp-" in w for w in report["warnings"])  # ...but flagged

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["rtree", "iio", "mir2", "sig"])
    def test_every_fault_point_is_safe_all_kinds(self, tmp_path, kind):
        def builder(extra=False):
            return build_single(kind, extra=extra)

        probe = fault_points(builder, tmp_path / "probe")
        for crash_at in range(len(probe)):
            target = tmp_path / f"crash-{crash_at}"
            save_engine(builder(), str(target))
            point = crash_save_at(builder, target, crash_at)
            assert_previous_state_or_typed_error(target, point)


class TestCrashMidSaveSharded:
    def test_every_fault_point_is_safe(self, tmp_path):
        probe = fault_points(build_sharded, tmp_path / "probe")
        assert any(p.startswith("shard-") for p in probe)
        for crash_at in range(len(probe)):
            target = tmp_path / f"crash-{crash_at}"
            save_engine(build_sharded(), str(target))
            point = crash_save_at(build_sharded, target, crash_at)
            assert_previous_state_or_typed_error(target, point)


class TestAcknowledgedWritesDurability:
    """docs/SERVING.md: an acknowledged write survives a crash only once a
    later ``QueryService.save()`` has returned."""

    MARKER = (99, (30.5, 100.0), "internet pool crashsafe")

    def acknowledge_writes(self, service, target):
        """Save the previous state, then acknowledge three writes.

        Returns the stored oids before the writes and the live oids
        after them.
        """
        service.save(str(target))
        previous = stored_oids(load_engine(str(target)))
        service.add_object(*self.MARKER)
        service.add_object(98, (31.0, 99.0), "quiet garden")
        assert service.delete(2)
        return previous, stored_oids(service.maintainer.current)

    def crash_service_save(self, target, crash_at):
        """A served engine whose save of its writes dies at ``crash_at``."""
        with QueryService(build_single(), workers=1) as service:
            previous, acknowledged = self.acknowledge_writes(service, target)
            timer = CrashTimer(crash_at=crash_at)
            with pytest.raises(SimulatedCrash):
                with saving_fault_hook(timer):
                    service.save(str(target))
        return previous, acknowledged, timer.points[-1]

    def test_crashed_save_holds_all_or_none_of_the_writes(self, tmp_path):
        with QueryService(build_single(), workers=1) as service:
            self.acknowledge_writes(service, tmp_path / "probe")
            timer = CrashTimer()
            with saving_fault_hook(timer):
                service.save(str(tmp_path / "probe"))
        assert "swapped-in" in timer.points
        for crash_at in range(len(timer.points)):
            target = tmp_path / f"crash-{crash_at}"
            previous, acknowledged, point = self.crash_service_save(
                target, crash_at
            )
            assert previous != acknowledged
            try:
                stored = stored_oids(load_engine(str(target)))
            except DatasetError:
                assert point == "swapped-out", (
                    f"crash at {point!r} lost the previous state"
                )
                continue
            assert stored in (previous, acknowledged), (
                f"crash at {point!r} stored part of the writes: {stored}"
            )
            if point in ("swapped-in", "cleaned-up"):
                assert stored == acknowledged

    def test_completed_save_holds_every_acknowledged_write(self, tmp_path):
        target = tmp_path / "eng"
        _, acknowledged, _ = self.crash_service_save(target, 0)
        with QueryService(build_single(), workers=1) as service:
            assert self.acknowledge_writes(service, target)[1] == acknowledged
            service.save(str(target))
        reloaded = load_engine(str(target))
        assert stored_oids(reloaded) == acknowledged
        assert answer(reloaded) == NEW_OIDS


def stored_oids(engine):
    """The oids an engine (or a published service version) holds."""
    return {obj.oid for obj in engine.objects()}


def corrupt_torn(path):
    """Keep only the first half of a file — a torn write at OS level."""
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(size // 2, 1))


def corrupt_bitflip(path):
    """Flip one deterministic bit, via the fault plan's own corruptor."""
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(FaultPlan(seed=5).flip_bit(data))


@pytest.mark.parametrize("corrupt", [corrupt_torn, corrupt_bitflip],
                         ids=["torn", "bitflip"])
class TestCorruptionDetection:
    def saved_sharded(self, tmp_path):
        target = tmp_path / "eng"
        save_engine(build_sharded(), str(target))
        return target

    def every_file(self, target):
        for root, _, names in os.walk(target):
            for name in sorted(names):
                yield os.path.join(root, name)

    def test_any_corrupt_file_fails_load_and_verify(self, tmp_path, corrupt):
        pristine = self.saved_sharded(tmp_path)
        for victim in self.every_file(pristine):
            target = tmp_path / f"c-{os.path.basename(victim)}-{hash(victim) % 997}"
            save_engine(build_sharded(), str(target))
            rel = os.path.relpath(victim, pristine)
            corrupt(os.path.join(target, rel))
            with pytest.raises(DatasetError):  # PersistError is one too
                load_engine(str(target))
            report = verify_engine(str(target))
            assert not report["ok"], f"verify missed corruption in {rel}"
            assert any(row["status"] == "error" for row in report["checks"])


class TestTypedManifestErrors:
    def test_torn_manifest_is_dataset_error_naming_the_path(self, tmp_path):
        target = tmp_path / "eng"
        save_engine(build_single(), str(target))
        corrupt_torn(target / "manifest.json")
        with pytest.raises(DatasetError, match="manifest.json"):
            load_engine(str(target))

    def test_non_object_manifest_is_dataset_error(self, tmp_path):
        target = tmp_path / "eng"
        save_engine(build_single(), str(target))
        (target / "manifest.json").write_text(json.dumps([1, 2, 3]))
        with pytest.raises(DatasetError, match="not a JSON object"):
            load_engine(str(target))

    def test_missing_manifest_key_is_dataset_error(self, tmp_path):
        target = tmp_path / "eng"
        save_engine(build_single(), str(target))
        manifest = json.loads((target / "manifest.json").read_text())
        del manifest["index"]
        (target / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="corrupt engine manifest"):
            load_engine(str(target))

    def test_missing_shard_directory(self, tmp_path):
        target = tmp_path / "eng"
        save_engine(build_sharded(), str(target))
        import shutil

        shutil.rmtree(target / "shard-001")
        with pytest.raises(PersistError, match="missing"):
            load_engine(str(target))
        report = verify_engine(str(target))
        assert not report["ok"]


class TestAtomicReplaceRegression:
    def test_resave_with_fewer_shards_leaves_no_stale_dirs(self, tmp_path):
        target = tmp_path / "eng"
        save_engine(build_sharded(n_shards=3), str(target))
        assert (target / "shard-002").is_dir()
        save_engine(build_sharded(n_shards=2), str(target))
        assert not (target / "shard-002").exists()
        reloaded = load_engine(str(target))
        assert reloaded.n_shards == 2
        assert answer(reloaded) == OLD_OIDS
        assert verify_engine(str(target))["ok"]

    def test_planted_stale_shard_dir_is_flagged_by_verify(self, tmp_path):
        target = tmp_path / "eng"
        save_engine(build_sharded(n_shards=2), str(target))
        stale = target / "shard-009"
        stale.mkdir()
        (stale / "objects.dat").write_bytes(b"junk")
        report = verify_engine(str(target))
        assert not report["ok"]
        assert any("stale shard" in row["detail"] for row in report["checks"])
