"""Unit tests for the plain-text object file."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.errors import ObjectNotFoundError, SerializationError
from repro.model import SpatialObject
from repro.storage import InMemoryBlockDevice, ObjectStore
from repro.storage import objectstore
from repro.storage.objectstore import decode_row, encode_row


@pytest.fixture
def store():
    return ObjectStore(InMemoryBlockDevice(block_size=64))


def _obj(oid=1, point=(25.4, -80.1), text="tennis court gift shop"):
    return SpatialObject(oid, point, text)


class TestRowCodec:
    def test_roundtrip(self):
        obj = _obj()
        assert decode_row(encode_row(obj)) == obj

    def test_tabs_and_newlines_sanitized(self):
        obj = _obj(text="a\tb\nc\rd")
        decoded = decode_row(encode_row(obj))
        assert decoded.text == "a b c d"

    def test_high_precision_coordinates_survive(self):
        obj = _obj(point=(1.0 / 3.0, -1e-17))
        assert decode_row(encode_row(obj)).point == obj.point

    def test_three_dimensional_object(self):
        obj = _obj(point=(1.0, 2.0, 3.0))
        assert decode_row(encode_row(obj)).point == (1.0, 2.0, 3.0)

    def test_unicode_text(self):
        obj = _obj(text="café non-ASCII ünïcode")
        assert decode_row(encode_row(obj)).text == obj.text

    def test_empty_text(self):
        obj = _obj(text="")
        assert decode_row(encode_row(obj)).text == ""

    def test_malformed_row_raises(self):
        with pytest.raises(SerializationError):
            decode_row(b"not a row\n")


class TestAppendLoad:
    def test_pointers_advance_by_row_length(self, store):
        p1 = store.append(_obj(1))
        p2 = store.append(_obj(2))
        assert p1 == 0
        assert p2 > p1

    def test_load_returns_object(self, store):
        pointer = store.append(_obj(5, text="sauna pool"))
        assert store.load(pointer) == _obj(5, text="sauna pool")

    def test_load_counts_blocks_and_objects(self, store):
        long_text = "word " * 50  # spans several 64-byte blocks
        pointer = store.append(_obj(1, text=long_text))
        store.device.stats.reset()
        store.load(pointer)
        stats = store.device.stats
        assert stats.objects_loaded == 1
        assert stats.total_reads == store.blocks_for(pointer)
        assert stats.random_reads == 1  # remainder sequential

    def test_load_row_spanning_blocks(self, store):
        store.append(_obj(1, text="x" * 100))
        pointer = store.append(_obj(2, text="y" * 100))
        assert store.load(pointer).text == "y" * 100

    def test_load_bad_pointer(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.load(10)

    def test_bulk_append(self, store):
        pointers = store.bulk_append([_obj(i) for i in range(5)])
        assert len(pointers) == 5
        assert len(store) == 5

    def test_blocks_for_short_row(self, store):
        pointer = store.append(_obj(1, text="ab"))
        assert store.blocks_for(pointer) == 1


class TestDeleteAndIteration:
    def test_delete_tombstones(self, store):
        pointer = store.append(_obj(3))
        assert store.delete(3) == pointer
        assert len(store) == 0
        with pytest.raises(ObjectNotFoundError):
            store.pointer_of(3)

    def test_delete_unknown(self, store):
        with pytest.raises(ObjectNotFoundError):
            store.delete(99)

    def test_deleted_object_fails_load(self, store):
        pointer = store.append(_obj(3))
        store.delete(3)
        with pytest.raises(ObjectNotFoundError):
            store.load(pointer)

    def test_iter_objects_skips_deleted(self, store):
        store.append(_obj(1))
        store.append(_obj(2))
        store.delete(1)
        oids = [obj.oid for _, obj in store.iter_objects()]
        assert oids == [2]

    def test_iter_objects_uncounted(self, store):
        store.append(_obj(1))
        store.device.stats.reset()
        list(store.iter_objects())
        assert store.device.stats.total_accesses == 0

    def test_pointer_of(self, store):
        pointer = store.append(_obj(9))
        assert store.pointer_of(9) == pointer

    def test_size_accounting(self, store):
        store.append(_obj(1))
        assert store.size_bytes > 0
        assert store.size_mb == pytest.approx(store.size_bytes / (1024 * 1024))


class TestRowIntern:
    def test_repeat_loads_share_one_object_and_count_every_load(self, store):
        pointer = store.append(_obj(4))
        store.device.stats.reset()
        first = store.load(pointer)
        second = store.load(pointer)
        assert second is first
        stats = store.device.stats
        assert stats.objects_loaded == 2
        assert stats.total_reads == 2 * store.blocks_for(pointer)

    def test_changed_row_bytes_decode_afresh(self, store):
        pointer = store.append(_obj(4, text="pool spa"))
        assert store.load(pointer).text == "pool spa"
        block_id = pointer // store.device.block_size
        block = bytearray(store.device._read_raw(block_id))
        at = block.find(b"pool")
        block[at : at + 4] = b"golf"
        store.device.write_block(block_id, bytes(block))
        assert store.load(pointer).text == "golf spa"
        # A flipped bit that breaks the row still fails to decode.
        block[0:1] = b"x"
        store.device.write_block(block_id, bytes(block))
        with pytest.raises(SerializationError):
            store.load(pointer)

    def test_deleted_object_still_fails_after_a_cached_load(self, store):
        pointer = store.append(_obj(3))
        store.load(pointer)
        store.delete(3)
        with pytest.raises(ObjectNotFoundError):
            store.load(pointer)

    def test_bounded_and_counts_drops(self, store, monkeypatch):
        monkeypatch.setattr(objectstore, "INTERN_CAPACITY", 2)
        pointers = [store.append(_obj(oid)) for oid in range(5)]
        for pointer in pointers:
            store.load(pointer)
        assert len(store.intern._rows) == 2
        assert store.intern.dropped == 3
        assert store.load(pointers[-1]) is store.load(pointers[-1])

    def test_concurrent_loads_count_every_drop(self, store, monkeypatch):
        """Racing loads neither lose a drop nor hand out a wrong object."""
        monkeypatch.setattr(objectstore, "INTERN_CAPACITY", 4)
        objects = [_obj(oid, text=f"doc {oid}") for oid in range(16)]
        pointers = [store.append(obj) for obj in objects]
        returned: list[list[SpatialObject]] = [[] for _ in range(8)]

        def worker(slot: int) -> None:
            for round_ in range(40):
                for i in range(len(pointers)):
                    j = (i * (slot + 1) + round_) % len(pointers)
                    returned[slot].append(store.load(pointers[j]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        loaded = [obj for batch in returned for obj in batch]
        assert len(loaded) == 8 * 40 * len(pointers)
        assert all(obj == objects[obj.oid] for obj in loaded)
        # Every decoded object that entered the map is still in it or was
        # dropped exactly once.
        distinct = {id(obj) for obj in loaded}
        assert len(distinct) == len(store.intern._rows) + store.intern.dropped
