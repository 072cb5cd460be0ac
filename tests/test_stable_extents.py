"""Stable extent images: one ``bytes`` object per unchanged extent.

``InMemoryBlockDevice`` keeps the joined image of each multi-block extent
it has read and returns that same object until a block inside the extent
is written.  Hypothesis drives two devices through interleaved block and
extent writes, counted reads, copies and loads against a plain
list-of-bytes model: every read must equal the model's join, a read
since the last write inside its extent must return the very object the
last read returned (on the source of a copy too), and the charges must
match the per-block reference of ``tests/test_extent_accounting.py``.
The other tests pin the invalidation rule, the copy-on-write sharing an
incremental merge relies on, and the ordering of reads against a writer
on another thread.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SpatialKeywordEngine
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.persist import copy_built_engine
from repro.storage import InMemoryBlockDevice
from tests.test_extent_accounting import CATEGORIES, PerBlockModel, empty_deltas

BLOCK = 8
DEVICES = 2


def model_write(model: PerBlockModel, writes: list[int], block: int, category: str):
    """Per-block write accounting: classified by head position, head moves."""
    is_seq = model.head is not None and block == model.head + 1
    model.head = block
    writes[1 if is_seq else 0] += 1
    model.by_category.setdefault(category, [0, 0, 0, 0])[3 if is_seq else 2] += 1


operations = st.one_of(
    st.tuples(
        st.just("write_block"),
        st.integers(0, DEVICES - 1),
        st.integers(0, 13),  # block; up to two past a 12-block device grows it
        st.binary(max_size=BLOCK),
        st.sampled_from(CATEGORIES),
    ),
    st.tuples(
        st.just("write_extent"),
        st.integers(0, DEVICES - 1),
        st.integers(0, 11),
        st.binary(min_size=1, max_size=3 * BLOCK),
        st.sampled_from(CATEGORIES),
    ),
    st.tuples(
        st.just("read"),
        st.integers(0, DEVICES - 1),
        st.integers(0, 13),  # start, clamped into the device
        st.integers(1, 5),  # count, clamped into the device
        st.sampled_from(CATEGORIES),
    ),
    st.tuples(st.just("copy"), st.integers(0, DEVICES - 1), st.integers(0, DEVICES - 1)),
    st.tuples(
        st.just("load"),
        st.integers(0, DEVICES - 1),
        st.lists(st.binary(min_size=BLOCK, max_size=BLOCK), min_size=1, max_size=10),
    ),
)


def drop_covering(seen: dict, block: int) -> None:
    for start, count in [key for key in seen if key[0] <= block < key[0] + key[1]]:
        del seen[(start, count)]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 12), min_size=DEVICES, max_size=DEVICES),
    st.lists(operations, max_size=40),
)
def test_extent_images_match_a_list_model(sizes, ops):
    devices = [InMemoryBlockDevice(block_size=BLOCK, name=f"d{i}") for i in range(DEVICES)]
    blocks: list[list[bytes]] = []
    for device, size in zip(devices, sizes):
        content = [bytes([block]) * BLOCK for block in range(size)]
        device.load_bytes(b"".join(content))
        blocks.append(content)
    models = [PerBlockModel() for _ in devices]
    writes = [[0, 0] for _ in devices]
    # (start, count) -> the object the last read of that extent returned,
    # forgotten when a block inside the extent is written.
    seen: list[dict] = [{} for _ in devices]

    def write(index: int, block: int, data: bytes, category: str) -> None:
        content = blocks[index]
        while len(content) <= block:
            content.append(bytes(BLOCK))
        content[block] = data.ljust(BLOCK, b"\x00")
        model_write(models[index], writes[index], block, category)
        drop_covering(seen[index], block)

    for op in ops:
        kind, index = op[0], op[1]
        device = devices[index]
        if kind == "write_block":
            _, _, block, data, category = op
            device.write_block(block, data, category)
            write(index, block, data, category)
        elif kind == "write_extent":
            _, _, start, data, category = op
            written = device.write_extent(start, data, category)
            assert written == -(-len(data) // BLOCK)
            for i in range(written):
                write(index, start + i, data[i * BLOCK : (i + 1) * BLOCK], category)
        elif kind == "read":
            _, _, start, count, category = op
            size = len(blocks[index])
            start = min(start, size - 1)
            count = min(count, size - start)
            got = device.read_extent(start, count, category)
            assert got == b"".join(blocks[index][start : start + count])
            models[index].read(start, count, category, None, [], empty_deltas())
            earlier = seen[index].get((start, count))
            if earlier is not None:
                assert got is earlier
            seen[index][(start, count)] = got
        elif kind == "copy":
            source = op[2]
            device.copy_from(devices[source])
            blocks[index] = list(blocks[source])
            seen[index] = dict(seen[source])
        else:
            content = op[2]
            device.load_bytes(b"".join(content))
            blocks[index] = list(content)
            seen[index] = {}

    for device, model, (random_writes, seq_writes) in zip(devices, models, writes):
        stats = device.stats
        assert stats.random_reads == model.random
        assert stats.sequential_reads == model.sequential
        assert stats.random_writes == random_writes
        assert stats.sequential_writes == seq_writes
        assert stats.by_category == model.by_category
        assert stats._last_block == model.head


def numbered_device(count: int) -> InMemoryBlockDevice:
    device = InMemoryBlockDevice(block_size=BLOCK)
    device.write_extent(0, b"".join(bytes([block]) * BLOCK for block in range(count)))
    return device


class TestInvalidation:
    def test_a_write_drops_only_the_images_that_cover_it(self):
        device = numbered_device(6)
        extents = [(0, 2), (1, 2), (2, 2), (3, 3)]
        before = {extent: device.read_extent(*extent) for extent in extents}
        device.write_block(2, b"new")
        for extent in extents:
            start, count = extent
            after = device.read_extent(*extent)
            if start <= 2 < start + count:
                assert after is not before[extent]
                assert after == device._read_raw_extent(start, count)
                assert after[(2 - start) * BLOCK :].startswith(b"new")
            else:
                assert after is before[extent]

    def test_single_blocks_are_the_stored_objects(self):
        device = numbered_device(3)
        assert device.read_block(1) is device.read_block(1)
        assert device.read_extent(1, 1) is device._read_raw(1)

    def test_a_fresh_read_is_charged_like_a_repeat(self):
        device = numbered_device(4)
        device.stats.reset()
        device.read_extent(0, 3)
        device.read_extent(0, 3)
        assert (device.stats.random_reads, device.stats.sequential_reads) == (2, 4)

    def test_a_copy_shares_images_until_either_side_writes(self):
        source = numbered_device(4)
        image = source.read_extent(0, 2)
        tail = source.read_extent(2, 2)
        copy = InMemoryBlockDevice(block_size=BLOCK)
        copy.copy_from(source)
        assert copy.read_extent(0, 2) is image
        copy.write_block(1, b"copy")
        assert copy.read_extent(0, 2) is not image
        assert source.read_extent(0, 2) is image
        assert copy.read_extent(2, 2) is tail
        source.write_block(3, b"source")
        assert copy.read_extent(2, 2) is tail
        assert source.read_extent(2, 2) is not tail

    def test_a_load_forgets_every_image(self):
        device = numbered_device(4)
        image = device.read_extent(0, 2)
        device.load_bytes(bytes(image))
        again = device.read_extent(0, 2)
        assert again == image and again is not image


def make_engine():
    config = DatasetConfig(
        name="stable-extents",
        n_objects=300,
        vocabulary_size=80,
        avg_unique_words=5.0,
        clusters=4,
        cluster_std=10.0,
        extent=((0.0, 100.0), (0.0, 100.0)),
        seed=11,
    )
    objects = SpatialTextDatasetGenerator(config).generate()
    engine = SpatialKeywordEngine(index="ir2", signature_bytes=8, capacity=8)
    engine.add_all(objects[:-1])
    engine.build()
    return engine, objects[-1]


def test_an_incremental_merge_keeps_unchanged_node_images():
    base, extra = make_engine()
    base_tree = base.index.tree
    node_ids = list(base_tree.pages._directory)
    decoded = {node_id: base_tree.read_decoded(node_id) for node_id in node_ids}
    images = {node_id: base_tree.pages.read(node_id) for node_id in node_ids}
    merged = copy_built_engine(base)
    tree = merged.index.tree
    written = set()
    write = tree.pages.write

    def recording_write(node_id, image, reserve_blocks=None):
        written.add(node_id)
        write(node_id, image, reserve_blocks=reserve_blocks)

    tree.pages.write = recording_write
    merged.add(extra)
    kept = [node_id for node_id in node_ids if node_id not in written]
    assert kept and written
    for node_id in kept:
        assert tree.pages.read(node_id) is images[node_id]
        assert tree.read_decoded(node_id) is decoded[node_id]
    for node_id in written & set(node_ids):
        assert tree.pages.read(node_id) is not images[node_id]
    # The base keeps its images: the copy's writes never reach it.
    assert all(base_tree.pages.read(node_id) is images[node_id] for node_id in node_ids)


def test_no_reader_sees_bytes_older_than_a_finished_write():
    device = InMemoryBlockDevice(block_size=BLOCK)
    device.write_extent(0, bytes(2 * BLOCK))
    rounds = 3_000
    done = [0]  # the last version whose write_extent has returned
    stale: list[tuple[int, int]] = []
    stop = threading.Event()

    def version(data: bytes, block: int) -> int:
        return int.from_bytes(data[block * BLOCK : block * BLOCK + 4], "little")

    def writer() -> None:
        try:
            for number in range(1, rounds + 1):
                payload = number.to_bytes(4, "little").ljust(BLOCK, b"\x00")
                device.write_extent(0, payload * 2)
                done[0] = number
        finally:
            stop.set()

    def reader() -> None:
        while not stop.is_set():
            floor = done[0]
            data = device.read_extent(0, 2)
            oldest = min(version(data, 0), version(data, 1))
            if oldest < floor:
                stale.append((oldest, floor))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert stale == []
    last = rounds.to_bytes(4, "little").ljust(BLOCK, b"\x00")
    assert device.read_extent(0, 2) == last * 2


class _BlocksWithHook(list):
    """A block list that runs a hook the next time an extent is sliced."""

    hook = None

    def __getitem__(self, index):
        if isinstance(index, slice) and self.hook is not None:
            hook, self.hook = self.hook, None
            hook()
        return list.__getitem__(self, index)


def test_a_write_during_an_image_miss_is_not_lost():
    """Force the race: a write lands while a reader joins the extent's
    image.  The device lock makes the writer wait until the image is kept
    and then drop it, so the read after the write sees the new bytes."""
    device = numbered_device(2)
    blocks = _BlocksWithHook(device._blocks)
    device._blocks = blocks
    writer = threading.Thread(target=device.write_block, args=(0, b"new"))

    def start_writer():
        writer.start()
        writer.join(0.2)  # the write cannot finish while the miss holds the lock

    blocks.hook = start_writer
    first = device.read_extent(0, 2)
    writer.join(10)
    assert not writer.is_alive()
    assert first[:3] != b"new"
    assert device.read_extent(0, 2)[:3] == b"new"

