"""Extent reads are charged exactly as their blocks read one at a time.

``BlockDevice.read_block(start, category, count)`` charges a whole
extent in one call.  The reference here is the per-block algorithm it
replaced, written out inline: each block in order is either a session hit
(a shared read that leaves the head alone) or a real read classified by
head position and, inside a session, stored.  The model session is a
per-device LRU: a hit makes its block the most recent, and a store past
the bound evicts the least recent.  Hypothesis drives random devices
through interleaved single-block and extent reads, with and without a
pre-seeded, unbounded or bounded shared-read session and nested
collectors, under a trace; every counter, the head, the collector deltas,
the session's hits and misses and the traced block events must match the
model.  Each scenario also re-reads the first blocks of one device,
enough times that a bounded session's least-recent order decides its
evictions.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BlockOutOfRangeError
from repro.obs.trace import (
    EVT_BLOCK_READ,
    EVT_SHARED_READ,
    PATTERN_RANDOM,
    PATTERN_SEQUENTIAL,
    trace_query,
)
from repro.storage import InMemoryBlockDevice
from repro.storage.iostats import collecting_io
from repro.storage.sharedread import activate_session, SharedReadSession

CATEGORIES = ("node", "object", "postings")


class PerBlockModel:
    """The per-block accounting of one device, block by block."""

    def __init__(self) -> None:
        self.random = 0
        self.sequential = 0
        self.shared = 0
        self.by_category: dict[str, list[int]] = {}
        self.head: int | None = None

    def read(self, start, count, category, session_blocks, events, deltas):
        for block in range(start, start + count):
            if session_blocks is not None and block in session_blocks:
                session_blocks.move_to_end(block)
                self.shared += 1
                deltas["shared"] += 1
                deltas["hits"] += 1
                events.append((EVT_SHARED_READ, block, None))
                continue
            is_seq = self.head is not None and block == self.head + 1
            self.head = block
            slot = 1 if is_seq else 0
            if is_seq:
                self.sequential += 1
            else:
                self.random += 1
            self.by_category.setdefault(category, [0, 0, 0, 0])[slot] += 1
            deltas["slots"].setdefault(category, [0, 0, 0, 0])[slot] += 1
            deltas["real"][slot] += 1
            events.append(
                (EVT_BLOCK_READ, block, PATTERN_SEQUENTIAL if is_seq else PATTERN_RANDOM)
            )
            if session_blocks is not None:
                session_blocks.store(block)
                deltas["misses"] += 1


class LRUBlocks(OrderedDict):
    """The block ids a session holds for one device, least recent first."""

    def __init__(self, capacity):
        super().__init__()
        self.capacity = capacity

    def store(self, block):
        self[block] = None
        self.move_to_end(block)
        if self.capacity is not None and len(self) > self.capacity:
            self.popitem(last=False)


def empty_deltas() -> dict:
    return {"real": [0, 0], "shared": 0, "slots": {}, "hits": 0, "misses": 0}


def add_deltas(total: dict, part: dict) -> None:
    total["real"] = [a + b for a, b in zip(total["real"], part["real"])]
    for key in ("shared", "hits", "misses"):
        total[key] += part[key]
    for category, counts in part["slots"].items():
        merged = total["slots"].setdefault(category, [0, 0, 0, 0])
        for i, value in enumerate(counts):
            merged[i] += value


@st.composite
def scenarios(draw):
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    block_size = draw(st.sampled_from([8, 16, 64]))
    hows = st.sampled_from(["block", "extent", "block_count"])
    reads = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(sizes) - 1),  # device
                st.integers(-2, 13),  # start
                st.integers(1, 6),  # count
                st.sampled_from(CATEGORIES),
                hows,
            ),
            max_size=30,
        )
    )
    use_session = draw(st.booleans())
    capacity = draw(st.one_of(st.none(), st.integers(1, 6))) if use_session else None
    # Splice in single-block re-reads of one more block of the first
    # device than a bounded session keeps, three per block at least, so
    # that a hit's recency decides which block a later miss evicts.
    hot = min(sizes[0], capacity + 1 if capacity else 4)
    reread = st.tuples(
        st.just(0), st.integers(0, hot - 1), st.just(1), st.sampled_from(CATEGORIES), hows
    )
    at = draw(st.integers(0, len(reads)))
    reads[at:at] = draw(
        st.lists(reread, min_size=3 * hot if capacity else 0, max_size=30)
    )
    seeded = [
        draw(st.sets(st.integers(0, size - 1), max_size=size)) if use_session else set()
        for size in sizes
    ]
    inner_lo = draw(st.integers(0, len(reads)))
    inner_hi = draw(st.integers(inner_lo, len(reads)))
    return sizes, block_size, reads, use_session, capacity, seeded, (inner_lo, inner_hi)


def build_devices(sizes, block_size):
    devices = []
    for number, size in enumerate(sizes):
        device = InMemoryBlockDevice(block_size=block_size, name=f"d{number}")
        for block in range(size):
            device.write_block(block, bytes([(number * 31 + block) % 256]) * block_size)
        device.stats.reset()
        devices.append(device)
    return devices


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_extent_reads_charge_like_per_block_reads(scenario):
    sizes, block_size, reads, use_session, capacity, seeded, (inner_lo, inner_hi) = (
        scenario
    )
    devices = build_devices(sizes, block_size)
    models = [PerBlockModel() for _ in devices]
    session = SharedReadSession(capacity) if use_session else None
    model_session = [LRUBlocks(capacity) for _ in seeded] if use_session else None
    if session is not None:
        for device, blocks, model_blocks in zip(devices, seeded, model_session):
            for block in sorted(blocks):
                session.store_extent(device, block, device._read_raw(block), block_size)
                model_blocks.store(block)
        hits0, misses0 = session.hits, session.misses
    expected_events: list[tuple] = []
    outer_expect, inner_expect = empty_deltas(), empty_deltas()

    def run(number):
        index, start, count, category, how = reads[number]
        device, model = devices[index], models[index]
        if how == "block":
            count = 1
        in_range = start >= 0 and start + count <= sizes[index]
        deltas = empty_deltas()
        if in_range:
            model.read(
                start,
                count,
                category,
                model_session[index] if model_session is not None else None,
                expected_events,
                deltas,
            )
        try:
            if how == "block":
                got = device.read_block(start, category)
            elif how == "extent":
                got = device.read_extent(start, count, category)
            else:
                got = device.read_block(start, category, count)
        except BlockOutOfRangeError as exc:
            assert not in_range
            first_bad = start if start < 0 or start >= sizes[index] else sizes[index]
            assert exc.block_id == first_bad
        else:
            assert in_range
            assert got == b"".join(device._read_raw(b) for b in range(start, start + count))
        add_deltas(outer_expect, deltas)
        if inner_lo <= number < inner_hi:
            add_deltas(inner_expect, deltas)

    with trace_query("extents") as trace, activate_session(session):
        with collecting_io() as outer:
            for number in range(inner_lo):
                run(number)
            with collecting_io() as inner:
                for number in range(inner_lo, inner_hi):
                    run(number)
            for number in range(inner_hi, len(reads)):
                run(number)

    for device, model in zip(devices, models):
        stats = device.stats
        assert stats.random_reads == model.random
        assert stats.sequential_reads == model.sequential
        assert stats.shared_reads == model.shared
        assert stats.by_category == model.by_category
        assert stats._last_block == model.head
    for collector, expect in ((outer, outer_expect), (inner, inner_expect)):
        assert [collector.random_reads, collector.sequential_reads] == expect["real"]
        assert collector.shared_reads == expect["shared"]
        assert collector.by_category == expect["slots"]
        assert collector._last_block is None
    if session is not None:  # the outer collector saw every read
        assert session.hits - hits0 == outer_expect["hits"]
        assert session.misses - misses0 == outer_expect["misses"]
        assert len(session) == sum(len(blocks) for blocks in model_session)
    traced = [
        (event.name, event.attrs["block"], event.attrs.get("pattern"))
        for _, event in trace.iter_events()
        if event.name in (EVT_BLOCK_READ, EVT_SHARED_READ)
    ]
    assert traced == expected_events


def test_no_block_events_without_an_active_span():
    device = InMemoryBlockDevice(block_size=8)
    device.write_extent(0, b"x" * 32)
    with trace_query("before") as trace:
        pass
    device.read_extent(0, 4)
    assert list(trace.iter_events()) == []
    assert device.stats.total_reads == 4
