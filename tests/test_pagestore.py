"""Unit tests for the page store (node id -> extent mapping)."""

from __future__ import annotations

import pytest

from repro.errors import PageNotFoundError
from repro.storage import InMemoryBlockDevice, PageStore


@pytest.fixture
def pages():
    return PageStore(InMemoryBlockDevice(block_size=64))


class TestIds:
    def test_new_node_ids_are_unique(self, pages):
        ids = {pages.new_node_id() for _ in range(10)}
        assert len(ids) == 10

    def test_membership(self, pages):
        node_id = pages.new_node_id()
        assert node_id not in pages
        pages.write(node_id, b"data")
        assert node_id in pages
        assert len(pages) == 1
        assert pages.node_ids() == [node_id]


class TestReadWrite:
    def test_roundtrip(self, pages):
        node_id = pages.new_node_id()
        pages.write(node_id, b"hello node")
        assert pages.read(node_id)[:10] == b"hello node"

    def test_multiblock_node(self, pages):
        node_id = pages.new_node_id()
        payload = bytes(range(256)) * 2  # 512 bytes over 64-byte blocks
        pages.write(node_id, payload)
        assert pages.extent_of(node_id)[1] == 8
        assert pages.read(node_id)[: len(payload)] == payload

    def test_read_costs_extent_pattern(self, pages):
        node_id = pages.new_node_id()
        pages.write(node_id, b"x" * 200)  # 4 blocks
        pages.device.stats.reset()
        pages.read(node_id)
        assert pages.device.stats.random_reads == 1
        assert pages.device.stats.sequential_reads == 3

    def test_read_unknown_raises(self, pages):
        with pytest.raises(PageNotFoundError):
            pages.read(12345)

    def test_rewrite_same_size_keeps_extent(self, pages):
        node_id = pages.new_node_id()
        pages.write(node_id, b"a" * 100)
        extent = pages.extent_of(node_id)
        pages.write(node_id, b"b" * 100)
        assert pages.extent_of(node_id) == extent

    def test_grow_reallocates_contiguously(self, pages):
        first = pages.new_node_id()
        pages.write(first, b"a" * 60)
        blocker = pages.new_node_id()
        pages.write(blocker, b"b" * 60)
        pages.write(first, b"c" * 200)  # cannot grow in place
        start, length = pages.extent_of(first)
        assert length == 4
        assert pages.read(first)[:200] == b"c" * 200

    def test_category_accounting(self, pages):
        node_id = pages.new_node_id()
        pages.write(node_id, b"x")
        pages.read(node_id)
        assert pages.device.stats.snapshot().category_reads("node") == 1


class TestDelete:
    def test_delete_frees_blocks_for_reuse(self, pages):
        a = pages.new_node_id()
        pages.write(a, b"a" * 100)
        start_a = pages.extent_of(a)[0]
        b = pages.new_node_id()
        pages.write(b, b"b" * 100)
        pages.delete(a)
        assert a not in pages
        c = pages.new_node_id()
        pages.write(c, b"c" * 100)
        assert pages.extent_of(c)[0] == start_a  # reused

    def test_delete_unknown_raises(self, pages):
        with pytest.raises(PageNotFoundError):
            pages.delete(7)

    def test_used_blocks_tracks_live_nodes(self, pages):
        a = pages.new_node_id()
        pages.write(a, b"x" * 100)  # 2 blocks
        b = pages.new_node_id()
        pages.write(b, b"x" * 30)  # 1 block
        assert pages.used_blocks == 3
        pages.delete(a)
        assert pages.used_blocks == 1
        assert pages.size_bytes == 64
