"""Tests for posting-list codecs (raw and delta+varint [NMN+00])."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.storage import InMemoryBlockDevice
from repro.text import InvertedIndex, RawCodec, VarintCodec, get_codec
from repro.text.analyzer import DEFAULT_ANALYZER

CODECS = [RawCodec(), VarintCodec()]

sorted_postings = st.lists(
    st.integers(0, 2**31 - 1), max_size=200, unique=True
).map(sorted)


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
class TestRoundTrip:
    def test_empty(self, codec):
        assert codec.decode(codec.encode([]), 0) == []

    def test_single(self, codec):
        assert codec.decode(codec.encode([42]), 1) == [42]

    def test_large_values(self, codec):
        postings = [0, 1, 127, 128, 16_383, 16_384, 2**31 - 1]
        assert codec.decode(codec.encode(postings), len(postings)) == postings

    def test_truncated_data_raises(self, codec):
        data = codec.encode([1, 1000, 100_000])
        with pytest.raises(SerializationError):
            codec.decode(data[:1], 3)


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
@given(postings=sorted_postings)
@settings(max_examples=100, deadline=None)
def test_property_roundtrip(codec, postings):
    assert codec.decode(codec.encode(postings), len(postings)) == postings


class TestVarintSpecifics:
    def test_dense_lists_compress(self):
        codec = VarintCodec()
        dense = list(range(0, 4000, 4))  # gaps of 4 -> 1 byte each
        raw_size = len(RawCodec().encode(dense))
        varint_size = len(codec.encode(dense))
        assert varint_size < raw_size / 3

    def test_sparse_lists_do_not_explode(self):
        codec = VarintCodec()
        sparse = [i * 10_000_019 for i in range(100)]
        assert len(codec.encode(sparse)) <= len(RawCodec().encode(sparse))

    def test_unsorted_input_rejected(self):
        with pytest.raises(SerializationError):
            VarintCodec().encode([5, 3])

    def test_first_value_absolute(self):
        codec = VarintCodec()
        assert codec.decode(codec.encode([300]), 1) == [300]


class TestFactory:
    def test_known_names(self):
        assert get_codec("raw").name == "raw"
        assert get_codec("varint").name == "varint"

    def test_unknown_name(self):
        with pytest.raises(SerializationError):
            get_codec("zstd")


class TestCompressedIndex:
    def _build(self, compression):
        index = InvertedIndex(
            InMemoryBlockDevice(block_size=64), DEFAULT_ANALYZER,
            compression=compression,
        )
        index.build([(i * 2, "pool spa" if i % 3 else "pool gym") for i in range(150)])
        return index

    def test_compressed_equals_raw(self):
        raw = self._build("raw")
        varint = self._build("varint")
        for term in ("pool", "spa", "gym"):
            assert raw.postings(term) == varint.postings(term)
        assert raw.retrieve_conjunction(["pool", "spa"]) == (
            varint.retrieve_conjunction(["pool", "spa"])
        )

    def test_compressed_is_smaller(self):
        raw = self._build("raw")
        varint = self._build("varint")
        assert varint.postings_bytes < raw.postings_bytes

    def test_compressed_reads_fewer_blocks(self):
        raw = self._build("raw")
        varint = self._build("varint")
        raw.device.stats.reset()
        varint.device.stats.reset()
        raw.postings("pool")
        varint.postings("pool")
        assert varint.device.stats.snapshot().total_reads <= raw.device.stats.snapshot().total_reads

    def test_maintenance_under_compression(self):
        index = self._build("varint")
        index.add(9_999, "pool brand new")
        assert 9_999 in index.postings("pool")
        index.remove(9_999, "pool brand new")
        assert 9_999 not in index.postings("pool")
        index.compact()
        assert index.dead_bytes == 0
