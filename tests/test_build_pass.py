"""One pass per build: every stored row is decoded once, not once per use.

A build reads the corpus into one list of items (pointer, rectangle,
distinct terms) and every structure, the planner statistics included,
is built from that list.  A sharded engine reads each shard's objects
once more after the shards build, for its MBBs and keyword summaries.
A second build of a built engine leaves it as a fresh build would.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.engine import SpatialKeywordEngine
from repro.shard import ShardedEngine
from repro.storage import objectstore
from tests.test_engine_image import make_objects, query_batch, singles

SINGLE_KINDS = ("rtree", "ir2", "mir2", "iio", "sig", "stree", "auto")


def build_decodes(engine, monkeypatch) -> Counter:
    """Row bytes -> times ``decode_row`` parsed them during ``build()``."""
    decoded: Counter = Counter()
    real = objectstore.decode_row

    def counting(row: bytes):
        decoded[row] += 1
        return real(row)

    monkeypatch.setattr(objectstore, "decode_row", counting)
    engine.build()
    monkeypatch.setattr(objectstore, "decode_row", real)
    return decoded


@pytest.mark.parametrize("kind", SINGLE_KINDS)
def test_single_engine_build_decodes_each_row_once(kind, monkeypatch):
    objects = make_objects()
    engine = SpatialKeywordEngine(index=kind, signature_bytes=8)
    engine.add_all(objects)
    decoded = build_decodes(engine, monkeypatch)
    assert len(decoded) == len(objects)
    assert max(decoded.values()) == 1


def test_sharded_build_decodes_each_row_at_most_twice(monkeypatch):
    objects = make_objects()
    engine = ShardedEngine(
        n_shards=2, index="auto", partitioner="keyword", signature_bytes=8
    )
    engine.add_all(objects)
    decoded = build_decodes(engine, monkeypatch)
    assert len(decoded) == len(objects)
    # Once in its shard's build, once for the MBBs and summaries.
    assert max(decoded.values()) == 2


def iio_engine(shards: int):
    if shards == 1:
        engine = SpatialKeywordEngine(index="iio", signature_bytes=8)
    else:
        engine = ShardedEngine(n_shards=shards, index="iio", signature_bytes=8)
    engine.add_all(make_objects())
    engine.build()
    return engine


def iio_footprint(engine) -> tuple:
    """The index size and each inverted index's live and dead bytes."""
    lists = [shard.index.index for shard in singles(engine)]
    return (
        engine.index_size_mb(),
        [(index.postings_bytes, index.dead_bytes, index.size_mb) for index in lists],
    )


def answers(engine) -> list:
    return [
        [(r.obj.oid, r.distance) for r in engine.search(query).results]
        for query in query_batch(engine)
    ]


@pytest.mark.parametrize("shards", (1, 2))
def test_an_iio_rebuild_equals_a_fresh_build(shards):
    fresh = iio_engine(shards)
    want = (iio_footprint(fresh), answers(fresh))
    engine = iio_engine(shards)
    for _ in range(3):
        engine.build()
        assert (iio_footprint(engine), answers(engine)) == want
