"""One pass per build: every stored row is decoded once, not once per use.

A build reads the corpus into one list of items (pointer, rectangle,
distinct terms) and every structure, the planner statistics included,
is built from that list.  A sharded engine reads each shard's objects
once more after the shards build, for its MBBs and keyword summaries.
A second build of a built engine leaves it as a fresh build would, and a
load reads each stored row once too.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.engine import SpatialKeywordEngine
from repro.persist import load_engine, save_engine
from repro.shard import ShardedEngine
from repro.storage import objectstore
from tests.test_engine_image import build_engine, make_objects, query_batch, singles

SINGLE_KINDS = ("rtree", "ir2", "mir2", "iio", "sig", "stree", "auto")


def counted_decodes(run, monkeypatch) -> Counter:
    """Row bytes -> times ``decode_row`` parsed them while ``run()`` ran."""
    decoded: Counter = Counter()
    real = objectstore.decode_row

    def counting(row: bytes):
        decoded[row] += 1
        return real(row)

    monkeypatch.setattr(objectstore, "decode_row", counting)
    run()
    monkeypatch.setattr(objectstore, "decode_row", real)
    return decoded


def build_decodes(engine, monkeypatch) -> Counter:
    """Row bytes -> times ``decode_row`` parsed them during ``build()``."""
    return counted_decodes(engine.build, monkeypatch)


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


@pytest.mark.parametrize("kind", ("auto", "autox2kw"))
def test_a_load_decodes_each_live_row_once(kind, monkeypatch, tmp_path):
    """The restored corpus feeds the vocabulary and the planner
    statistics from one read: one decode per live row of each shard."""
    engine = build_engine(kind)
    save_engine(engine, str(tmp_path / "saved"))
    loaded = []
    decoded = counted_decodes(
        lambda: loaded.append(load_engine(str(tmp_path / "saved"))),
        monkeypatch,
    )
    live = sum(len(shard) for shard in singles(loaded[0]))
    assert live == len(engine)
    assert len(decoded) == live
    assert max(decoded.values()) == 1


def test_a_maintained_iio_rebuild_saves_a_fresh_builds_postings(tmp_path):
    """A rebuild restarts the postings log and cuts the device back, so
    a maintained engine's rebuilt index saves as few blocks as a fresh
    build over the same objects."""
    engine = build_engine("iio")
    assert engine.index.device.num_blocks == 14
    engine.build()
    fresh = SpatialKeywordEngine(index="iio", signature_bytes=8)
    fresh.add_all(list(engine.objects()))
    fresh.build()
    assert engine.index.device.num_blocks == fresh.index.device.num_blocks == 2
    save_engine(engine, str(tmp_path / "rebuilt"))
    save_engine(fresh, str(tmp_path / "fresh"))
    # The lists hold object pointers, which differ between the two
    # object files; the postings blocks saved are as many.
    sizes = [
        (tmp_path / name / "index.dat").stat().st_size
        for name in ("rebuilt", "fresh")
    ]
    assert sizes == [2 * engine.index.device.block_size] * 2
    assert answers(engine) == answers(fresh)
