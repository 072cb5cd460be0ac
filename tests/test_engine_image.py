"""One engine image: the merge copy and a save/load round trip agree.

:func:`copy_built_engine` (the snapshot maintainer's incremental merges)
and :func:`load_engine` restore an engine through the same path.  They
differ in where each device's blocks come from and in the vocabulary,
which a copy takes from its source and a load re-derives from the stored
documents.  Every persisted index kind, and a two-shard ``ir2`` engine,
must come out of both with the same blocks, bookkeeping and answers.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.bench.workloads import ConcurrentLoadGenerator
from repro.core.engine import SpatialKeywordEngine
from repro.core.ranking import LinearRanking
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.persist import (
    _device_files,
    _index_state,
    copy_built_engine,
    load_engine,
    save_engine,
)
from repro.shard import ShardedEngine
from repro.storage import inject_engine_faults

KINDS = ("rtree", "ir2", "mir2", "iio", "sig", "auto", "ir2x2")

#: SHA-256 over the path and bytes of every file ``save_engine`` writes
#: for ``build_engine(kind)``.  A change here is a change of the on-disk
#: format, which must come with a MANIFEST_VERSION decision.  Every kind
#: lays out its live inserts and deletes in a fixed order, so the digests
#: hold under every PYTHONHASHSEED.
SAVED_LAYOUT_SHA256 = {
    "rtree": "82a19d6aae2246a320012be61554992643961e89ef52ac9942fe5f30c3e80b1c",
    "ir2": "b479bfcaec65384ea3d5acbaa46abbbd1405dc575bcf2d0b3e9f76e3b6d30f0f",
    "mir2": "22fb639fbadf958b2e8beea93f440e662b62e96b4a90bf7453b51e68bcfc1320",
    "iio": "6cd6875b7b77d5fe0e8f57cc0f3d94f25ee8a708101d58f5c41729998d95eef2",
    "sig": "83aa9a282c130c97945baa7b691892c70c5d4ed70ffb4f165a1a99a4e48639f7",
    "auto": "effa14415c610e0cd694fa3df39cc1263839a91837e0a3954f281644f39d7d9e",
    "ir2x2": "1858e518ba359dd61cdd1be711350efe1253214d29cf2efa7d26c562b4a2d16b",
}

def make_objects():
    config = DatasetConfig(
        name="engine-image",
        n_objects=180,
        vocabulary_size=300,
        avg_unique_words=8,
        clusters=5,
        seed=31,
    )
    return SpatialTextDatasetGenerator(config).generate()


def build_engine(kind, maintained=True):
    """A built engine, by default also maintained live.

    The inserts and deletes after the build leave free extents, a moved
    object-store end and dropped pointers in the image.
    """
    objects = make_objects()
    if kind == "ir2x2":
        engine = ShardedEngine(n_shards=2, index="ir2", signature_bytes=8)
    else:
        engine = SpatialKeywordEngine(index=kind, signature_bytes=8)
    engine.add_all(objects[:150])
    engine.build()
    if not maintained:
        return engine
    for obj in objects[150:]:
        engine.add(obj)
    for obj in objects[:150:10]:
        engine.delete(obj.oid)
    return engine


def singles(engine):
    return engine.shards if isinstance(engine, ShardedEngine) else [engine]


def query_batch(engine):
    objects = make_objects()
    analyzer = singles(engine)[0].analyzer
    workload = ConcurrentLoadGenerator(objects, analyzer, seed=5)
    queries = workload.mixed_batch(
        40, keyword_counts=(1, 2), k=5, hot_fraction=0.0,
        area_fraction=0.25, ranked_fraction=0.25, ranking=LinearRanking(),
    )
    ranked = hasattr(singles(engine)[0].index, "execute_ranked")
    return [q for q in queries if ranked or q.ranking is None]


def layout_sha256(directory) -> str:
    root = Path(directory)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(params=KINDS)
def copied_and_loaded(request, tmp_path):
    engine = build_engine(request.param)
    copy = copy_built_engine(engine)
    save_engine(engine, str(tmp_path / "saved"))
    loaded = load_engine(str(tmp_path / "saved"))
    yield engine, copy, loaded
    for each in (engine, copy, loaded):
        if isinstance(each, ShardedEngine):
            each.close()


class TestCopyMatchesLoad:
    def test_device_images_are_block_for_block_equal(self, copied_and_loaded):
        engine, copy, loaded = copied_and_loaded
        for source, left, right in zip(
            singles(engine), singles(copy), singles(loaded)
        ):
            files = _device_files(source)
            assert set(_device_files(left)) == set(_device_files(right)) == set(files)
            for name, device in files.items():
                blocks = list(device.iter_blocks())
                assert list(_device_files(left)[name].iter_blocks()) == blocks
                assert list(_device_files(right)[name].iter_blocks()) == blocks

    def test_index_state_pointers_and_vocabulary_are_equal(self, copied_and_loaded):
        engine, copy, loaded = copied_and_loaded
        for source, left, right in zip(
            singles(engine), singles(copy), singles(loaded)
        ):
            assert _index_state(left.index) == _index_state(right.index) \
                == _index_state(source.index)
            assert left._pointers == right._pointers == source._pointers
            assert left.corpus.store._pointers == right.corpus.store._pointers
            assert left.corpus.store._end == right.corpus.store._end
            assert left.corpus.store._count == right.corpus.store._count
            assert left.corpus._dims == right.corpus._dims == source.corpus._dims
            for vocabulary in (left.corpus.vocabulary, right.corpus.vocabulary):
                assert vocabulary._df == source.corpus.vocabulary._df
                assert vocabulary.document_count \
                    == source.corpus.vocabulary.document_count
                assert vocabulary._distinct_terms_total \
                    == source.corpus.vocabulary._distinct_terms_total
            # The copy's counts are its own, not the source's.
            assert left.corpus.vocabulary is not source.corpus.vocabulary

    def test_answers_and_io_counts_are_identical(self, copied_and_loaded):
        engine, copy, loaded = copied_and_loaded
        for query in query_batch(engine):
            left, right = copy.search(query), loaded.search(query)
            assert [(r.obj.oid, r.score) for r in left.results] \
                == [(r.obj.oid, r.score) for r in right.results]
            assert left.io == right.io


def test_sharded_copy_and_load_keep_the_routing_state(tmp_path):
    engine = build_engine("ir2x2")
    save_engine(engine, str(tmp_path / "saved"))
    copy, loaded = copy_built_engine(engine), load_engine(str(tmp_path / "saved"))
    for restored in (copy, loaded):
        assert restored.partitioner.to_dict() == engine.partitioner.to_dict()
        assert restored._shard_of == engine._shard_of
        assert restored.shard_mbbs == engine.shard_mbbs
        assert [s.to_dict() for s in restored.summaries] \
            == [s.to_dict() for s in engine.summaries]
    # A copy keeps the source's serving settings.
    for name in ("failure_policy", "retries", "retry_backoff_s", "metrics"):
        assert getattr(copy, name) is getattr(engine, name)
    for each in (engine, copy, loaded):
        each.close()


@pytest.mark.parametrize("kind", KINDS)
def test_save_writes_the_recorded_layout(kind, tmp_path):
    engine = build_engine(kind)
    save_engine(engine, str(tmp_path / "saved"))
    assert layout_sha256(tmp_path / "saved") == SAVED_LAYOUT_SHA256[kind]


def test_copy_refuses_what_it_cannot_copy():
    unbuilt = SpatialKeywordEngine(index="ir2")
    assert copy_built_engine(unbuilt) is None
    assert copy_built_engine(ShardedEngine(n_shards=2)) is None
    stree = SpatialKeywordEngine(index="stree")
    stree.add_all(make_objects()[:20])
    stree.build()
    assert copy_built_engine(stree) is None
    faulty = build_engine("ir2")
    inject_engine_faults(faulty)
    assert copy_built_engine(faulty) is None
