"""Every index kind keeps its per-query I/O record to the count.

The paper ranks the indexes by random and sequential block accesses and
object loads (Section VI); ``QueryExecution.io`` carries those counts
per query.  For every kind :func:`repro.core.indexes.make_index` builds,
plus a two-shard ``ir2`` engine, one seeded batch of point, area and
ranked queries runs serially on one thread, and the digest below covers
each execution's full I/O record: random and sequential reads and
writes, objects loaded, shared reads, each category's four counts in
first-access order, ``objects_inspected`` and ``nodes_visited``.  One
batch through a batched :class:`~repro.serve.QueryService` covers the
shared-read counts.  Any change to a digest is a change to the paper's
cost measure.

Engines are maintained live after the build (inserts and deletes), as
``tests/test_engine_image.py`` builds them, except three kinds pinned as
built: ``stree``, which implements no deletion, and ``iio`` and ``auto``,
so that their digests hold under every ``PYTHONHASHSEED``.  The sharded
engine fans out on one worker, so its distance-first merge threshold
never depends on thread timing.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.serve import QueryService
from repro.serve.scheduler import BatchConfig
from repro.shard import ShardedEngine
from tests.test_engine_image import build_engine, make_objects, query_batch

KINDS = ("rtree", "ir2", "mir2", "iio", "sig", "stree", "auto", "ir2x2")

#: Kinds pinned as built, not maintained (see the module docstring).
AS_BUILT = ("iio", "auto", "stree")

IO_SHA256 = {
    "rtree": "fb7e3405f0dbd649158320e1b272120155d14ebd05a12329f4b05ab33b8e7818",
    "ir2": "a7c6d855e17291bb49cf3c9893542b4e4723efc2830180d4e919b747cd59f5fe",
    "mir2": "64fa9510e449f414d9e25e0fabc2cfd7afe59949922edbaa0e81eb2cd2b12648",
    "iio": "b8e6d96352addff68e7fbd670795a3299ae45a4cd4bc923654b91514055656b9",
    "sig": "e7e0fecde4f86fbadbf2003f5d414489b41679e833f7fadfc12ae7187cf0bbb6",
    "stree": "054d530ea5327edf9e43e9593a2dfe065a227fecaf5cacc330f77dd91c15f980",
    "auto": "654ec225c36750f9a157cb6b8d14a9c3e4bb883de1a096a0346d092ea346815d",
    "ir2x2": "fabf65026dc96ead8f19b2f0536295d590f6adb8b9133bfdffb347608534d0ef",
    "batched-ir2": "863e1cb3726d4da606feba45b2a57ec22d5b4ded4c604331a8591d481d29bfc0",
}


def pinned_engine(kind):
    if kind == "ir2x2":
        engine = ShardedEngine(n_shards=2, index="ir2", signature_bytes=8, workers=1)
        objects = make_objects()
        engine.add_all(objects[:150])
        engine.build()
        for obj in objects[150:]:
            engine.add(obj)
        for obj in objects[:150:10]:
            engine.delete(obj.oid)
        return engine
    return build_engine(kind, maintained=kind not in AS_BUILT)


def io_record(execution) -> tuple:
    io = execution.io
    return (
        io.random_reads,
        io.sequential_reads,
        io.random_writes,
        io.sequential_writes,
        io.objects_loaded,
        io.shared_reads,
        tuple((name, tuple(counts)) for name, counts in io.by_category.items()),
        execution.objects_inspected,
        execution.nodes_visited,
    )


def digest(executions) -> str:
    return hashlib.sha256(
        repr([io_record(execution) for execution in executions]).encode()
    ).hexdigest()


@pytest.mark.parametrize("kind", KINDS)
def test_per_query_io_is_pinned(kind):
    engine = pinned_engine(kind)
    try:
        executions = [engine.search(query) for query in query_batch(engine)]
    finally:
        if isinstance(engine, ShardedEngine):
            engine.close()
    assert digest(executions) == IO_SHA256[kind]


def test_batched_service_io_is_pinned():
    engine = build_engine("ir2")
    service = QueryService(
        engine, workers=1, cache=False, merge_threshold=None,
        batching=BatchConfig(max_batch=16),
    )
    with service:
        executions = service.run_batch(query_batch(engine))
    assert sum(execution.io.shared_reads for execution in executions) > 0
    assert digest(executions) == IO_SHA256["batched-ir2"]
