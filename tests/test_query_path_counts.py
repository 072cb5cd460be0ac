"""A served read pays each fixed cost once.

On the two-shard ``auto`` engine with keyword partitioning (perfbench
hot_planned's shape), over seeded point and area queries:

* ``ShardedEngine.search`` normalizes the keywords once
  (``Analyzer.query_terms``) and hands the terms to the routing, the
  planner and every searched shard;
* the planner decides once per searched shard and never for a pruned
  one, and no shard renders a plan record the merged answer discards;
* a synchronous ``QueryService.search`` that bypasses the batch
  scheduler runs on the calling thread, apart from the caller's I/O
  collectors and shared-read session, while ``submit`` still runs on a
  ``repro-query`` pool worker;
* ``RawCodec.decode`` decodes a postings list with one ``struct`` call
  and equals the per-pointer decode.
"""

from __future__ import annotations

import random
import struct
import sys
import threading

import pytest

from repro.bench.workloads import ConcurrentLoadGenerator
from repro.errors import SerializationError
from repro.plan.planner import PlanDecision, QueryPlanner
from repro.serve import QueryService
from repro.serve.scheduler import BatchConfig
from repro.storage.iostats import collecting_io
from repro.storage.sharedread import shared_read_session
from repro.text.analyzer import Analyzer
from repro.text.codecs import RawCodec
from tests.test_engine_image import build_engine, make_objects


@pytest.fixture(scope="module")
def engine():
    return build_engine("autox2kw", maintained=False)


@pytest.fixture(scope="module")
def queries(engine):
    workload = ConcurrentLoadGenerator(make_objects(), engine.analyzer, seed=17)
    return workload.mixed_batch(
        60, keyword_counts=(1, 2, 3), k=5, hot_fraction=0.0,
        area_fraction=0.3, ranked_fraction=0.0,
    )


def counting(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to count its calls; returns the call log."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_keyword_normalization_per_search(engine, queries, monkeypatch):
    calls = counting(monkeypatch, Analyzer, "query_terms")
    for query in queries:
        del calls[:]
        engine.search(query)
        assert len(calls) == 1


def test_one_decide_per_searched_shard_and_none_for_a_pruned_one(
    engine, queries, monkeypatch
):
    decides = counting(monkeypatch, QueryPlanner, "decide")
    rendered = counting(monkeypatch, PlanDecision, "as_dict")
    searched = pruned = 0
    for query in queries:
        del decides[:]
        execution = engine.search(query)
        reports = execution.shards
        planned = [r for r in reports if r["strategy"] is not None]
        assert len(decides) == len(planned)
        for report in reports:
            # A planned shard was searched; a pruned one was never planned.
            assert (report["strategy"] is not None) == (not report["pruned"])
        searched += len(planned)
        pruned += sum(1 for r in reports if r["pruned"])
        assert execution.plan["per_shard"] == {
            str(r["shard"]): r["strategy"] for r in planned
        }
    assert rendered == []
    assert searched > len(queries) / 2 and pruned > 0


def test_a_synchronous_read_runs_on_the_calling_thread(engine, queries):
    caller = threading.current_thread().name
    with QueryService(engine, workers=2, cache=False) as service:
        direct = service.search(queries[0])
        versioned = service.search(queries[1], at_version=service.engine_version)
        submitted = service.submit(queries[2]).result()
    assert direct.trace.worker == caller
    assert versioned.trace.worker == caller
    assert submitted.trace.worker.startswith("repro-query")


def test_a_synchronous_read_keeps_apart_from_the_callers_io_scope(
    engine, queries
):
    """On the caller's thread, a read still reports to no collector or
    shared-read session of the caller's: it costs its standalone reads,
    as it did on a pool thread."""
    query = queries[3]
    with QueryService(engine, workers=2, cache=False) as service:
        alone = service.search(query).io
        with collecting_io() as outer, shared_read_session():
            engine.search(query)  # fills the caller's session
            inside = service.search(query).io
    assert alone.total_reads > 0
    assert (inside.random_reads, inside.sequential_reads, inside.shared_reads) == (
        alone.random_reads, alone.sequential_reads, 0,
    )
    # The caller's collector saw only its own engine search.
    seen = outer.snapshot()
    assert seen.total_reads + seen.shared_reads == alone.total_reads


def test_a_batched_synchronous_read_still_goes_through_the_pool(engine, queries):
    with QueryService(
        engine, workers=2, cache=False, batching=BatchConfig(max_batch=4)
    ) as service:
        execution = service.search(queries[0])
    assert execution.trace.worker.startswith("repro-query")


def struct_unpacks(run) -> int:
    """Calls of any ``struct`` unpacking builtin while ``run()`` runs.

    Counted with a profile hook, so a precompiled ``struct.Struct`` and
    the module-level functions count alike.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call" and "unpack" in getattr(arg, "__name__", ""):
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_raw_decode_is_one_struct_call_equal_to_the_per_pointer_decode():
    codec = RawCodec()
    rng = random.Random(3)
    for count in (0, 1, 2, 7, 300):
        postings = sorted(rng.sample(range(2**32), count))
        data = codec.encode(postings) + b"\x00" * rng.randrange(3)
        decoded = []
        assert struct_unpacks(
            lambda: decoded.extend(codec.decode(data, count))
        ) <= 1
        assert decoded == postings == [
            struct.unpack_from("<I", data, 4 * i)[0] for i in range(count)
        ]
        if count:
            with pytest.raises(SerializationError):
                codec.decode(data[: 4 * count - 1], count)
