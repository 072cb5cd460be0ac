"""Batched execution: shared-work scheduling stays byte-faithful.

The batch front-end (:mod:`repro.serve.scheduler` + the shared-read
session in :mod:`repro.storage.sharedread`) must change *cost*, never
*answers*:

* batched answers are byte-identical to serial execution across every
  index kind and shard count (the differential harness's oracle);
* a batch of N overlapping queries issues strictly fewer device reads
  than N serial runs (sublinear growth — the whole point), while
  per-query attribution stays exact: real reads still sum to the device
  totals, and real + shared reads equal each query's standalone cost;
* coalesced duplicates get independent result copies (the PR 4
  cache-aliasing guarantee, extended to in-flight coalescing);
* admission control sheds with :class:`~repro.errors.ServiceOverloadError`
  and tracks the ``service.queue_depth`` gauge;
* batch groups appear in the hierarchical trace as a ``batch`` root
  with one ``query`` child per executed member.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.bench.workloads import WorkloadGenerator
from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.errors import ServiceError, ServiceOverloadError
from repro.obs.trace import QueryTracer
from repro.serve import (
    BatchConfig,
    BatchScheduler,
    EngineVersion,
    QueryService,
)
from repro.serve.scheduler import BatchMember
from repro.shard import ShardedEngine
from repro.storage.block import InMemoryBlockDevice
from repro.storage.sharedread import (
    SharedReadSession,
    activate_session,
    current_session,
)

from tests.test_differential import KINDS, corpus_objects

SHARD_COUNTS = (1, 2, 5)


@pytest.fixture(scope="module")
def world():
    """One small corpus, its workload, and serial ground truth."""
    objects = corpus_objects(150, seed=23)
    probe = SpatialKeywordEngine(index="ir2", signature_bytes=4)
    probe.add_all(objects)
    probe.build()
    workload = WorkloadGenerator(objects, probe.corpus.analyzer, seed=7)
    queries = workload.queries(24, num_keywords=2, k=8)
    return objects, queries


def _serial_answers(engine, queries):
    return [engine.search(query) for query in queries]


def _hold_searches(monkeypatch) -> threading.Event:
    """Park every engine search until the returned event is set.

    A dispatched group counts as in flight from the moment it is handed
    to the pool, so holding the searches keeps every worker busy and
    later submissions collect into the scheduler's open group.
    """
    release = threading.Event()
    search = EngineVersion.search

    def held(version, query):
        release.wait(10.0)
        return search(version, query)

    monkeypatch.setattr(EngineVersion, "search", held)
    return release


class TestBatchedEqualsSerial:
    """Differential: batched == serial for every engine flavor."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_all_index_kinds(self, world, kind):
        objects, queries = world
        engine = SpatialKeywordEngine(index=kind, signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        serial = _serial_answers(engine, queries)
        with QueryService(
            engine, workers=2, cache=False,
            batching=BatchConfig(max_batch=8),
        ) as service:
            batched = service.run_batch(queries)
        for s, b in zip(serial, batched):
            assert b.oids == s.oids, kind
            assert [r.distance for r in b.results] == [
                r.distance for r in s.results
            ], kind

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_sharded_engines(self, world, n_shards):
        objects, queries = world
        engine = ShardedEngine(n_shards=n_shards, index="ir2")
        engine.add_all(objects)
        engine.build()
        serial = _serial_answers(engine, queries)
        with QueryService(
            engine, workers=2, cache=False,
            batching=BatchConfig(max_batch=8),
        ) as service:
            batched = service.run_batch(queries)
        for s, b in zip(serial, batched):
            assert b.oids == s.oids
            assert [r.distance for r in b.results] == [
                r.distance for r in s.results
            ]


class TestSublinearReads:
    """Shared-read sessions make batch cost grow sublinearly."""

    def test_identical_queries_share_almost_everything(self, world):
        objects, queries = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        query = queries[0]
        alone = engine.search(query).io.total_reads
        assert alone > 0
        n = 8
        engine.reset_io()
        with QueryService(
            engine, workers=1, cache=False,
            batching=BatchConfig(max_batch=n, coalesce=False),
        ) as service:
            executions = service.run_batch(
                [SpatialKeywordQuery.of(query.point, query.keywords, query.k)
                 for _ in range(n)]
            )
        totals = engine.io_stats()
        # Sublinear: far fewer device reads than n serial runs — only the
        # first member touches the device, the rest hit the session.  The
        # session also dedupes the leader's own intra-query repeat reads,
        # so the device sees at most the query's unique block set.
        assert totals.total_reads < n * alone
        assert totals.total_reads <= alone
        # Attribution stays exact under sharing.
        assert sum(e.io.total_reads for e in executions) == totals.total_reads
        assert sum(e.io.shared_reads for e in executions) == totals.shared_reads
        # Each member's standalone cost is still reconstructible.
        for execution in executions:
            assert (
                execution.io.total_reads + execution.io.shared_reads == alone
            )

    def test_metered_batch_beats_serial_on_mixed_queries(self, world):
        """Deterministic: a mixed batch costs fewer device reads batched."""
        objects, queries = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        engine.reset_io()
        for query in queries:
            engine.search(query)
        serial_reads = engine.io_stats().total_reads
        engine.reset_io()
        with QueryService(
            engine, workers=1, cache=False,
            batching=BatchConfig(max_batch=len(queries)),
        ) as service:
            service.run_batch(queries)
        batched_reads = engine.io_stats().total_reads
        assert batched_reads < serial_reads

    def test_shared_reads_sum_to_device_totals(self, world):
        """Per-query deltas reconcile with the device under batching."""
        objects, queries = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        engine.reset_io()
        with QueryService(
            engine, workers=2, cache=False,
            batching=BatchConfig(max_batch=6),
        ) as service:
            executions = service.run_batch(queries)
            stats = service.stats()
        totals = engine.io_stats()
        assert sum(e.io.total_reads for e in executions) == totals.total_reads
        assert (
            sum(e.io.random_reads for e in executions) == totals.random_reads
        )
        assert (
            sum(e.io.sequential_reads for e in executions)
            == totals.sequential_reads
        )
        assert (
            sum(e.io.shared_reads for e in executions) == totals.shared_reads
        )
        assert stats.io.total_reads == totals.total_reads
        assert stats.io.shared_reads == totals.shared_reads
        assert stats.batches >= 1


class TestCoalescing:
    """Duplicate in-flight queries collapse onto one execution."""

    @pytest.fixture()
    def service(self, world):
        objects, _ = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        with QueryService(
            engine, workers=1, cache=False,
            batching=BatchConfig(max_batch=16),
        ) as service:
            yield service

    def test_duplicates_coalesce_onto_one_execution(self, world, service):
        _, queries = world
        query = queries[0]
        duplicates = [
            SpatialKeywordQuery.of(query.point, query.keywords, query.k)
            for _ in range(4)
        ]
        executions = service.run_batch(duplicates)
        stats = service.stats()
        assert stats.coalesced == 3
        assert stats.queries == 4
        leader, followers = executions[0], executions[1:]
        for follower in followers:
            assert follower.oids == leader.oids
            # The rider executed nothing: its own I/O delta is zero.
            assert follower.io.total_reads == 0
            assert follower.trace.cache == "coalesced"
            assert follower.trace.batch_id == leader.trace.batch_id

    def test_followers_get_independent_result_copies(self, world, service):
        """Regression (PR 4 aliasing, extended): one caller mutating a
        coalesced answer must never reach another caller's copy."""
        _, queries = world
        query = queries[0]
        duplicates = [
            SpatialKeywordQuery.of(query.point, query.keywords, query.k)
            for _ in range(3)
        ]
        first, second, third = service.run_batch(duplicates)
        assert first.results[0] is not second.results[0]
        assert second.results[0] is not third.results[0]
        original = first.results[0].distance
        second.results[0].distance = -1.0
        second.results.clear()
        assert first.results[0].distance == original
        assert third.results[0].distance == original
        assert first.results and third.results

    def test_distinct_queries_do_not_coalesce(self, world, service):
        _, queries = world
        service.run_batch(queries[:4])
        assert service.stats().coalesced == 0


class TestAdmissionControl:
    """Bounded queue: shed beyond max_pending, track the depth gauge."""

    @pytest.fixture()
    def engine(self, world):
        objects, _ = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        return engine

    def test_shed_beyond_max_pending(self, engine, world, monkeypatch):
        _, queries = world
        release = _hold_searches(monkeypatch)
        with QueryService(
            engine, workers=1, cache=False,
            batching=BatchConfig(window_ms=50.0, max_batch=64, max_pending=3),
        ) as service:
            futures = [service.submit(q) for q in queries[:3]]
            assert service.queue_depth == 3
            with pytest.raises(ServiceOverloadError) as excinfo:
                service.submit(queries[3])
            assert excinfo.value.pending == 3
            assert excinfo.value.max_pending == 3
            release.set()
            for future in futures:
                future.result()
            stats = service.stats()
            assert stats.shed == 1
            assert service.queue_depth == 0
            gauges = stats.metrics["gauges"]
            assert gauges["service.queue_depth"] == 0
            assert stats.metrics["counters"]["service.shed"] == 1
            # Depth drained: the service admits again.
            assert service.submit(queries[3]).result().oids is not None

    def test_submit_many_sheds_all_or_nothing(self, engine, world):
        _, queries = world
        with QueryService(
            engine, workers=1, cache=False,
            batching=BatchConfig(window_ms=50.0, max_batch=64, max_pending=4),
        ) as service:
            first = service.submit(queries[0])
            with pytest.raises(ServiceOverloadError):
                service.submit_many(queries[1:6])  # 1 + 5 > 4
            first.result()
            # The refused batch claimed nothing: once the first drains,
            # a full batch of 4 still fits.
            futures = service.submit_many(queries[1:5])
            assert len(futures) == 4
            for future in futures:
                future.result()

    def test_depth_counts_unbatched_backlog(self, engine, world, monkeypatch):
        """Direct submissions share the admission bookkeeping."""
        _, queries = world
        release = threading.Event()
        search = EngineVersion.search

        def held(version, query):
            release.wait(10.0)
            return search(version, query)

        monkeypatch.setattr(EngineVersion, "search", held)
        with QueryService(engine, workers=1, cache=False) as service:
            futures = [service.submit(q) for q in queries[:3]]
            assert service.queue_depth == 3
            release.set()
            for future in futures:
                future.result()
            assert service.queue_depth == 0
            stats = service.stats()
            assert stats.metrics["gauges"]["service.queue_depth"] == 0
            assert stats.batches == 0
            assert "service.batches" not in stats.metrics["counters"]

    def test_unbounded_by_default(self, engine, world):
        _, queries = world
        with QueryService(
            engine, workers=1, cache=False, batching=True,
        ) as service:
            executions = service.run_batch(queries)
            assert len(executions) == len(queries)
            assert service.stats().shed == 0


class TestBatchTracing:
    """Batch groups land in the span tree: batch root → member queries."""

    def test_batch_trace_tree(self, world):
        objects, queries = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        tracer = QueryTracer(sample_every=1)
        with QueryService(
            engine, workers=1, cache=False, tracer=tracer,
            batching=BatchConfig(max_batch=4, coalesce=False),
        ) as service:
            service.run_batch(queries[:4])
        traces = [
            t for t in tracer.traces()
            if t.root is not None and t.root.name == "batch"
        ]
        assert traces
        trace = traces[0]
        root = trace.root
        assert root.category == "batch"
        assert root.attrs["batch_size"] == 4
        assert "shared_reads" in root.attrs
        members = [
            span for span in trace.spans
            if span.parent_id == root.span_id and span.name == "query"
        ]
        assert len(members) == 4
        # Member spans carry disjoint intervals on the batch lane.
        members.sort(key=lambda span: span.start)
        for earlier, later in zip(members, members[1:]):
            assert earlier.end is not None
            assert earlier.end <= later.start + 1e-9
        # The flat spans link back via trace_id and batch_id.
        spans = [s for s in service.trace_spans() if s.batch_id is not None]
        assert spans
        assert all(s.trace_id == trace.trace_id for s in spans)

    def test_flat_spans_carry_batch_fields(self, world):
        objects, queries = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        with QueryService(
            engine, workers=1, cache=False,
            batching=BatchConfig(max_batch=8),
        ) as service:
            service.run_batch(queries[:8])
            span = service.trace_spans()[0]
        payload = span.as_dict()
        assert payload["batch_id"] is not None
        assert "shared_reads" in payload


class TestWindowGrouping:
    """The submit path: submissions group without submit_many."""

    def test_window_groups_submissions(self, world, monkeypatch):
        objects, queries = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        release = _hold_searches(monkeypatch)
        with QueryService(
            engine, workers=1, cache=False,
            batching=BatchConfig(window_ms=10_000.0, max_batch=16),
        ) as service:
            futures = [service.submit(query) for query in queries[:5]]
            release.set()
            executions = [future.result() for future in futures]
        stats = service.stats()  # after close: every group accounted
        assert stats.queries == 5
        # The first query took the idle worker; the other four arrived
        # while it was busy and waited in one group: two groups, far
        # fewer than five.
        assert 1 <= stats.batches <= 2
        batch_ids = {e.trace.batch_id for e in executions}
        assert len(batch_ids) == stats.batches

    def test_max_batch_flushes_early(self, world, monkeypatch):
        objects, queries = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        release = _hold_searches(monkeypatch)
        with QueryService(
            engine, workers=2, cache=False,
            batching=BatchConfig(window_ms=10_000.0, max_batch=2,
                                 coalesce=False),
        ) as service:
            # Two held queries occupy both workers ...
            held = [service.submit(query) for query in queries[4:6]]
            # ... so these four wait, and max_batch seals them in pairs.
            futures = [service.submit(query) for query in queries[:4]]
            release.set()
            for future in held:
                future.result()
            executions = [future.result() for future in futures]
        # Without the max_batch seal the four would run as one group;
        # the cap splits them into two pairs, neither of which waits out
        # the 10 s window.
        assert service.stats().batches == len(held) + 2
        batch_ids = [e.trace.batch_id for e in executions]
        assert batch_ids[0] == batch_ids[1] != batch_ids[2] == batch_ids[3]

    def test_close_flushes_the_open_window(self, world):
        objects, queries = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        service = QueryService(
            engine, workers=1, cache=False,
            batching=BatchConfig(window_ms=10_000.0, max_batch=64),
        )
        future = service.submit(queries[0])
        service.close()
        assert future.result().oids  # resolved by the close-time flush


class TestSchedulerUnit:
    """BatchScheduler in isolation, with a recording dispatch."""

    @staticmethod
    def _member(query):
        from concurrent.futures import Future

        return BatchMember(query, Future(), 0, time.perf_counter())

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            BatchConfig(window_ms=-1.0)
        with pytest.raises(ServiceError):
            BatchConfig(max_batch=0)
        with pytest.raises(ServiceError):
            BatchConfig(max_pending=0)

    def test_submit_group_chunks_by_max_batch(self, world):
        _, queries = world
        groups = []
        scheduler = BatchScheduler(
            BatchConfig(max_batch=3, coalesce=False), groups.append
        )
        scheduler.submit_group([self._member(q) for q in queries[:8]])
        assert [len(g.members) for g in groups] == [3, 3, 2]
        assert [g.batch_id for g in groups] == [0, 1, 2]

    def test_explicit_batch_never_merges_with_window_traffic(self, world):
        _, queries = world
        groups = []
        scheduler = BatchScheduler(
            BatchConfig(window_ms=10_000.0, max_batch=64), groups.append
        )
        scheduler.submit(self._member(queries[0]))
        scheduler.submit_group([self._member(q) for q in queries[1:4]])
        assert len(groups) == 2
        assert len(groups[0].members) == 1  # the ambient window, alone
        assert len(groups[1].members) == 3
        scheduler.close()

    def test_closed_scheduler_refuses(self, world):
        _, queries = world
        scheduler = BatchScheduler(BatchConfig(), lambda group: None)
        scheduler.close()
        with pytest.raises(ServiceError, match="closed"):
            scheduler.submit(self._member(queries[0]))

    def test_idle_worker_dispatches_before_submit_returns(self, world):
        _, queries = world
        groups = []
        scheduler = BatchScheduler(
            BatchConfig(window_ms=10_000.0, max_batch=64), groups.append,
            workers=2,
        )
        threads = threading.active_count()
        scheduler.submit(self._member(queries[0]))
        assert [len(g.members) for g in groups] == [1]
        scheduler.submit(self._member(queries[1]))
        assert [len(g.members) for g in groups] == [1, 1]
        # No timer, no per-group thread.
        assert threading.active_count() == threads
        # Both workers busy: the next submission waits in the open group
        # until a finishing group hands it to the freed worker.
        scheduler.submit(self._member(queries[2]))
        assert len(groups) == 2
        scheduler.done()
        assert len(groups) == 3
        assert groups[2].members[0].query is queries[2]
        assert groups[2].batch_id == 2
        assert threading.active_count() == threads

    def test_open_group_ages_out_lazily(self, world):
        _, queries = world
        groups = []
        scheduler = BatchScheduler(
            BatchConfig(window_ms=10.0, max_batch=64, coalesce=False),
            groups.append, workers=1,
        )

        def member(query, at):
            return BatchMember(query, None, 0, at)

        scheduler.submit(member(queries[0], 0.0))  # takes the worker
        scheduler.submit(member(queries[1], 1.000))
        scheduler.submit(member(queries[2], 1.009))
        assert len(groups) == 1
        # 10 ms after the open group's first member: that group is
        # sealed, and the newcomer opens a fresh one.
        scheduler.submit(member(queries[3], 1.010))
        assert [len(g.members) for g in groups] == [1, 2]
        scheduler.done()  # the sealed group still holds the worker
        assert len(groups) == 2
        scheduler.done()
        assert [len(g.members) for g in groups] == [1, 2, 1]
        assert groups[2].members[0].query is queries[3]

    def test_close_dispatches_the_open_group(self, world):
        _, queries = world
        groups = []
        scheduler = BatchScheduler(
            BatchConfig(window_ms=10_000.0, max_batch=64, coalesce=False),
            groups.append, workers=1,
        )
        scheduler.submit(self._member(queries[0]))
        scheduler.submit(self._member(queries[1]))
        scheduler.submit(self._member(queries[2]))
        assert len(groups) == 1
        scheduler.close()
        assert [len(g.members) for g in groups] == [1, 2]


class TestWorkConserving:
    """Groups form only while every worker is busy; slots never leak."""

    @pytest.fixture()
    def engine(self, world):
        objects, _ = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        return engine

    def test_busy_worker_collects_one_group(self, engine, world, monkeypatch):
        _, queries = world
        release = _hold_searches(monkeypatch)
        with QueryService(
            engine, workers=1, cache=False,
            batching=BatchConfig(window_ms=10_000.0, max_batch=8,
                                 coalesce=False),
        ) as service:
            first = service.submit(queries[0])  # takes the idle worker
            waiting = [service.submit(q) for q in queries[1:7]]
            release.set()
            lone = first.result()
            executions = [future.result() for future in waiting]
        stats = service.stats()
        assert lone.trace.batch_id is not None  # a group of one, batched
        assert len({e.trace.batch_id for e in executions}) == 1
        assert executions[0].trace.batch_id != lone.trace.batch_id
        assert stats.batches == 2
        sizes = stats.metrics["histograms"]["service.batch.size"]
        assert sizes["count"] == 2
        assert sizes["sum"] == 7
        for execution, query in zip(executions, queries[1:7]):
            assert execution.oids == engine.search(query).oids

    def test_closed_loop_beyond_workers_batches(self, engine, world,
                                                monkeypatch):
        _, queries = world
        search = EngineVersion.search

        def slow(version, query):
            time.sleep(0.002)  # keep the workers busy off the GIL
            return search(version, query)

        monkeypatch.setattr(EngineVersion, "search", slow)
        with QueryService(
            engine, workers=2, cache=False, batching=BatchConfig(),
        ) as service:

            def client(offset):
                for query in queries[offset:] + queries[:offset]:
                    service.search(query)

            clients = [
                threading.Thread(target=client, args=(i,)) for i in range(6)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in clients)
        stats = service.stats()
        assert stats.queries == 6 * len(queries)
        sizes = stats.metrics["histograms"]["service.batch.size"]
        assert sizes["sum"] == stats.queries
        assert sizes["sum"] / sizes["count"] > 1.0

    def test_in_flight_count_survives_contention(self, engine, world):
        _, queries = world
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(
                engine, workers=3, cache=False,
                batching=BatchConfig(max_batch=4),
            ) as service:

                def client(offset):
                    futures = [
                        service.submit(q)
                        for q in queries[offset:] + queries[:offset]
                    ]
                    for future in futures:
                        future.result(30.0)

                clients = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(6)
                ]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(30.0)
                assert not any(thread.is_alive() for thread in clients)
                scheduler = service._scheduler
            stats = service.stats()
        finally:
            sys.setswitchinterval(interval)
        # Every group released its slot exactly once.
        assert scheduler._in_flight == 0
        assert stats.queries == 6 * len(queries)
        sizes = stats.metrics["histograms"]["service.batch.size"]
        assert sizes["sum"] == stats.queries

    def test_group_failure_outside_engine_frees_its_slot(
        self, engine, world
    ):
        _, queries = world

        class FailingLog:
            def __init__(self):
                self.calls = 0

            def offer(self, span):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("log down")

        log = FailingLog()
        with QueryService(
            engine, workers=1, cache=False, query_log=log,
            batching=BatchConfig(window_ms=10_000.0),
        ) as service:
            service.submit(queries[0]).exception(10.0)
            # One worker: had the raising group kept its slot, these
            # would wait in the open group forever.
            for query in queries[1:4]:
                execution = service.submit(query).result(10.0)
                assert execution.oids == engine.search(query).oids
        assert log.calls == 4

    def test_refused_dispatch_frees_its_slot(self, engine, world):
        _, queries = world
        service = QueryService(
            engine, workers=1, cache=False, batching=True,
        )
        service._pool.shutdown()
        future = service.submit(queries[0])
        with pytest.raises(ServiceError, match="closed"):
            future.result(10.0)
        assert service._scheduler._in_flight == 0
        service.close()


class TestSharedReadSession:
    """The storage-layer session: scoping, hits, and head neutrality."""

    def test_session_stack_is_thread_local(self):
        session = SharedReadSession()
        seen = {}
        with activate_session(session):
            assert current_session() is session

            def probe():
                seen["other"] = current_session()

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["other"] is None
        assert current_session() is None

    def test_shared_hits_do_not_move_the_head(self):
        """A session hit must not change random/sequential classification
        of the real reads around it — that would alter paper-metric I/O
        counts.  Read 0,1,2 (one random, two sequential), then re-read 1
        (a session hit) and read 3: block 3 must still classify as
        sequential after 2, as if the hit never happened."""
        device = InMemoryBlockDevice(block_size=64)
        for block_id in range(4):
            device.write_block(block_id, bytes([block_id]) * 8)
        device.stats.reset()
        with activate_session(SharedReadSession()):
            for block_id in (0, 1, 2):
                device.read_block(block_id)
            assert device.stats.random_reads == 1
            assert device.stats.sequential_reads == 2
            device.read_block(1)  # session hit: no device I/O, no head move
            assert device.stats.shared_reads == 1
            assert device.stats.snapshot().total_reads == 3
            device.read_block(3)
            assert device.stats.sequential_reads == 3  # 3 follows 2
            assert device.stats.random_reads == 1

    def test_session_reconstructs_standalone_cost(self, world):
        """real + shared reads always equal the standalone access count."""
        objects, queries = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        query = queries[0]
        baseline = engine.search(query)
        with activate_session(SharedReadSession()):
            first = engine.search(query)
            second = engine.search(query)
        assert first.oids == baseline.oids == second.oids
        # The session dedupes even intra-query repeats, but every access
        # still lands in the per-query delta as real or shared.
        assert (
            first.io.total_reads + first.io.shared_reads
            == baseline.io.total_reads
        )
        assert second.io.total_reads == 0
        assert second.io.shared_reads == baseline.io.total_reads

    def test_engine_search_many_shares_one_session(self, world):
        objects, queries = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        serial = [engine.search(q) for q in queries[:6]]
        engine.reset_io()
        batched = engine.search_many(queries[:6])
        totals = engine.io_stats()
        for s, b in zip(serial, batched):
            assert b.oids == s.oids
        assert totals.shared_reads > 0
        assert sum(e.io.total_reads for e in batched) == totals.total_reads

    @pytest.mark.parametrize("n_shards", (2, 5))
    def test_sharded_search_many_propagates_session(self, world, n_shards):
        """One session covers every shard each query searches."""
        objects, queries = world
        engine = ShardedEngine(n_shards=n_shards, index="ir2")
        engine.add_all(objects)
        engine.build()
        serial = [engine.search(q) for q in queries[:6]]
        engine.reset_io()
        batched = engine.search_many(queries[:6])
        totals = engine.io_stats()
        for s, b in zip(serial, batched):
            assert b.oids == s.oids
        assert totals.shared_reads > 0

    # -- A bounded session: the per-device LRU block cache (ablation A3);
    # hits, misses, eviction and partly cached extents: tests/test_cache.py --

    @staticmethod
    def _device(n_blocks: int) -> InMemoryBlockDevice:
        """``n_blocks`` 8-byte blocks holding ``bytes(range(8 * n_blocks))``."""
        device = InMemoryBlockDevice(block_size=8)
        device.write_extent(0, bytes(range(8 * n_blocks)))
        device.stats.reset()
        return device

    def test_a_hit_refreshes_recency(self):
        device = self._device(3)
        with activate_session(SharedReadSession(capacity_blocks=2)):
            device.read_block(0)
            device.read_block(1)
            device.read_block(0)  # a hit: 0 becomes the most recent
            device.read_block(2)  # evicts 1, not 0
            device.read_block(0)
            assert device.stats.snapshot().total_reads == 3
            device.read_block(1)
            assert device.stats.snapshot().total_reads == 4
        assert device.stats.shared_reads == 2

    def test_an_extent_evicts_in_block_order(self):
        device = self._device(3)
        session = SharedReadSession(capacity_blocks=2)
        with activate_session(session):
            device.read_block(1)
            device.read_block(2)
            device.stats.reset()
            # Storing 0 evicts 1, and storing 1 evicts 2, each before the
            # block is looked up, exactly as three single-block reads would.
            assert device.read_extent(0, 3) == bytes(range(24))
        assert (session.hits, session.misses) == (0, 2 + 3)
        assert device.stats.random_reads == 1
        assert device.stats.sequential_reads == 2

    def test_a_bounded_session_keeps_at_least_one_block(self):
        with pytest.raises(ValueError):
            SharedReadSession(capacity_blocks=0)

    def test_threads_sharing_a_bounded_session_stay_consistent(self):
        block_size, n_blocks, n_threads, reads_each = 256, 48, 8, 400
        expected = [bytes([block]) * block_size for block in range(n_blocks)]
        device = InMemoryBlockDevice(block_size=block_size)
        device.write_extent(0, b"".join(expected))
        device.stats.reset()
        session = SharedReadSession(capacity_blocks=8)
        blocks_read = [0] * n_threads
        torn: list[int] = []

        def reader(number: int) -> None:
            rng = random.Random(number)
            with activate_session(session):
                for _ in range(reads_each):
                    count = rng.randint(1, 3)
                    start = rng.randrange(n_blocks - count + 1)
                    data = device.read_extent(start, count)
                    if data != b"".join(expected[start : start + count]):
                        torn.append(start)
                    blocks_read[number] += count

        threads = [threading.Thread(target=reader, args=(n,)) for n in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert torn == []
        assert session.hits + session.misses == sum(blocks_read)
        assert session.misses == device.stats.snapshot().total_reads
        assert session.hits == device.stats.shared_reads > 0
        assert len(session) <= 8


class TestBatchedErrorIsolation:
    """One failing member must not poison the rest of its group."""

    def test_member_failure_is_isolated(self, world):
        objects, queries = world
        engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
        engine.add_all(objects)
        engine.build()
        boom = SpatialKeywordQuery.of((0.0, 0.0), ("cafe",), 3)
        original_search = engine.search

        def flaky_search(query):
            if query is boom:
                raise RuntimeError("injected")
            return original_search(query)

        engine.search = flaky_search
        try:
            with QueryService(
                engine, workers=1, cache=False, retries=0,
                batching=BatchConfig(max_batch=4, coalesce=False),
            ) as service:
                futures = service.submit_many(
                    [queries[0], boom, queries[1]]
                )
                assert futures[0].result().oids == (
                    _serial_answers(engine, [queries[0]])[0].oids
                )
                with pytest.raises(RuntimeError, match="injected"):
                    futures[1].result()
                assert futures[2].result().oids
                stats = service.stats()
                assert stats.errors == 1
                assert stats.queries == 2
        finally:
            engine.search = original_search


def _documented_metric_patterns(path) -> list:
    """Regexes for the names in the first column of ``path``'s metric
    table: ``a.b`` / ``.c`` names the sibling ``a.c``, ``{x,y}``
    expands, and ``<i>`` stands for one name component."""
    import re

    section = path.read_text(encoding="utf-8").split("## Metrics", 1)[1]
    patterns = []
    for line in section.split("\n## ", 1)[0].splitlines():
        if not line.startswith("| `"):
            continue
        previous = None
        for token in re.findall(r"`([^`]+)`", line.split("|")[1]):
            if token.startswith("."):
                token = previous.rsplit(".", token.count("."))[0] + token
            previous = token
            braces = re.search(r"\{([^}]*)\}", token)
            parts = braces.group(1).split(",") if braces else [""]
            for part in parts:
                name = (
                    token[:braces.start()] + part + token[braces.end():]
                    if braces else token
                )
                patterns.append(
                    re.compile(re.sub(r"<[^>]+>", "[^.]+", re.escape(name)))
                )
    return patterns


def _serve_each_outcome(world, metrics=None) -> QueryService:
    """One service through a miss, a rider, a hit, a shed batch and a
    transient failure with a rider; its trace log keeps one span, so
    the others are dropped.  Returns the closed service."""
    from repro.errors import TransientDeviceError

    objects, queries = world
    engine = SpatialKeywordEngine(index="ir2", signature_bytes=4)
    engine.add_all(objects)
    engine.build()
    boom = queries[1]
    original_search = engine.search

    def flaky_search(query, *args, **kwargs):
        if query.keywords == boom.keywords and query.point == boom.point:
            raise TransientDeviceError("injected transient fault")
        return original_search(query, *args, **kwargs)

    engine.search = flaky_search
    with QueryService(
        engine, workers=1, retries=2, retry_backoff_s=0.0, trace_capacity=1,
        metrics=metrics, batching=BatchConfig(max_batch=16, max_pending=4),
    ) as service:
        same = [
            SpatialKeywordQuery.of(queries[0].point, queries[0].keywords,
                                   queries[0].k)
            for _ in range(2)
        ]
        miss, rider = service.run_batch(same)  # a miss and a rider
        assert rider.trace.cache == "coalesced"
        hit = service.search(queries[0])
        assert hit.trace.cache == "hit"
        with pytest.raises(ServiceOverloadError):
            service.submit_many(queries[2:7])  # 5 > max_pending
        failing = service.submit_many([boom, boom])  # leader + rider
        for future in failing:
            with pytest.raises(TransientDeviceError):
                future.result()
    return service


class TestStatsReadTheMetrics:
    """ServiceStats is a view of the registry: every field equals the
    metric counting the same event, failed executions included."""

    @pytest.fixture()
    def stats(self, world):
        return _serve_each_outcome(world).stats()

    def test_every_field_equals_its_metric(self, stats):
        counters = stats.metrics["counters"]
        histograms = stats.metrics["histograms"]
        fields = {
            "retries": stats.retries,
            "queries": stats.queries,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "coalesced": stats.coalesced,
            "errors": stats.errors,
            "degraded": stats.degraded,
            "batches": stats.batches,
            "shed": stats.shed,
            "random_reads": stats.io.random_reads,
            "sequential_reads": stats.io.sequential_reads,
            "shared_reads": stats.io.shared_reads,
            "objects_loaded": stats.io.objects_loaded,
            "queue_wait_ms_total": stats.queue_wait_ms_total,
            "search_ms_total": stats.search_ms_total,
        }
        metrics = {
            "retries": counters.get("service.retries", 0),
            "queries": counters.get("service.queries", 0),
            "cache_hits": counters.get("service.cache.hit", 0),
            "cache_misses": counters.get("service.cache.miss", 0),
            "coalesced": counters.get("service.cache.coalesced", 0),
            "errors": counters.get("service.errors", 0),
            "degraded": counters.get("service.degraded", 0),
            "batches": counters.get("service.batches", 0),
            "shed": counters.get("service.shed", 0),
            **{
                name: counters.get(f"service.io.{name}", 0)
                for name in (
                    "random_reads", "sequential_reads", "shared_reads",
                    "objects_loaded",
                )
            },
            "queue_wait_ms_total": histograms["service.queue_wait_ms"]["sum"],
            "search_ms_total": histograms["service.search_ms"]["sum"],
        }
        assert fields == metrics
        # The failed query's two retries, its rider's error, the shed
        # submissions and the one hit and one rider all reached both.
        assert (stats.retries, stats.errors, stats.shed) == (2, 2, 5)
        assert (stats.queries, stats.cache_hits, stats.coalesced) == (3, 1, 1)
        assert stats.cache_misses == 1 and stats.batches == 3
        assert stats.io.total_reads > 0

    def test_every_service_metric_is_documented(self, stats):
        from pathlib import Path

        doc = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"
        patterns = _documented_metric_patterns(doc)
        emitted = [
            name
            for kind in ("counters", "gauges", "histograms")
            for name in stats.metrics[kind]
            if name.startswith("service.")
        ]
        assert "service.io.random_reads" in emitted
        undocumented = [
            name for name in emitted
            if not any(pattern.fullmatch(name) for pattern in patterns)
        ]
        assert undocumented == []

    def test_every_documented_service_metric_is_emitted(self, world):
        """The other half of the catalogue: a documented ``service.*``
        metric that no outcome emits is stale documentation."""
        from pathlib import Path

        from repro.obs import MetricsRegistry
        from repro.shard import PARTIAL, ShardedEngine
        from repro.storage import inject_engine_faults

        registry = MetricsRegistry()
        _serve_each_outcome(world, metrics=registry)
        # A cache-less service answers partially over failing shards.
        objects, queries = world
        sharded = ShardedEngine(
            n_shards=2, index="ir2", signature_bytes=4,
            retries=0, failure_policy=PARTIAL,
        )
        sharded.add_all(objects)
        sharded.build()
        for shard in sharded.shards:
            inject_engine_faults(shard, read_error_rate=1.0)
        with QueryService(
            sharded, workers=1, cache=False, metrics=registry,
        ) as service:
            assert service.search(queries[0]).degraded
        snapshot = registry.snapshot()
        emitted = [
            name
            for kind in ("counters", "gauges", "histograms")
            for name in snapshot[kind]
        ]
        doc = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"
        documented = [
            pattern for pattern in _documented_metric_patterns(doc)
            if pattern.pattern.startswith(r"service\.")
        ]
        assert len(documented) >= 20
        missing = [
            pattern.pattern for pattern in documented
            if not any(pattern.fullmatch(name) for name in emitted)
        ]
        assert missing == []

    @pytest.fixture()
    def fleet(self, world):
        return _serve_sharded_outcomes(world)

    def test_planner_and_shard_metrics_count_the_fan_out(self, fleet):
        """The ``planner.*`` and ``shard.*`` counters equal what the
        executions' shard reports show: one plan lookup per planned
        shard visit, one observation per shard execution, and every
        per-shard family summing to its fleet-wide counter."""
        snapshot, executions = fleet
        counters = snapshot["counters"]
        reports = [report for e in executions for report in e.shards]
        planned = [r for r in reports if r["strategy"] is not None]
        executed = [r for r in planned if r["strategy"] == "iio"]
        assert planned and executed and len(executed) < len(planned)

        def total(prefix):
            return sum(v for k, v in counters.items() if k.startswith(prefix))

        # One decide per planned visit: the shard's search runs the
        # fan-out's decision instead of looking it up again.
        assert (
            counters.get("planner.cache.hits", 0)
            + counters.get("planner.cache.misses", 0)
        ) == len(planned)
        # A streamed visit has no execution cost to observe.
        assert counters["planner.queries"] == len(executed)
        assert total("planner.chosen.") == len(executed)
        assert total("planner.won.") + total("planner.lost.") == len(executed)
        assert counters["planner.chosen.iio"] == len(executed)

        searched = [r for r in reports if not r["pruned"]]
        want = {
            "queries": len(executions),
            "searched": len(searched),
            "pruned": sum(1 for r in reports if r["pruned"]),
            "pruned_by_keywords": sum(
                1 for r in reports if r["pruned_by_keywords"]
            ),
            "failed": sum(1 for r in reports if r["failed"]),
            "retried": sum(r["retries"] for r in reports),
            "offers": sum(r["results_offered"] for r in reports),
        }
        got = {
            outcome: counters.get(f"shard.fanout.{outcome}", 0)
            for outcome in want
        }
        assert got == want
        assert want["pruned_by_keywords"] > 0
        assert want["failed"] > 0 and want["retried"] > 0
        for outcome in want:
            if outcome == "queries":
                continue
            per_shard = sum(
                counters.get(f"shard.{shard}.{outcome}", 0) for shard in (0, 1)
            )
            assert per_shard == want[outcome], outcome

    def test_planner_and_shard_metrics_match_the_catalogue(self, fleet):
        """Every emitted ``planner.*`` / ``shard.*`` name is documented,
        and every documented one is emitted."""
        from pathlib import Path

        snapshot, _ = fleet
        doc = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"
        families = (r"planner\.", r"shard\.")
        documented = [
            pattern for pattern in _documented_metric_patterns(doc)
            if pattern.pattern.startswith(families)
        ]
        emitted = [
            name
            for kind in ("counters", "gauges", "histograms")
            for name in snapshot[kind]
            if name.startswith(("planner.", "shard."))
        ]
        undocumented = [
            name for name in emitted
            if not any(pattern.fullmatch(name) for pattern in documented)
        ]
        missing = [
            pattern.pattern for pattern in documented
            if not any(pattern.fullmatch(name) for name in emitted)
        ]
        assert (undocumented, missing) == ([], [])


def _serve_sharded_outcomes(world):
    """Serve the world's queries, four of them twice and three of the
    streamed ones again forced onto ``iio``, on a two-shard
    keyword-partitioned ``auto`` engine, then one query on a two-shard ``ir2`` engine whose
    first shard fails every read transiently (one retry, then a partial
    answer).  Both services share one registry; returns its snapshot
    and the executions."""
    from repro.obs import MetricsRegistry
    from repro.shard import PARTIAL
    from repro.storage import inject_engine_faults

    objects, queries = world
    routed = ShardedEngine(
        n_shards=2, index="auto", partitioner="keyword", signature_bytes=4,
    )
    routed.add_all(objects)
    routed.build()
    flaky = ShardedEngine(
        n_shards=2, index="ir2", signature_bytes=4,
        retries=1, retry_backoff_s=0.0, failure_policy=PARTIAL,
    )
    flaky.add_all(objects)
    flaky.build()
    inject_engine_faults(flaky.shards[0], read_error_rate=1.0, transient=True)
    registry = MetricsRegistry()
    with QueryService(routed, workers=1, cache=False, metrics=registry) as service:
        # The repeats hit the plan cache (the result cache is off).
        executions = [service.search(query) for query in queries + queries[:4]]
        # Forced onto the inverted index, a query the planner streamed
        # from the IR2-tree loses to the tree's estimate.
        streamed = [
            execution.query for execution in executions
            if any(r["strategy"] == "ir2" for r in execution.shards)
        ]
        for shard in routed.shards:
            shard.index.planner.force = "iio"
        executions += [service.search(query) for query in streamed[:3]]
    with QueryService(flaky, workers=1, cache=False, metrics=registry) as service:
        executions.append(service.search(queries[0]))
    assert executions[-1].degraded
    return registry.snapshot(), executions
