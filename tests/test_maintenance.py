"""Snapshot (copy-on-write) index maintenance: versions, buffers, merges.

Covers the PR-8 maintenance redesign end to end:

* :class:`~repro.serve.WriteBuffer` — epoch composition, insert/delete
  interleaving, masking semantics;
* :class:`~repro.serve.EngineVersion` — overlay search answers are
  byte-identical to a freshly built engine over the same live objects;
* :class:`~repro.serve.SnapshotMaintainer` — publication, background
  merges at the threshold, merge-failure recovery (no write ever lost),
  readers never blocking while a merge is in flight;
* :class:`~repro.serve.QueryService` — read-your-writes, per-version
  cache stamping, batch version pinning, and mid-merge persistence;
* the no-op-mutation regressions (deletes of absent oids must not touch
  the result cache, the planner statistics version, or the plan cache);
* :class:`~repro.plan.stats.DensityGrid` exact accounting (underflow is
  an error, ``total == sum(counts)`` always).
"""

from __future__ import annotations

import threading

import pytest

from dataclasses import replace

from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.core.ranking import LinearRanking
from repro.core.search import brute_force_top_k
from repro.core.search_general import brute_force_ranked
from repro.errors import QueryError
from repro.model import SpatialObject
from repro.persist import load_engine
from repro.plan.stats import DensityGrid
from repro.serve import (
    BatchConfig,
    EngineVersion,
    QueryResultCache,
    QueryService,
    SnapshotMaintainer,
    WriteBuffer,
)
from repro.shard import ShardedEngine
from repro.spatial.geometry import Rect

TEXTS = ("cafe wifi", "cafe garden", "museum wifi", "pool garden",
         "cafe museum", "wifi pool")


def make_objects(n: int, start: int = 0) -> list[SpatialObject]:
    return [
        SpatialObject(
            start + i,
            (float((start + i) % 7), float((start + i) % 5)),
            TEXTS[(start + i) % len(TEXTS)],
        )
        for i in range(n)
    ]


#: Every index kind, plus 2-shard keyword-partitioned bases over a
#: streaming (ir2) and a non-streaming (iio) shard index.  One fan-out
#: worker keeps the sharded I/O counts deterministic.
ALL_KINDS = ("ir2", "rtree", "iio", "sig", "mir2", "stree", "auto",
             "sharded", "sharded-iio")


def built_engine(kind: str = "ir2", n: int = 24, objects=None):
    if kind.startswith("sharded"):
        engine = ShardedEngine(
            n_shards=2, partitioner="keyword",
            index=kind.partition("-")[2] or "ir2", signature_bytes=4,
        )
    else:
        engine = SpatialKeywordEngine(index=kind, signature_bytes=4)
    engine.add_all(make_objects(n) if objects is None else objects)
    engine.build()
    return engine


def oracle_search(version: EngineVersion, engine, query):
    """Reference answer: a fresh engine built over the version's objects."""
    return brute_force_top_k(list(version.objects()), engine.analyzer, query)


def answer(version: EngineVersion, query) -> list[int]:
    return [r.obj.oid for r in version.search(query).results]


def oracle_oids(version: EngineVersion, engine, query) -> list[int]:
    return [r.obj.oid for r in oracle_search(version, engine, query)]


class TestWriteBuffer:
    def test_insert_then_delete_masks(self):
        buffer = WriteBuffer()
        obj = SpatialObject(1, (0.0, 0.0), "cafe")
        buffer.record_insert(obj)
        assert buffer.depth == 1
        buffer.record_delete(1)
        assert 1 not in buffer.inserts
        assert 1 in buffer.deleted

    def test_delete_then_reinsert_is_live(self):
        buffer = WriteBuffer()
        buffer.record_delete(3)
        obj = SpatialObject(3, (1.0, 1.0), "pool")
        buffer.record_insert(obj)
        # The insert wins (it is consulted first); the base copy stays
        # masked by the deleted set.
        assert buffer.inserts[3] is obj
        assert 3 in buffer.deleted

    def test_composed_with_flattens_epochs(self):
        frozen, active = WriteBuffer(), WriteBuffer()
        frozen.record_insert(SpatialObject(1, (0.0, 0.0), "cafe"))
        frozen.record_delete(2)
        active.record_delete(1)  # later epoch deletes the frozen insert
        newer = SpatialObject(2, (2.0, 2.0), "pool")
        active.record_insert(newer)  # ... and resurrects oid 2
        flat = frozen.composed_with(active)
        assert 1 not in flat.inserts and 1 in flat.deleted
        assert flat.inserts[2] is newer


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestEngineVersionSearch:
    def dirty_maintainer(self, kind):
        engine = built_engine(kind)
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        for obj in make_objects(6, start=100):
            maintainer.add(obj)
        for oid in (0, 5, 102):
            maintainer.delete(oid)
        return engine, maintainer

    def test_point_query_matches_oracle(self, kind):
        engine, maintainer = self.dirty_maintainer(kind)
        version = maintainer.current
        for target in ((0.0, 0.0), (3.0, 2.0), (6.0, 4.0)):
            for terms in (["cafe"], ["wifi"], ["garden", "pool"]):
                query = SpatialKeywordQuery.of(target, terms, 4)
                got = [r.obj.oid for r in version.search(query).results]
                want = [r.obj.oid for r in oracle_search(version, engine, query)]
                assert got == want, (target, terms)

    def test_area_query_matches_oracle(self, kind):
        engine, maintainer = self.dirty_maintainer(kind)
        version = maintainer.current
        query = SpatialKeywordQuery.of_area(
            Rect((0.0, 0.0), (4.0, 4.0)), ["cafe"], 5
        )
        got = [r.obj.oid for r in version.search(query).results]
        want = [r.obj.oid for r in oracle_search(version, engine, query)]
        assert got == want

    def test_deleted_results_do_not_shrink_k(self, kind):
        """k nearest survivors, not k nearest minus the masked ones."""
        engine = built_engine(kind)
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        query = SpatialKeywordQuery.of((0.0, 0.0), ["cafe"], 3)
        before = [r.obj.oid for r in maintainer.current.search(query).results]
        maintainer.delete(before[0])
        after = maintainer.current.search(query).results
        assert len(after) == 3
        assert before[0] not in [r.obj.oid for r in after]

    def test_clean_version_delegates_to_base(self, kind):
        engine = built_engine(kind)
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        query = SpatialKeywordQuery.of((1.0, 1.0), ["wifi"], 3)
        assert (maintainer.current.search(query).oids
                == engine.search(query).oids)

    def test_search_exclude_matches_oracle(self, kind):
        """``search(exclude=X)``: the top k among objects outside X."""
        engine = built_engine(kind)
        objects = make_objects(24)
        for exclude in (frozenset({0}), frozenset({1, 2, 7, 13}),
                        frozenset(range(0, 24, 2))):
            for terms in (["cafe"], ["wifi"], ["garden", "pool"]):
                query = SpatialKeywordQuery.of((2.0, 1.0), terms, 3)
                got = engine.search(query, exclude=exclude).oids
                want = [r.obj.oid for r in brute_force_top_k(
                    [o for o in objects if o.oid not in exclude],
                    engine.analyzer, query,
                )]
                assert list(got) == want, (exclude, terms)

    def test_masked_oid_in_kth_tie_group_matches_oracle(self, kind):
        """Masking a tie member at the k-th distance pulls in the next one."""
        ring = [SpatialObject(oid, point, "cafe") for oid, point in enumerate(
            ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (2.0, 0.0))
        )]
        others = [SpatialObject(10 + i, (float(i), 3.0), "pool garden")
                  for i in range(4)]
        engine = built_engine(kind, objects=ring + others)
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        maintainer.delete(1)
        maintainer.delete(0)
        maintainer.add(SpatialObject(0, (5.0, 5.0), "cafe"))  # re-insert
        version = maintainer.current
        assert version.masked == frozenset({0, 1})
        for k in (1, 2, 3, 5):
            query = SpatialKeywordQuery.of((0.0, 0.0), ["cafe"], k)
            got = [r.obj.oid for r in version.search(query).results]
            want = [r.obj.oid for r in oracle_search(version, engine, query)]
            assert got == want, k
        query = SpatialKeywordQuery.of((0.0, 0.0), ["cafe"], 2)
        assert version.search(query).oids == [2, 3]

    def test_new_inserts_cost_the_base_nothing(self, kind):
        """Brand-new buffered inserts never widen the base search."""
        engine = built_engine(kind)
        query = SpatialKeywordQuery.of((3.0, 2.0), ["cafe"], 2)
        clean = engine.search(query)
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        for obj in make_objects(6, start=100):
            maintainer.add(obj)
        dirty = maintainer.current.search(query)
        assert dirty.io.random_reads == clean.io.random_reads
        assert dirty.io.sequential_reads == clean.io.sequential_reads
        assert dirty.io.objects_loaded == clean.io.objects_loaded
        assert dirty.objects_inspected == clean.objects_inspected
        want = [r.obj.oid for r in oracle_search(
            maintainer.current, engine, query)]
        assert list(dirty.oids) == want


@pytest.mark.parametrize("kind", ("ir2", "mir2", "rtree", "sharded"))
def test_masked_object_is_inspected_not_a_false_positive(kind):
    """A masked match the stream loads is inspected, never a false positive.

    With the nearest match deleted (and brand-new non-matching inserts
    buffered), the k=3 dirty search consumes exactly the stream a clean
    k=4 search consumes: the masked object is loaded and verified, then
    skipped instead of counted toward k.
    """
    engine = built_engine(kind)
    query = SpatialKeywordQuery.of((0.0, 0.0), ["cafe"], 3)
    nearest = engine.search(query).oids[0]
    wider = engine.search(replace(query, k=4))
    maintainer = SnapshotMaintainer(engine, merge_threshold=None)
    maintainer.delete(nearest)
    for oid in range(500, 506):
        maintainer.add(SpatialObject(oid, (6.0, 4.0), "museum"))
    dirty = maintainer.current.search(query)
    assert nearest not in dirty.oids
    assert dirty.oids == wider.oids[1:]
    assert dirty.objects_inspected == wider.objects_inspected
    assert (dirty.false_positive_candidates
            == wider.false_positive_candidates)
    assert dirty.io.objects_loaded == wider.io.objects_loaded
    assert dirty.io.random_reads == wider.io.random_reads


class TestEngineVersionRanked:
    def test_dirty_ranked_query_on_sharded_base_matches_oracle(self):
        engine = built_engine("sharded")
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        for obj in make_objects(6, start=100):
            maintainer.add(obj)
        for oid in (0, 5, 102):
            maintainer.delete(oid)
        version = maintainer.current
        live = list(version.objects())
        flushed = built_engine("ir2", objects=live)
        ranking = LinearRanking(max_distance=20.0)
        for terms in (["cafe"], ["wifi", "pool"]):
            query = SpatialKeywordQuery.of(
                (0.3, 0.7), terms, 4, ranking=ranking
            )
            everything = brute_force_ranked(
                live, engine.analyzer, flushed.corpus.vocabulary,
                replace(query, k=len(live)), ranking,
            )
            # Distinct scores at the cut make the comparison order-exact.
            assert everything[3].score > everything[4].score
            got = version.search(query).results
            assert [(r.obj.oid, r.score) for r in got] == \
                [(r.obj.oid, r.score) for r in everything[:4]]

    def test_dirty_ranked_query_matches_flushed_scores(self):
        """Ranked queries run on dirty snapshots without forcing a flush.

        The overlay rescoring must be byte-identical to what the same
        query returns after the buffer is folded into the base index.
        """
        from repro.core.ranking import LinearRanking

        engine = built_engine("ir2")
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        maintainer.add(SpatialObject(200, (0.5, 0.5), "cafe wifi"))
        maintainer.delete(0)
        # A wide distance ramp keeps every score distinct, so the
        # comparison below is order-exact, not merely tie-equivalent.
        query = SpatialKeywordQuery.of(
            (0.0, 0.0), ["cafe"], 3, ranking=LinearRanking(max_distance=20.0)
        )
        dirty = maintainer.current.search(query)
        assert maintainer.current.buffer_depth == 2  # no implicit flush
        maintainer.flush()
        clean = maintainer.current.search(query)
        assert [r.obj.oid for r in dirty.results] == \
            [r.obj.oid for r in clean.results]
        assert [(r.score, r.distance, r.ir_score) for r in dirty.results] == \
            [(r.score, r.distance, r.ir_score) for r in clean.results]

    def test_dirty_ranked_overlay_insert_can_win(self):
        from repro.core.ranking import LinearRanking

        maintainer = SnapshotMaintainer(built_engine("ir2"),
                                        merge_threshold=None)
        maintainer.add(SpatialObject(201, (0.0, 0.0), "cafe cafe cafe"))
        query = SpatialKeywordQuery.of(
            (0.0, 0.0), ["cafe"], 3, ranking=LinearRanking()
        )
        results = maintainer.current.search(query).results
        assert 201 in [r.obj.oid for r in results]

    def test_dirty_ranked_excludes_masked_docs(self):
        from repro.core.ranking import LinearRanking

        engine = built_engine("ir2")
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        query = SpatialKeywordQuery.of(
            (0.0, 0.0), ["cafe"], 3, ranking=LinearRanking()
        )
        before = [r.obj.oid for r in maintainer.current.search(query).results]
        maintainer.delete(before[0])
        after = maintainer.current.search(query).results
        assert len(after) == 3  # masked doc replaced, k not shrunk
        assert before[0] not in [r.obj.oid for r in after]


class TestSnapshotMaintainer:
    def test_published_versions_are_immutable(self):
        engine = built_engine()
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        v_before = maintainer.current
        n_before = len(v_before)
        maintainer.add(SpatialObject(300, (9.0, 9.0), "cafe"))
        v_after = maintainer.current
        assert v_after.version == v_before.version + 1
        assert len(v_before) == n_before  # the old snapshot never moved
        assert v_after.contains(300) and not v_before.contains(300)

    def test_duplicate_add_raises(self):
        maintainer = SnapshotMaintainer(built_engine(), merge_threshold=None)
        with pytest.raises(QueryError, match="already present"):
            maintainer.add(SpatialObject(0, (0.0, 0.0), "cafe"))
        # Buffered inserts count as present too.
        maintainer.add(SpatialObject(301, (1.0, 1.0), "pool"))
        with pytest.raises(QueryError, match="already present"):
            maintainer.add(SpatialObject(301, (1.0, 1.0), "pool"))

    def test_noop_delete_publishes_nothing(self):
        maintainer = SnapshotMaintainer(built_engine(), merge_threshold=None)
        version = maintainer.current.version
        assert maintainer.delete(999) is None
        assert maintainer.current.version == version
        assert maintainer.current.buffer_depth == 0

    def test_add_delete_pair_leaves_no_trace(self):
        """Deleting an oid only the active buffer inserted drops the insert
        and buffers no delete: the pair changes no version's live set, so
        it must not count toward a merge."""
        engine = built_engine()
        maintainer = SnapshotMaintainer(engine, merge_threshold=2)
        query = SpatialKeywordQuery.of((5.0, 5.0), ["cafe"], 3)
        for oid in (350, 351):
            maintainer.add(SpatialObject(oid, (5.0, 5.0), "cafe pool"))
            version = maintainer.delete(oid)
            assert version.buffer_depth == 0 and not version.dirty
            assert not version.contains(oid)
            assert answer(version, query) == oracle_oids(version, engine, query)
        assert maintainer._merge_thread is None and maintainer.merges == 0
        assert maintainer.current.search(query).oids == engine.search(query).oids

    def test_delete_of_frozen_insert_still_masks_it(self):
        """While a merge folds a buffered insert, deleting that oid must
        mask the copy the merge is about to put into the base."""
        engine = built_engine()
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        maintainer.add(SpatialObject(360, (5.0, 5.0), "cafe pool"))
        hold = threading.Event()
        entered = threading.Event()

        def stall():
            entered.set()
            assert hold.wait(10.0)

        maintainer.merge_hook = stall
        merge = threading.Thread(target=maintainer.flush, daemon=True)
        merge.start()
        query = SpatialKeywordQuery.of((5.0, 5.0), ["cafe"], 3)
        try:
            assert entered.wait(10.0)
            version = maintainer.delete(360)
            assert 360 in version.deleted and not version.contains(360)
            assert answer(version, query) == oracle_oids(version, engine, query)
        finally:
            hold.set()
            merge.join(10.0)
        # flush() folded the insert, then the delete that masks it.
        after = maintainer.current
        assert not after.dirty and not maintainer.base.contains(360)
        assert 360 not in answer(after, query)
        assert answer(after, query) == oracle_oids(after, engine, query)

    def test_flush_folds_everything(self):
        engine = built_engine()
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        maintainer.add(SpatialObject(310, (8.0, 8.0), "cafe museum"))
        maintainer.delete(1)
        clean = maintainer.flush()
        assert not clean.dirty and clean.buffer_depth == 0
        base = maintainer.base
        assert base is not engine  # copy-on-write: a fresh engine
        assert base.contains(310) and not base.contains(1)
        query = SpatialKeywordQuery.of((8.0, 8.0), ["museum"], 2)
        assert 310 in clean.search(query).oids

    def test_threshold_triggers_background_merge(self):
        maintainer = SnapshotMaintainer(built_engine(), merge_threshold=3)
        for obj in make_objects(3, start=320):
            maintainer.add(obj)
        deadline = threading.Event()
        for _ in range(100):
            if maintainer.merges >= 1 and maintainer.current.buffer_depth == 0:
                break
            deadline.wait(0.05)
        assert maintainer.merges >= 1
        assert maintainer.current.buffer_depth == 0
        assert all(maintainer.base.contains(o) for o in (320, 321, 322))

    def test_merge_failure_loses_no_writes(self):
        maintainer = SnapshotMaintainer(built_engine(), merge_threshold=None)
        maintainer.add(SpatialObject(330, (7.0, 7.0), "cafe"))
        maintainer.delete(2)

        def boom():
            raise RuntimeError("mid-merge crash")

        maintainer.merge_hook = boom
        with pytest.raises(RuntimeError, match="mid-merge"):
            maintainer.flush()
        assert maintainer.merge_failures == 1
        # The buffer was recomposed: both writes still published.
        recovered = maintainer.current
        assert recovered.contains(330) and not recovered.contains(2)
        maintainer.merge_hook = None
        clean = maintainer.flush()
        assert not clean.dirty
        assert maintainer.base.contains(330)
        assert not maintainer.base.contains(2)

    def test_readers_never_block_on_a_merge(self):
        maintainer = SnapshotMaintainer(built_engine(), merge_threshold=None)
        maintainer.add(SpatialObject(340, (6.0, 6.0), "wifi"))
        hold = threading.Event()
        entered = threading.Event()

        def stall():
            entered.set()
            assert hold.wait(10.0)

        maintainer.merge_hook = stall
        merge = threading.Thread(target=maintainer.flush, daemon=True)
        merge.start()
        assert entered.wait(10.0)
        try:
            # The merge is parked mid-fold; reads answer immediately.
            query = SpatialKeywordQuery.of((6.0, 6.0), ["wifi"], 2)
            execution = maintainer.current.search(query)
            assert 340 in execution.oids
        finally:
            hold.set()
            merge.join(10.0)
        assert maintainer.merges == 1


class TestIncrementalMerge:
    """Small frozen buffers fold into a copy of the base, not a rebuild."""

    def test_small_buffer_merges_incrementally(self):
        engine = built_engine()  # 24 objects; ratio 0.25 -> threshold 6
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        maintainer.add(SpatialObject(500, (3.0, 3.0), "cafe garden"))
        maintainer.delete(2)
        clean = maintainer.flush()
        assert maintainer.incremental_merges == 1
        assert maintainer.metrics.counter(
            "maintenance.incremental_merges").value == 1
        assert maintainer.base is not engine  # still copy-on-write
        assert maintainer.base.contains(500)
        assert not maintainer.base.contains(2)
        # The old base is untouched by the fold.
        assert engine.contains(2) and not engine.contains(500)
        query = SpatialKeywordQuery.of((3.0, 3.0), ["cafe"], 4)
        expected = [r.obj.oid for r in
                    oracle_search(clean, engine, query)]
        assert [r.obj.oid for r in clean.search(query).results] == expected

    def test_large_buffer_takes_the_rebuild_path(self):
        maintainer = SnapshotMaintainer(built_engine(), merge_threshold=None)
        for obj in make_objects(8, start=510):  # 8 > 24 * 0.25
            maintainer.add(obj)
        maintainer.flush()
        assert maintainer.merges == 1
        assert maintainer.incremental_merges == 0
        assert all(maintainer.base.contains(o) for o in range(510, 518))

    @pytest.mark.parametrize("kind", ("ir2", "mir2", "rtree", "iio", "sig"))
    def test_incremental_answers_match_oracle(self, kind):
        engine = built_engine(kind)
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        maintainer.add(SpatialObject(530, (2.0, 2.0), "museum wifi"))
        maintainer.add(SpatialObject(531, (2.5, 2.5), "cafe wifi"))
        maintainer.delete(4)
        clean = maintainer.flush()
        assert maintainer.incremental_merges == 1
        for keywords in (["wifi"], ["cafe", "wifi"], ["museum"]):
            query = SpatialKeywordQuery.of((2.0, 2.0), keywords, 5)
            expected = [r.obj.oid for r in
                        oracle_search(clean, engine, query)]
            assert [r.obj.oid for r in clean.search(query).results] \
                == expected

    def test_incremental_merge_failure_loses_no_writes(self):
        maintainer = SnapshotMaintainer(built_engine(), merge_threshold=None)
        maintainer.add(SpatialObject(540, (6.0, 6.0), "garden"))

        def boom():
            raise RuntimeError("mid-merge crash")

        maintainer.merge_hook = boom
        with pytest.raises(RuntimeError, match="mid-merge"):
            maintainer.flush()
        assert maintainer.merge_failures == 1
        assert maintainer.current.contains(540)
        maintainer.merge_hook = None
        maintainer.flush()
        assert maintainer.incremental_merges == 1
        assert maintainer.base.contains(540)

    def test_sharded_base_merges_incrementally(self):
        from repro.shard import ShardedEngine

        engine = ShardedEngine(n_shards=3, partitioner="keyword",
                               index="ir2", signature_bytes=4)
        engine.add_all(make_objects(24))
        engine.build()
        maintainer = SnapshotMaintainer(engine, merge_threshold=None)
        maintainer.add(SpatialObject(550, (4.0, 4.0), "pool wifi"))
        maintainer.delete(3)
        clean = maintainer.flush()
        assert maintainer.incremental_merges == 1
        base = maintainer.base
        assert base is not engine
        assert base.contains(550) and not base.contains(3)
        query = SpatialKeywordQuery.of((4.0, 4.0), ["wifi"], 4)
        expected = [r.obj.oid for r in brute_force_top_k(
            list(clean.objects()), engine.analyzer, query)]
        assert [r.obj.oid for r in clean.search(query).results] == expected


class TestServiceSnapshotMode:
    QUERY = SpatialKeywordQuery.of((0.0, 0.0), ("cafe",), 3)

    def test_read_your_writes_without_rebuild(self):
        with QueryService(built_engine(), workers=2,
                          merge_threshold=None) as service:
            service.add_object(400, (0.0, 0.0), "cafe brandnewterm")
            execution = service.search(
                SpatialKeywordQuery.of((0.0, 0.0), ("brandnewterm",), 1)
            )
            assert execution.oids == [400]
            assert service.delete(400) is True
            execution = service.search(
                SpatialKeywordQuery.of((0.0, 0.0), ("brandnewterm",), 1)
            )
            assert execution.oids == []

    def test_executions_are_version_stamped(self):
        with QueryService(built_engine(), workers=2,
                          merge_threshold=None) as service:
            first = service.search(self.QUERY)
            assert first.engine_version == service.engine_version
            assert first.to_dict()["engine_version"] == first.engine_version
            service.add_object(401, (5.0, 5.0), "pool")
            second = service.search(self.QUERY)
            assert second.engine_version == first.engine_version + 1

    def test_cache_hits_only_within_a_version(self):
        with QueryService(built_engine(), workers=2,
                          merge_threshold=None) as service:
            service.search(self.QUERY)
            service.search(self.QUERY)
            assert service.stats().cache_hits == 1
            service.add_object(402, (5.0, 5.0), "pool")
            service.search(self.QUERY)  # new version: must re-run
            assert service.stats().cache_hits == 1

    def test_unknown_maintenance_mode_is_rejected(self):
        # Snapshot maintenance is the only mode; the option itself is gone.
        for mode in ("bogus", "rwlock", "snapshot"):
            with pytest.raises(TypeError, match="maintenance"):
                QueryService(built_engine(), maintenance=mode)

    def test_batch_group_pins_one_version(self, monkeypatch):
        release = threading.Event()
        search = EngineVersion.search

        def held(version, query):
            release.wait(10.0)
            return search(version, query)

        monkeypatch.setattr(EngineVersion, "search", held)
        with QueryService(
            built_engine(), workers=4,
            batching=BatchConfig(window_ms=10_000.0, max_batch=16),
            merge_threshold=None,
        ) as service:
            # Four held reads keep every worker busy, so the queries
            # below collect into one open group.
            busy = [
                service.submit(
                    SpatialKeywordQuery.of((0.0, float(i)), ("pool",), 1)
                )
                for i in range(4)
            ]
            futures = []
            for i in range(4):
                futures.append(service.submit(
                    SpatialKeywordQuery.of((float(i), 0.0), ("cafe",), 2)
                ))
                # Writers bump the published version while the batch
                # group is still open ...
                service.add_object(410 + i, (9.0, 9.0), "museum")
            release.set()
            for future in busy:
                future.result()
            versions = {f.result().engine_version for f in futures}
            # ... yet every member of the group answered from the one
            # version the group pinned.
            assert len(versions) == 1
            assert len({f.result().trace.batch_id for f in futures}) == 1

    def test_ranked_query_leaves_dirty_overlay_in_place(self):
        """Ranked queries answer from the overlay instead of flushing."""
        from repro.core.ranking import LinearRanking

        with QueryService(built_engine("ir2"), workers=2,
                          merge_threshold=None) as service:
            service.add_object(420, (0.0, 0.0), "cafe wifi")
            assert service.buffer_depth == 1
            query = SpatialKeywordQuery.of(
                (0.0, 0.0), ("cafe",), 3, ranking=LinearRanking()
            )
            execution = service.search(query)
            assert 420 in execution.oids
            # The buffer stays dirty: no flush stall on the read path.
            assert service.buffer_depth == 1

    def test_mid_merge_save_is_consistent(self, tmp_path):
        with QueryService(built_engine(), workers=2,
                          merge_threshold=None) as service:
            service.add_object(430, (4.0, 4.0), "garden wifi")
            service.delete(3)
            maintainer = service.maintainer
            hold = threading.Event()
            entered = threading.Event()

            def stall():
                entered.set()
                assert hold.wait(10.0)

            maintainer.merge_hook = stall
            merge = threading.Thread(target=maintainer.flush, daemon=True)
            merge.start()
            assert entered.wait(10.0)
            service.add_object(431, (4.5, 4.5), "pool")  # lands mid-merge

            done = {}

            def save():
                done["path"] = service.save(str(tmp_path / "saved"))

            saver = threading.Thread(target=save, daemon=True)
            saver.start()
            hold.set()
            merge.join(10.0)
            saver.join(10.0)
            maintainer.merge_hook = None

        loaded = load_engine(str(tmp_path / "saved"))
        assert loaded.contains(430) and loaded.contains(431)
        assert not loaded.contains(3)

    def test_flush_returns_version_number(self):
        with QueryService(built_engine(), workers=2,
                          merge_threshold=None) as service:
            service.add_object(440, (2.0, 2.0), "cafe")
            version = service.flush()
            assert version == service.engine_version
            assert service.buffer_depth == 0


class TestVersionedResultCache:
    def put_get_query(self):
        return SpatialKeywordQuery.of((0.0, 0.0), ("cafe",), 2)

    def test_stale_stamp_is_a_miss_and_evicts(self):
        cache = QueryResultCache(capacity=8)
        engine = built_engine()
        query = self.put_get_query()
        execution = engine.search(query)
        cache.put(query, execution, version=7)
        assert cache.get(query, version=7) is not None
        # A reader pinned to version 8 must not see version 7's answer.
        assert cache.get(query, version=8) is None
        # The stale entry was dropped, not kept around.
        assert cache.get(query, version=7) is None

    def test_invalidate_drops_entries_and_bumps_generation(self):
        cache = QueryResultCache(capacity=8)
        engine = built_engine()
        query = self.put_get_query()
        cache.put(query, engine.search(query), version=3)
        assert cache.get(query, version=3) is not None
        generation = cache.generation
        cache.invalidate()
        assert cache.get(query, version=3) is None
        assert cache.generation == generation + 1


class TestNoOpMutationRegression:
    """A delete that removed nothing must leave the service untouched."""

    def auto_service(self):
        engine = SpatialKeywordEngine(index="auto", signature_bytes=4)
        engine.add_all(make_objects(24))
        engine.build()
        return QueryService(engine, workers=2, merge_threshold=None)

    def test_noop_delete_keeps_cache_and_stats(self):
        with self.auto_service() as service:
            query = SpatialKeywordQuery.of((0.0, 0.0), ("cafe",), 3)
            service.search(query)  # primes the result + plan caches
            index = service.engine.index
            stats_version = index.stats.version
            cache_generation = service.cache.generation
            plan_cache_size = len(index.planner._cache)

            assert service.delete(999_999) is False

            assert service.cache.generation == cache_generation
            assert index.stats.version == stats_version
            assert len(index.planner._cache) == plan_cache_size
            service.search(query)
            assert service.stats().cache_hits == 1  # still warm

    def test_effective_delete_invalidates(self):
        with self.auto_service() as service:
            query = SpatialKeywordQuery.of((0.0, 0.0), ("cafe",), 3)
            service.search(query)
            cache_generation = service.cache.generation
            assert service.delete(0) is True
            assert service.cache.generation == cache_generation + 1

    def test_engine_level_noop_delete_skips_note_delete(self):
        engine = SpatialKeywordEngine(index="auto", signature_bytes=4)
        engine.add_all(make_objects(24))
        engine.build()
        index = engine.index
        pointer = engine._pointers[0]
        obj = engine.corpus.store.load(pointer)
        assert index.delete_object(pointer, obj) is True
        stats_version = index.stats.version
        grid_total = index.stats.grid.total
        # The second delete removes nothing from any child: the stats
        # version must not bump (that flushes the plan cache) and the
        # density grid must not uncount a point it no longer holds.
        assert index.delete_object(pointer, obj) is False
        assert index.stats.version == stats_version
        assert index.stats.grid.total == grid_total


class TestDensityGridAccounting:
    def test_total_tracks_sum_of_counts(self):
        grid = DensityGrid((0.0, 0.0), (10.0, 10.0), cells_per_dim=4)
        points = [(float(i % 11), float(i % 7)) for i in range(40)]
        for point in points:
            grid.add(point)
        for point in points[::2]:
            grid.remove(point)
        assert grid.total == sum(grid.counts) == 20

    def test_remove_from_empty_cell_raises(self):
        grid = DensityGrid((0.0, 0.0), (10.0, 10.0), cells_per_dim=4)
        grid.add((1.0, 1.0))
        with pytest.raises(ValueError, match="underflow"):
            grid.remove((9.0, 9.0))
        # The failed remove changed nothing.
        assert grid.total == sum(grid.counts) == 1

    def test_clamped_points_stay_exact(self):
        grid = DensityGrid((0.0, 0.0), (10.0, 10.0), cells_per_dim=4)
        grid.add((100.0, 100.0))  # clamps into the far edge cell
        grid.remove((100.0, 100.0))
        assert grid.total == sum(grid.counts) == 0
