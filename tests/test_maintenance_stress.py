"""Concurrent-maintenance stress: readers race a live writer (PR-8 §4).

Every index kind × shard layout runs a reader pool against a writer that
streams inserts and deletes through the snapshot maintainer.  Three
properties must hold under the race:

1. **Version linearizability** — every answer is byte-identical to the
   brute-force oracle evaluated over the object set of *some* published
   version, namely the one the execution says it pinned
   (``execution.engine_version``).  Merge publications change the
   version number but never the content, so each answer is checked
   against the newest *write*-published content at or below its pin.
2. **Exact I/O attribution** — the service's lifetime I/O aggregate
   equals the element-wise merge of the per-execution deltas: concurrent
   background merges (which do real build I/O on their own devices) must
   never leak into a query's attribution.
3. **Readers never block on a merge** — a merge parked mid-fold cannot
   delay a search (covered per-kind here with a held-open merge hook; the
   non-stress variant lives in ``test_maintenance.py``).
"""

from __future__ import annotations

import threading

import pytest

from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.core.search import brute_force_top_k
from repro.model import SpatialObject
from repro.serve import QueryService
from repro.shard import ShardedEngine
from repro.spatial.geometry import Rect
from repro.storage.iostats import IOCounts
from repro.text.analyzer import Analyzer

KINDS = ("ir2", "mir2", "rtree", "iio", "sig")
SHARD_LAYOUTS = (1, 2, 5)

TEXTS = ("cafe wifi", "cafe garden", "museum wifi", "pool garden",
         "cafe museum", "wifi pool", "cafe pool garden")

N_OBJECTS = 42
N_WRITES = 18
N_READERS = 2
QUERIES_PER_READER = 8


def make_objects(n: int, start: int = 0) -> list[SpatialObject]:
    return [
        SpatialObject(
            start + i,
            (float((start + i) % 9), float((start + i) % 6)),
            TEXTS[(start + i) % len(TEXTS)],
        )
        for i in range(n)
    ]


def build_engine(kind: str, shards: int):
    if shards == 1:
        engine = SpatialKeywordEngine(index=kind, signature_bytes=4)
    else:
        engine = ShardedEngine(n_shards=shards, index=kind, signature_bytes=4)
    engine.add_all(make_objects(N_OBJECTS))
    engine.build()
    return engine


QUERY_POOL = [
    SpatialKeywordQuery.of((0.0, 0.0), ("cafe",), 3),
    SpatialKeywordQuery.of((4.0, 3.0), ("wifi",), 4),
    SpatialKeywordQuery.of((8.0, 5.0), ("garden",), 3),
    SpatialKeywordQuery.of((2.0, 2.0), ("pool",), 5),
    SpatialKeywordQuery.of((5.0, 1.0), ("cafe", "garden"), 2),
    SpatialKeywordQuery.of_area(Rect((0.0, 0.0), (5.0, 5.0)), ("wifi",), 4),
]


class OracleJournal:
    """Version → live-object-set map, recorded as the writer publishes.

    The writer records the exact version each of its mutations published
    (the maintainer returns it), so content is known precisely at those
    versions.  Versions *between* recorded ones were published by merges,
    which fold the buffer without changing the live set — their content
    is the newest recorded entry at or below them.
    """

    def __init__(self, initial_objects):
        self._lock = threading.Lock()
        self._by_version = {0: dict(initial_objects)}

    def record(self, version: int, objects: dict) -> None:
        with self._lock:
            self._by_version[version] = dict(objects)

    def content_at(self, version: int) -> list:
        with self._lock:
            recorded = max(v for v in self._by_version if v <= version)
            return list(self._by_version[recorded].values())


@pytest.mark.parametrize("shards", SHARD_LAYOUTS)
@pytest.mark.parametrize("kind", KINDS)
def test_readers_race_a_live_writer(kind, shards):
    engine = build_engine(kind, shards)
    analyzer = Analyzer()
    with engine if shards > 1 else _noop_ctx(engine), QueryService(
        engine, workers=N_READERS + 1, merge_threshold=6
    ) as service:
        maintainer = service.maintainer
        live = {obj.oid: obj for obj in make_objects(N_OBJECTS)}
        journal = OracleJournal(live)
        answers = []
        answers_lock = threading.Lock()
        errors = []

        def writer():
            try:
                next_oid = N_OBJECTS
                for i in range(N_WRITES):
                    if i % 3 == 2 and live:
                        victim = sorted(live)[i % len(live)]
                        version = maintainer.delete(victim)
                        assert version is not None
                        del live[victim]
                        journal.record(version.version, live)
                    else:
                        obj = SpatialObject(
                            next_oid,
                            (float(i % 9), float(i % 6)),
                            TEXTS[i % len(TEXTS)],
                        )
                        next_oid += 1
                        version = maintainer.add(obj)
                        live[obj.oid] = obj
                        journal.record(version.version, live)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def reader():
            try:
                for i in range(QUERIES_PER_READER):
                    query = QUERY_POOL[i % len(QUERY_POOL)]
                    execution = service.search(query)
                    with answers_lock:
                        answers.append((query, execution))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(N_READERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not errors, errors

        # 1. Every answer equals the oracle of the version it pinned.
        for query, execution in answers:
            version = execution.engine_version
            assert version is not None
            oracle = brute_force_top_k(
                journal.content_at(version), analyzer, query
            )
            assert execution.oids == [r.obj.oid for r in oracle], (
                kind, shards, version, query.keywords,
            )

        # 2. Per-query I/O attribution reconciles exactly with the
        # service aggregate despite concurrent merge I/O.
        merged = IOCounts()
        for _query, execution in answers:
            merged = merged.merged_with(execution.io)
        total = service.stats().io
        assert total.random_reads == merged.random_reads
        assert total.sequential_reads == merged.sequential_reads
        assert total.objects_loaded == merged.objects_loaded
        assert total.shared_reads == merged.shared_reads

        # Fold the tail so the final base holds exactly the live set.
        final = maintainer.flush()
        assert not final.dirty
        assert sorted(o.oid for o in final.objects()) == sorted(live)


class _noop_ctx:
    def __init__(self, obj):
        self._obj = obj

    def __enter__(self):
        return self._obj

    def __exit__(self, *exc_info):
        return False


@pytest.mark.parametrize("kind", KINDS)
def test_no_reader_blocks_while_a_merge_is_parked(kind):
    engine = build_engine(kind, shards=1)
    with QueryService(engine, workers=2, merge_threshold=None) as service:
        maintainer = service.maintainer
        service.add_object(900, (1.0, 1.0), "cafe wifi stressterm")
        hold = threading.Event()
        entered = threading.Event()

        def stall():
            entered.set()
            assert hold.wait(15.0)

        maintainer.merge_hook = stall
        merge = threading.Thread(target=maintainer.flush, daemon=True)
        merge.start()
        assert entered.wait(15.0)
        try:
            finished = threading.Event()

            def read():
                execution = service.search(
                    SpatialKeywordQuery.of((1.0, 1.0), ("stressterm",), 1)
                )
                assert execution.oids == [900]
                finished.set()

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            # The merge is still parked on the hook; the reader must
            # answer long before it is released.
            assert finished.wait(10.0), "reader blocked behind a merge"
            assert not hold.is_set()
        finally:
            hold.set()
            merge.join(15.0)
        assert maintainer.merges == 1
