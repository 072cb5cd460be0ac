"""Validation and statistics walks read off the books.

``RTree.validate``, ``signature_saturation`` and ``RTree.node_count``
(and ``STree.validate``) read every node through ``_load_uncounted``:
the extent's raw bytes, decoded without the node intern.  Such a walk
charges no device and no enclosing ``collecting_io()`` collector, emits
no trace event, consults no shared-read session, and leaves the device
counts of a thread running queries beside it exact.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core import signature_saturation
from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.obs.trace import trace_query
from repro.storage.iostats import collecting_io
from repro.storage.sharedread import SharedReadSession, activate_session


def make_engine(index):
    config = DatasetConfig(
        name="uncounted",
        n_objects=300,
        vocabulary_size=60,
        avg_unique_words=5.0,
        clusters=4,
        cluster_std=10.0,
        extent=((0.0, 100.0), (0.0, 100.0)),
        seed=17,
    )
    objects = SpatialTextDatasetGenerator(config).generate()
    engine = SpatialKeywordEngine(index=index, signature_bytes=8, capacity=8)
    engine.add_all(objects)
    engine.build()
    return engine, objects


def walks(engine):
    """The off-the-books walks of one engine's tree, as callables."""
    if engine.index_kind == "stree":
        return [engine.index.stree.validate]
    tree = engine.index.tree
    return [tree.validate, lambda: signature_saturation(tree), tree.node_count]


@pytest.mark.parametrize("index", ["ir2", "mir2", "rtree", "stree"])
def test_walks_touch_no_collector_span_session_or_device(index):
    engine, _ = make_engine(index)
    devices = [engine.index.device, engine.corpus.device]
    before = [(d.stats.counts(), d.stats._last_block) for d in devices]
    session = SharedReadSession()
    with trace_query("walks") as trace, activate_session(session):
        with collecting_io() as io:
            for walk in walks(engine):
                walk()
    assert io.counts().total_accesses == 0
    assert io.shared_reads == 0 and io.objects_loaded == 0
    assert list(trace.iter_events()) == []
    assert (session.hits, session.misses, len(session)) == (0, 0, 0)
    assert [(d.stats.counts(), d.stats._last_block) for d in devices] == before


def test_walks_beside_queries_keep_the_device_totals_exact():
    engine, objects = make_engine("ir2")
    devices = [engine.index.device, engine.corpus.device]
    analyzer = engine.corpus.analyzer
    rng = random.Random(4)
    queries = []
    for _ in range(40):
        terms = sorted(analyzer.terms(rng.choice(objects).text))
        point = (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
        queries.append(SpatialKeywordQuery.of(point, terms[:2], k=5))
    start = sum(device.stats.total_reads for device in devices)
    charged: list[int] = []
    errors: list[BaseException] = []
    done = threading.Event()

    def reader() -> None:
        try:
            for _ in range(3):
                for query in queries:
                    charged.append(engine.search(query).io.total_reads)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=reader)
        thread.start()
        walked = 0
        while not done.is_set() or walked == 0:
            with collecting_io() as io:
                for walk in walks(engine):
                    walk()
            assert io.total_reads == 0
            walked += 1
        thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert errors == []
    assert len(charged) == 3 * len(queries)
    total = sum(device.stats.total_reads for device in devices)
    assert total - start == sum(charged)
