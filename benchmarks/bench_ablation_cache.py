"""Ablation A3 — LRU buffer pool in front of the IR2-Tree.

The paper measures cold-cache disk accesses.  Real deployments cache hot
blocks (the root and upper tree levels are touched by every query); this
ablation quantifies how many of the paper's block accesses a small LRU
pool absorbs, without changing any result.  The pool is a bounded
:class:`~repro.storage.sharedread.SharedReadSession` active while the
queries run: each device keeps its ``pool`` most recently read blocks,
and a read it serves is a ``shared_read`` on the tree device's stats.
"""

from __future__ import annotations

import pytest

from conftest import emit_text
from repro.bench import format_table
from repro.bench.workloads import WorkloadGenerator
from repro.core import Corpus, IR2Index
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.storage import InMemoryBlockDevice, SharedReadSession, activate_session

N_OBJECTS = 1_500
N_QUERIES = 24
POOL_BLOCKS = (0, 8, 64, 512)


def _setup(pool_blocks: int):
    config = DatasetConfig(
        name="cache-ablation",
        n_objects=N_OBJECTS,
        vocabulary_size=3_000,
        avg_unique_words=25,
        seed=17,
    )
    objects = SpatialTextDatasetGenerator(config).generate()
    corpus = Corpus()
    corpus.add_all(objects)
    index = IR2Index(corpus, 16, device=InMemoryBlockDevice(name="ir2-disk"))
    index.build()
    index.reset_io()
    return corpus, objects, index


def _session(pool_blocks: int):
    """The pool for one run: a bounded session, or none for ``0``."""
    return SharedReadSession(pool_blocks) if pool_blocks else None


@pytest.fixture(scope="module")
def comparison():
    rows = []
    measured = {}
    for pool in POOL_BLOCKS:
        corpus, objects, index = _setup(pool)
        workload = WorkloadGenerator(objects, corpus.analyzer, seed=6)
        queries = workload.queries(N_QUERIES, 2, 10)
        with activate_session(_session(pool)):
            answers = [index.execute(q).oids for q in queries]
        stats = index.device.stats.snapshot()
        disk_reads = stats.total_reads
        hit_rate = stats.shared_reads / (disk_reads + stats.shared_reads)
        rows.append((pool, round(disk_reads / N_QUERIES, 1), round(hit_rate, 3)))
        measured[pool] = (answers, disk_reads)
    text = format_table(
        ("Pool blocks", "Tree disk reads/query", "Hit rate"),
        rows,
        title=f"Ablation A3: LRU buffer pool over the IR2-Tree ({N_OBJECTS} objects)",
    )
    emit_text("ablation_cache", text)
    return measured


def test_cache_preserves_results(comparison):
    """Caching must never change query answers."""
    reference = comparison[0][0]
    for pool in POOL_BLOCKS[1:]:
        assert comparison[pool][0] == reference


def test_cache_reduces_disk_reads(comparison):
    """A big pool must absorb a substantial share of tree reads."""
    cold = comparison[0][1]
    warm = comparison[POOL_BLOCKS[-1]][1]
    assert warm < cold


@pytest.mark.parametrize("pool", POOL_BLOCKS, ids=[f"pool{p}" for p in POOL_BLOCKS])
def test_cache_query_wallclock(benchmark, comparison, pool):
    """Wall-clock of the query batch at each pool size."""
    corpus, objects, index = _setup(pool)
    workload = WorkloadGenerator(objects, corpus.analyzer, seed=6)
    queries = workload.queries(8, 2, 10)

    def run():
        with activate_session(_session(pool)):
            for query in queries:
                index.execute(query)

    benchmark.pedantic(run, rounds=2, iterations=1)
