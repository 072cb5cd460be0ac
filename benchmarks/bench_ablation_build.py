"""Ablation A1 — STR bulk load vs. repeated insertion (IR2-Tree).

The figure experiments build trees with the STR bulk loader; the paper
builds by insertion.  This ablation shows the two constructions answer
queries with comparable I/O (so the substitution does not distort the
figure comparisons) while bulk loading is far cheaper to perform.
"""

from __future__ import annotations

import pytest

from conftest import emit_text
from repro.bench import format_table
from repro.bench.workloads import WorkloadGenerator
from repro.core import (
    BulkItem,
    Corpus,
    IR2Tree,
    SpatialKeywordQuery,
    bulk_load,
    insert_build,
    ir2_top_k,
)
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.spatial.geometry import Rect
from repro.storage import InMemoryBlockDevice, PageStore
from repro.text.signature import HashSignatureFactory

N_OBJECTS = 1_500
N_QUERIES = 12


def _corpus_and_items():
    config = DatasetConfig(
        name="build-ablation",
        n_objects=N_OBJECTS,
        vocabulary_size=3_000,
        avg_unique_words=25,
        seed=13,
    )
    objects = SpatialTextDatasetGenerator(config).generate()
    corpus = Corpus()
    corpus.add_all(objects)
    items = [
        BulkItem(ptr, Rect.from_point(obj.point), corpus.analyzer.terms(obj.text))
        for ptr, obj in corpus.iter_items()
    ]
    return corpus, objects, items


def _build(corpus, items, bulk: bool):
    device = InMemoryBlockDevice(name="ablation-tree")
    tree = IR2Tree(PageStore(device), HashSignatureFactory(16))
    if bulk:
        bulk_load(tree, items)
    else:
        insert_build(tree, items)
    build_writes = device.stats.snapshot().total_writes
    device.stats.reset()
    corpus.device.stats.reset()
    return tree, device, build_writes


@pytest.fixture(scope="module")
def comparison():
    corpus, objects, items = _corpus_and_items()
    workload = WorkloadGenerator(objects, corpus.analyzer, seed=3)
    queries = workload.queries(N_QUERIES, 2, 10)
    rows = []
    measured = {}
    for label, bulk in (("bulk-load", True), ("insertion", False)):
        tree, device, build_writes = _build(corpus, items, bulk)
        answers = []
        for query in queries:
            answers.append([r.oid for r in ir2_top_k(tree, corpus.store, corpus.analyzer, query).results])
        reads = device.stats.snapshot().total_reads + corpus.device.stats.snapshot().total_reads
        rows.append(
            (
                label,
                build_writes,
                tree.height,
                tree.node_count(),
                round(reads / N_QUERIES, 1),
            )
        )
        measured[label] = (answers, reads)
        corpus.device.stats.reset()
    text = format_table(
        ("Build", "Build block writes", "Height", "Nodes", "Query reads/query"),
        rows,
        title=f"Ablation A1: bulk load vs insertion (IR2, {N_OBJECTS} objects)",
    )
    emit_text("ablation_build", text)
    return measured


def test_builds_agree_on_results(comparison):
    """Both constructions must return identical distance-first answers."""
    assert comparison["bulk-load"][0] == comparison["insertion"][0]


def test_bulk_query_io_comparable(comparison):
    """Bulk-loaded tree query I/O within 2.5x of the insertion-built tree.

    (STR packing usually *reduces* I/O; the bound is deliberately loose.)
    """
    bulk_reads = comparison["bulk-load"][1]
    insert_reads = comparison["insertion"][1]
    assert bulk_reads <= 2.5 * max(1, insert_reads)


@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "insert"])
def test_build_wallclock(benchmark, comparison, bulk):
    """Wall-clock cost of each construction path."""
    corpus, _, items = _corpus_and_items()
    benchmark.pedantic(
        lambda: _build(corpus, items, bulk), rounds=2, iterations=1
    )
