"""Ablation A2 — quadratic vs. linear node splitting.

The paper uses Guttman's quadratic split.  This ablation swaps in the
linear split and measures the effect on distance-first query I/O over an
insertion-built IR2-Tree: quadratic usually yields tighter MBRs and hence
fewer node reads, at a higher build cost.
"""

from __future__ import annotations

import pytest

from conftest import emit_text
from repro.bench import format_table
from repro.bench.workloads import WorkloadGenerator
from repro.core import BulkItem, Corpus, IR2Tree, insert_build, ir2_top_k
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.spatial.geometry import Rect
from repro.spatial.split import LinearSplit, QuadraticSplit
from repro.storage import InMemoryBlockDevice, PageStore
from repro.text.signature import HashSignatureFactory

N_OBJECTS = 1_200
N_QUERIES = 12
#: Small capacity so node splits actually happen at ablation scale.
CAPACITY = 16


def _setup():
    config = DatasetConfig(
        name="split-ablation",
        n_objects=N_OBJECTS,
        vocabulary_size=2_500,
        avg_unique_words=20,
        seed=29,
    )
    objects = SpatialTextDatasetGenerator(config).generate()
    corpus = Corpus()
    corpus.add_all(objects)
    items = [
        BulkItem(ptr, Rect.from_point(obj.point), corpus.analyzer.terms(obj.text))
        for ptr, obj in corpus.iter_items()
    ]
    return corpus, objects, items


def _build_with(corpus, items, strategy):
    device = InMemoryBlockDevice(name=f"split-{strategy.name}")
    tree = IR2Tree(
        PageStore(device),
        HashSignatureFactory(16),
        capacity=CAPACITY,
        split_strategy=strategy,
    )
    insert_build(tree, items)
    device.stats.reset()
    corpus.device.stats.reset()
    return tree, device


@pytest.fixture(scope="module")
def comparison():
    corpus, objects, items = _setup()
    workload = WorkloadGenerator(objects, corpus.analyzer, seed=4)
    queries = workload.queries(N_QUERIES, 2, 10)
    rows = []
    measured = {}
    for strategy in (QuadraticSplit(), LinearSplit()):
        tree, device = _build_with(corpus, items, strategy)
        answers = []
        for query in queries:
            outcome = ir2_top_k(tree, corpus.store, corpus.analyzer, query)
            answers.append([r.oid for r in outcome.results])
        node_reads = device.stats.snapshot().total_reads
        rows.append(
            (
                strategy.name,
                tree.node_count(),
                round(node_reads / N_QUERIES, 1),
            )
        )
        measured[strategy.name] = (answers, node_reads)
        corpus.device.stats.reset()
    text = format_table(
        ("Split", "Nodes", "Node reads/query"),
        rows,
        title=f"Ablation A2: split strategy (IR2, capacity={CAPACITY})",
    )
    emit_text("ablation_split", text)
    return measured


def test_split_strategies_agree_on_results(comparison):
    """Result correctness must not depend on the split strategy."""
    assert comparison["quadratic"][0] == comparison["linear"][0]


@pytest.mark.parametrize("strategy_name", ["quadratic", "linear"])
def test_split_build_wallclock(benchmark, comparison, strategy_name):
    """Wall-clock of insertion-building under each split strategy."""
    corpus, _, items = _setup()
    strategy = QuadraticSplit() if strategy_name == "quadratic" else LinearSplit()
    benchmark.pedantic(
        lambda: _build_with(corpus, items, strategy), rounds=2, iterations=1
    )
