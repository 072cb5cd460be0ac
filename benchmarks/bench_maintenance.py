"""Maintenance costs — Section IV's claims about Insert and Delete.

The paper: IR2-Tree maintenance has "the same [complexity] as in an
R-Tree" (signatures ride the MBR-maintenance passes), whereas the
MIR2-Tree "significantly increases the complexity of the tree maintenance
operations" because every affected ancestor requires re-reading all
underlying objects.  Verdict: "for frequently updated datasets, IR2-Tree
is the choice."

This experiment inserts and deletes a batch of objects into each tree
variant and reports the mean disk accesses per operation.
"""

from __future__ import annotations

import pytest

from conftest import emit_text
from repro.bench import format_table
from repro.core import Corpus, IR2Index, MIR2Index, RTreeIndex
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator

#: Deliberately small: MIR2 insert cost is O(subtree object reads).
N_OBJECTS = 400
N_OPS = 20


def _fresh_setup():
    config = DatasetConfig(
        name="maint",
        n_objects=N_OBJECTS + N_OPS,
        vocabulary_size=2_000,
        avg_unique_words=30,
        seed=5,
    )
    objects = SpatialTextDatasetGenerator(config).generate()
    corpus = Corpus()
    pointers = corpus.add_all(objects)
    return objects, pointers, corpus


@pytest.fixture(scope="module")
def costs():
    objects, pointers, corpus = _fresh_setup()
    base, extra = objects[:N_OBJECTS], objects[N_OBJECTS:]
    base_ptrs, extra_ptrs = pointers[:N_OBJECTS], pointers[N_OBJECTS:]
    rows = []
    results = {}
    for make in (
        lambda: RTreeIndex(corpus),
        lambda: IR2Index(corpus, 16),
        lambda: MIR2Index(corpus, 16),
    ):
        index = make()
        # Build over the base set only (the extra objects are in the
        # corpus but not the index; build() indexes everything, so build
        # manually via insert on an empty bulk-loaded shell).
        index.build(bulk=True)
        for pointer, obj in zip(extra_ptrs, extra):
            index.delete_object(pointer, obj)  # ensure only base remains
        index.reset_io()

        before = index.device.stats.snapshot()
        before_obj = corpus.device.stats.snapshot()
        for pointer, obj in zip(extra_ptrs, extra):
            index.insert_object(pointer, obj)
        insert_io = index.device.stats.snapshot().diff(before).merged_with(
            corpus.device.stats.snapshot().diff(before_obj)
        )

        before = index.device.stats.snapshot()
        before_obj = corpus.device.stats.snapshot()
        for pointer, obj in zip(extra_ptrs, extra):
            index.delete_object(pointer, obj)
        delete_io = index.device.stats.snapshot().diff(before).merged_with(
            corpus.device.stats.snapshot().diff(before_obj)
        )

        rows.append(
            (
                index.label,
                round(insert_io.total_accesses / N_OPS, 1),
                round(insert_io.random_accesses / N_OPS, 1),
                round(delete_io.total_accesses / N_OPS, 1),
                round(delete_io.random_accesses / N_OPS, 1),
            )
        )
        results[index.label] = (insert_io, delete_io)
    text = format_table(
        ("Index", "Insert blocks/op", "Insert random/op", "Delete blocks/op", "Delete random/op"),
        rows,
        title=f"Maintenance cost per operation ({N_OBJECTS} objects, {N_OPS} ops)",
    )
    emit_text("maintenance_costs", text)
    return results


def test_maintenance_ir2_close_to_rtree(costs):
    """IR2 insert I/O must stay within a small factor of the R-Tree's."""
    rtree_insert, _ = costs["RTREE"]
    ir2_insert, _ = costs["IR2"]
    assert ir2_insert.total_accesses <= 4 * max(1, rtree_insert.total_accesses)


def test_maintenance_mir2_much_more_expensive(costs):
    """MIR2 insert must cost far more than IR2 (object re-reads)."""
    ir2_insert, _ = costs["IR2"]
    mir2_insert, _ = costs["MIR2"]
    assert mir2_insert.total_accesses > 5 * max(1, ir2_insert.total_accesses)


@pytest.mark.parametrize("kind", ["rtree", "ir2", "mir2"])
def test_maintenance_insert_wallclock(benchmark, costs, kind):
    """Wall-clock of one insert into a freshly built index."""
    objects, pointers, corpus = _fresh_setup()
    base = objects[:N_OBJECTS]
    if kind == "rtree":
        index = RTreeIndex(corpus)
    elif kind == "ir2":
        index = IR2Index(corpus, 16)
    else:
        index = MIR2Index(corpus, 16)
    index.build(bulk=True)
    for pointer, obj in zip(pointers[N_OBJECTS:], objects[N_OBJECTS:]):
        index.delete_object(pointer, obj)
    extra = list(zip(pointers[N_OBJECTS:], objects[N_OBJECTS:]))
    state = {"i": 0}

    def one_insert():
        pointer, obj = extra[state["i"] % len(extra)]
        if state["i"] >= len(extra):
            index.delete_object(pointer, obj)
        index.insert_object(pointer, obj)
        state["i"] += 1

    benchmark.pedantic(one_insert, rounds=5, iterations=1)
