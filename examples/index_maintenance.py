#!/usr/bin/env python3
"""IR2-Tree vs MIR2-Tree maintenance (Section IV's trade-off).

The MIR2-Tree prunes better (optimal per-level signature lengths) but,
because a parent signature cannot be derived from children of a different
length, every Insert/Delete must re-read all objects under each affected
ancestor.  The paper's verdict: "for frequently updated datasets,
IR2-Tree is the choice."

This example builds both trees over the same corpus, applies a stream of
updates, and prints the measured disk traffic of each — followed by a
query-cost comparison showing what the MIR2-Tree buys in return.

Run:
    python examples/index_maintenance.py
"""

from __future__ import annotations

from repro.core import Corpus, IR2Index, MIR2Index
from repro.core.query import SpatialKeywordQuery
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator

N_OBJECTS = 600
N_UPDATES = 25


def main() -> None:
    config = DatasetConfig(
        name="maintenance-demo",
        n_objects=N_OBJECTS + N_UPDATES,
        vocabulary_size=2_500,
        avg_unique_words=25,
        seed=42,
    )
    objects = SpatialTextDatasetGenerator(config).generate()
    corpus = Corpus()
    pointers = corpus.add_all(objects)
    base = list(zip(pointers[:N_OBJECTS], objects[:N_OBJECTS]))
    stream = list(zip(pointers[N_OBJECTS:], objects[N_OBJECTS:]))

    print(f"corpus: {len(corpus)} objects, "
          f"{corpus.vocabulary.unique_words} distinct words\n")

    for make in (lambda: IR2Index(corpus, 16), lambda: MIR2Index(corpus, 16)):
        index = make()
        index.build()
        # Keep only the base objects in the tree.
        for pointer, obj in stream:
            index.delete_object(pointer, obj)
        index.reset_io()

        # --- Measure the update stream. ---
        before_tree = index.device.stats.snapshot()
        before_objects = corpus.device.stats.snapshot()
        for pointer, obj in stream:
            index.insert_object(pointer, obj)
        for pointer, obj in stream:
            index.delete_object(pointer, obj)
        tree_io = index.device.stats.snapshot().diff(before_tree)
        object_io = corpus.device.stats.snapshot().diff(before_objects)

        ops = 2 * len(stream)
        print(f"{index.label}: {ops} updates")
        print(f"  tree blocks touched : {tree_io.total_accesses / ops:8.1f} per op")
        print(f"  objects re-read     : {object_io.objects_loaded / ops:8.1f} per op")

        # --- Measure query cost on the same tree. ---
        for pointer, obj in stream:
            index.insert_object(pointer, obj)
        index.reset_io()
        anchor = objects[7]
        keywords = sorted(corpus.analyzer.terms(anchor.text))[:2]
        query = SpatialKeywordQuery.of((0.0, 0.0), keywords, 10)
        execution = index.execute(query)
        print(f"  query {keywords!r}: {execution.io.random_accesses} random + "
              f"{execution.io.sequential_accesses} sequential accesses, "
              f"{execution.objects_inspected} objects inspected\n")

    print("the MIR2-Tree pays object re-reads on every update; "
          "the IR2-Tree's updates touch only the insertion path.")


if __name__ == "__main__":
    main()
