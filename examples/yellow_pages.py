#!/usr/bin/env python3
"""Online yellow pages: the paper's motivating application at scale.

"Online yellow pages allow users to specify an address and a set of
keywords.  In return, the user obtains a list of businesses whose
description contains these keywords, ordered by their distance from the
specified address." (Section I)

This example generates a synthetic city of businesses (a scaled
Restaurants-like corpus), builds all four index structures over it, and
serves the same queries from each — printing the answers once and the
per-algorithm cost so the IR2-Tree's advantage is visible on real output.

Run:
    python examples/yellow_pages.py [n_businesses]
"""

from __future__ import annotations

import sys

from repro.core import Corpus, IIOIndex, IR2Index, MIR2Index, RTreeIndex
from repro.core.query import SpatialKeywordQuery
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator


def build_city(n_businesses: int) -> tuple[Corpus, list]:
    """A synthetic city: clustered businesses with short descriptions."""
    config = DatasetConfig(
        name="city",
        n_objects=n_businesses,
        vocabulary_size=max(500, n_businesses // 4),
        avg_unique_words=12,
        clusters=12,
        cluster_std=1.5,
        extent=((25.60, 26.00), (-80.40, -80.00)),  # greater Miami
        seed=2008,
    )
    objects = SpatialTextDatasetGenerator(config).generate()
    corpus = Corpus()
    corpus.add_all(objects)
    return corpus, objects


def main() -> None:
    n_businesses = int(sys.argv[1]) if len(sys.argv) > 1 else 4_000
    corpus, objects = build_city(n_businesses)
    print(f"city with {len(corpus)} businesses, "
          f"{corpus.vocabulary.unique_words} distinct description words")

    indexes = [
        RTreeIndex(corpus),
        IIOIndex(corpus),
        IR2Index(corpus, signature_bytes=8),
        MIR2Index(corpus, leaf_signature_bytes=8),
    ]
    for index in indexes:
        index.build()
        index.reset_io()

    # A user at a downtown address searches for two amenity keywords that
    # some business actually offers together.
    address = (25.77, -80.19)
    anchor = objects[len(objects) // 2]
    keywords = sorted(corpus.analyzer.terms(anchor.text))[:2]
    query = SpatialKeywordQuery.of(address, keywords, k=5)
    print(f"\nuser at {address} searches for {keywords!r}, top-5:\n")

    reference = None
    for index in indexes:
        execution = index.execute(query)
        if reference is None:
            reference = execution.oids
            for rank, result in enumerate(execution.results, start=1):
                print(f"  {rank}. business #{result.obj.oid} at "
                      f"({result.obj.point[0]:.4f}, {result.obj.point[1]:.4f}) "
                      f"distance {result.distance * 111:.2f} km*")
            print("\n  (* rough degrees-to-km conversion for display)\n")
        else:
            assert execution.oids == reference, "all algorithms must agree"
        print(f"  {index.label:>5}: {execution.io.random_accesses:5d} random + "
              f"{execution.io.sequential_accesses:5d} sequential block accesses, "
              f"{execution.objects_inspected:5d} objects inspected, "
              f"{execution.simulated_ms():9.1f} ms simulated disk time")

    print("\nall four algorithms returned identical results; "
          "the IR2/MIR2 trees did it with the least disk work.")


if __name__ == "__main__":
    main()
