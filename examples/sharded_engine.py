#!/usr/bin/env python3
"""Sharded scatter-gather: one dataset, N engines, identical answers.

Partitions a synthetic city across four IR2-Tree shards with the
kd-partitioner, then:

* verifies sharded answers equal the single engine's, query for query,
* shows the per-shard cost breakdown — including shards pruned outright
  by their partition bounding box,
* round-trips the whole sharded layout through save/load,
* serves the sharded engine through the concurrent `QueryService`.

Run:
    python examples/sharded_engine.py
"""

from __future__ import annotations

import tempfile

from repro import ShardedEngine, SpatialKeywordEngine
from repro.bench.workloads import WorkloadGenerator
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.persist import load_engine, save_engine

N_OBJECTS = 1_200
N_SHARDS = 4
N_QUERIES = 12


def build_corpus():
    config = DatasetConfig(
        name="city",
        n_objects=N_OBJECTS,
        vocabulary_size=max(300, N_OBJECTS // 4),
        avg_unique_words=10,
        clusters=8,
        seed=2008,
    )
    return SpatialTextDatasetGenerator(config).generate()


def main() -> None:
    objects = build_corpus()

    single = SpatialKeywordEngine(index="ir2")
    single.add_all(objects)
    single.build()

    sharded = ShardedEngine(n_shards=N_SHARDS, partitioner="kd", index="ir2")
    sharded.add_all(objects)
    sharded.build()
    print(f"engines: IR2 over {len(single)} objects, "
          f"single vs {N_SHARDS} kd-partitioned shards")

    workload = WorkloadGenerator(objects, single.analyzer, seed=42)
    queries = workload.queries(N_QUERIES, num_keywords=2, k=5)

    pruned_total = 0
    for query in queries:
        ref = single.search(query)
        got = sharded.search(query)
        ref_dists = sorted(round(r.distance, 9) for r in ref.results)
        got_dists = sorted(round(r.distance, 9) for r in got.results)
        assert got_dists == ref_dists, (query.keywords, got.oids, ref.oids)
        pruned_total += sum(1 for report in got.shards if report["pruned"])
    print(f"answers identical on {N_QUERIES} queries "
          f"({pruned_total} shard visits pruned by partition MBBs)")

    execution = sharded.search(queries[0])
    print(f"\n{execution.summary()}")
    for report in execution.shards:
        status = "pruned" if report["pruned"] else (
            f"{report['nodes_visited']} nodes, "
            f"{report['objects_inspected']} objects"
        )
        print(f"  shard {report['shard']}: {status}")

    with tempfile.TemporaryDirectory() as directory:
        save_engine(sharded, directory)
        reloaded = load_engine(directory)
        assert reloaded.search(queries[0]).oids == execution.oids
        print(f"\nsave/load round-trip OK (digests verified, "
              f"{N_SHARDS} shard dirs)")

    with sharded.serve(workers=4) as service:
        batch = service.run_batch(queries)
        assert [e.oids for e in batch] == [
            sharded.search(q).oids for q in queries
        ]
        print(f"served {service.stats().queries} queries concurrently "
              "over the sharded engine")


if __name__ == "__main__":
    main()
