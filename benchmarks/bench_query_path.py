"""Layer profile of a served read: CPU per query and fixed-cost call counts.

Two paths over a Restaurants-shaped corpus (seed 7) of 2,000 objects,
each on one thread:

* ``sharded``: perfbench hot_planned-shaped queries (k=10, one to three
  keywords, a fifth of them area queries, 30% repeats of eight hot
  queries, 1% ranked) through ``ShardedEngine.search`` on a two-shard
  ``auto`` engine with keyword partitioning, its metrics attached as a
  ``QueryService`` attaches them;
* ``service``: perfbench read_write-shaped queries (no repeats, no
  ranked) through ``QueryService.search`` on an ``ir2`` engine with
  batching off.

For each path it prints the median CPU microseconds per query over
``--rounds`` timed passes (``time.process_time``, so a pool hop's
worker thread counts too) and, from one counting pass, these calls per
query:

* ``normalizations``: ``Analyzer.query_terms``;
* ``decides``: ``QueryPlanner.decide``;
* ``postings_decodes``: ``RawCodec.decode``, and ``unpacks``: the
  ``struct`` unpacking calls they make (seen by a profile hook);
* ``registry_lookups``: ``MetricsRegistry.counter`` / ``.gauge`` /
  ``.histogram`` after a warm-up pass;
* ``pool_hops``: reads whose record names another thread than the
  caller's (service path).

``--check`` gates the counts exactly: one normalization per search, one
decide per planned shard visit (the shard reports that carry a
strategy), at most one ``struct`` unpacking call per postings decode, no registry
lookup once every metric is bound, and no pool hop for a synchronous
read.  The times are machine-dependent and never gated.

Usage::

    python benchmarks/bench_query_path.py --quick --check
    python benchmarks/bench_query_path.py --queries 1500 --rounds 5
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import statistics
import sys
import threading
import time
from contextlib import contextmanager

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import repro.text.codecs as codecs  # noqa: E402
from repro.bench.workloads import ConcurrentLoadGenerator  # noqa: E402
from repro.core.engine import SpatialKeywordEngine  # noqa: E402
from repro.core.ranking import DistanceDecayRanking  # noqa: E402
from repro.datasets import SpatialTextDatasetGenerator  # noqa: E402
from repro.datasets.generator import restaurants_config  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.plan.planner import QueryPlanner, attach_planner_metrics  # noqa: E402
from repro.serve import QueryService  # noqa: E402
from repro.shard import ShardedEngine  # noqa: E402
from repro.text.analyzer import Analyzer  # noqa: E402

COUNTS = (
    "normalizations", "decides", "postings_decodes", "unpacks",
    "registry_lookups", "pool_hops",
)


def make_objects(n_objects: int = 2000):
    config = dataclasses.replace(
        restaurants_config(scale=n_objects / 456_288, seed=7),
        n_objects=n_objects,
    )
    return SpatialTextDatasetGenerator(config).generate()


def make_queries(objects, count: int, seed: int, hot: bool) -> list:
    """A perfbench-shaped mix: hot_planned's with ``hot``, else read_write's."""
    rng = random.Random(seed)
    generator = ConcurrentLoadGenerator(objects, Analyzer(), seed=seed)
    spans = [
        max(obj.point[d] for obj in objects) - min(obj.point[d] for obj in objects)
        for d in range(len(objects[0].point))
    ]
    ranking = DistanceDecayRanking(half_distance=max(spans) * 0.1)
    pool = [generator.query(1 + i % 3, 10) for i in range(8)]
    queries = []
    for i in range(count):
        n_keywords = 1 + i % 3
        draw = rng.random()
        if hot and rng.random() < 0.3:
            query = rng.choice(pool)
        elif draw < 0.2:
            query = generator.area_query(n_keywords, 10, 0.05)
        elif hot and draw < 0.21:
            query = generator.query(n_keywords, 10).with_ranking(ranking)
        else:
            query = generator.query(n_keywords, 10)
        # A fresh object per request, as a client sends it.
        queries.append(dataclasses.replace(query))
    return queries


@contextmanager
def counting():
    """Count the fixed-cost calls of every path while the block runs."""
    counts = dict.fromkeys(COUNTS, 0)
    patches = []

    def wrap(owner, name, key):
        original = owner.__dict__[name]

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        patches.append((owner, name, original))
        setattr(owner, name, counted)

    wrap(Analyzer, "query_terms", "normalizations")
    wrap(QueryPlanner, "decide", "decides")
    for name in ("counter", "gauge", "histogram"):
        wrap(MetricsRegistry, name, "registry_lookups")
    decode = codecs.RawCodec.__dict__["decode"]

    def count_unpacks(frame, event, arg):
        if event == "c_call" and "unpack" in getattr(arg, "__name__", ""):
            counts["unpacks"] += 1

    def counted_decode(*args, **kwargs):
        # A profile hook sees every struct unpacking builtin the decode
        # calls, a precompiled ``struct.Struct``'s included.
        counts["postings_decodes"] += 1
        sys.setprofile(count_unpacks)
        try:
            return decode(*args, **kwargs)
        finally:
            sys.setprofile(None)

    patches.append((codecs.RawCodec, "decode", decode))
    codecs.RawCodec.decode = counted_decode
    try:
        yield counts
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def sharded_path(objects, queries):
    engine = ShardedEngine(n_shards=2, index="auto", partitioner="keyword")
    engine.add_all(objects)
    engine.build()
    engine.metrics = MetricsRegistry()
    attach_planner_metrics(engine, engine.metrics)
    return engine.search, None


def service_path(objects, queries):
    engine = SpatialKeywordEngine(index="ir2")
    engine.add_all(objects)
    engine.build()
    service = QueryService(engine, workers=2, batching=None, merge_threshold=64)
    return service.search, service


def cpu_us_per_query(search, queries, rounds: int) -> float:
    samples = []
    for _ in range(rounds):
        start = time.process_time()
        for query in queries:
            search(query)
        samples.append((time.process_time() - start) / len(queries) * 1e6)
    return statistics.median(samples)


def measure(name, build, objects, queries, rounds: int) -> dict:
    search, service = build(objects, queries)
    try:
        for query in queries:  # warm-up: interns, plan cache, metric handles
            search(query)
        caller = threading.current_thread().name
        with counting() as counts:
            executions = [search(query) for query in queries]
        planned = sum(
            1
            for execution in executions
            for report in execution.shards or ()
            if report["strategy"] is not None
        )
        if service is not None:
            counts["pool_hops"] = sum(
                1 for e in executions if e.trace.worker != caller
            )
        cpu = cpu_us_per_query(search, queries, rounds)
    finally:
        if service is not None:
            service.close()
    n = len(queries)
    return {
        "path": name,
        "queries": n,
        "cpu_us_per_query": round(cpu, 1),
        "per_query": {key: round(value / n, 3) for key, value in counts.items()},
        "counts": counts,
        "planned_shard_visits": planned,
        "sharded": service is None,
    }


def check(row: dict) -> list[str]:
    counts, n = row["counts"], row["queries"]
    failures = []
    if counts["normalizations"] != n:
        failures.append(f"{counts['normalizations']} normalizations for {n} searches")
    if row["sharded"] and counts["decides"] != row["planned_shard_visits"]:
        failures.append(
            f"{counts['decides']} decides for "
            f"{row['planned_shard_visits']} planned shard visits"
        )
    if counts["unpacks"] > counts["postings_decodes"]:
        failures.append(
            f"{counts['unpacks']} unpacks for "
            f"{counts['postings_decodes']} postings decodes"
        )
    if row["sharded"] and counts["postings_decodes"] == 0:
        failures.append("no postings list was decoded")
    if counts["registry_lookups"]:
        failures.append(f"{counts['registry_lookups']} registry lookups")
    if counts["pool_hops"]:
        failures.append(f"{counts['pool_hops']} synchronous reads hopped threads")
    return [f"{row['path']}: {failure}" for failure in failures]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="300 queries, one timed round")
    parser.add_argument("--queries", type=int, default=1500)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--check", action="store_true",
                        help="gate the call counts exactly (never the times)")
    parser.add_argument("--out", help="write the rows as JSON here")
    args = parser.parse_args(argv)
    count, rounds = (300, 1) if args.quick else (args.queries, args.rounds)
    objects = make_objects()
    rows = [
        measure("sharded", sharded_path, objects,
                make_queries(objects, count, args.seed, hot=True), rounds),
        measure("service", service_path, objects,
                make_queries(objects, count, args.seed, hot=False), rounds),
    ]
    for row in rows:
        counts = "  ".join(f"{k}={v}" for k, v in row["per_query"].items())
        print(f"{row['path']:8s} {row['queries']} queries  "
              f"{row['cpu_us_per_query']:8.1f} us CPU/query  per query: {counts}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
    if args.check:
        failures = [failure for row in rows for failure in check(row)]
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        if failures:
            return 1
        print("call counts OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
