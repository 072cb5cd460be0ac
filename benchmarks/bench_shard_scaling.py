"""Shard scaling — scatter-gather fan-out vs one monolithic engine.

Reports per-query latency and aggregate I/O for the same IR2 corpus
served by 1, 2, 4, and 8 shards.  Answers must stay identical (tie-aware)
at every shard count — sharding is an execution strategy, never a
semantics change.  The interesting trade: partition-MBB pruning skips
whole shards (fewer blocks touched at higher counts on clustered data),
while fan-out adds per-shard fixed costs (each opened shard pays its own
root-to-leaf descent).

Run standalone (``python benchmarks/bench_shard_scaling.py``) for the
keyword-routing comparison: the same selective workload (rare query
terms, each held by only a handful of documents) against kd, grid, and
keyword-aware partitioning at a fixed shard count.  The JSON baseline
(``BENCH_PR9.json`` at the repo root) records the per-partitioner
fan-out; ``--check-routing`` gates *within* one run that the keyword
partitioner searches strictly fewer shards than every spatial
partitioner while all answers stay byte-identical to the single-engine
oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import pytest  # noqa: E402

from repro.bench import format_table  # noqa: E402
from repro.bench.workloads import WorkloadGenerator  # noqa: E402
from repro.core.engine import SpatialKeywordEngine  # noqa: E402
from repro.core.query import SpatialKeywordQuery  # noqa: E402
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator  # noqa: E402
from repro.shard import ShardedEngine  # noqa: E402

N_OBJECTS = 1_500
N_QUERIES = 24
SHARD_COUNTS = (1, 2, 4, 8)

DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_PR9.json")
ROUTING_PARTITIONERS = ("kd", "grid", "keyword")
FULL_ROUTING = dict(n_objects=1_500, n_shards=8, n_queries=24, k=5,
                    min_df=2, max_df=6)
QUICK_ROUTING = dict(n_objects=400, n_shards=4, n_queries=12, k=5,
                     min_df=2, max_df=6)


def _corpus():
    config = DatasetConfig(
        name="shard-scaling",
        n_objects=N_OBJECTS,
        vocabulary_size=3_000,
        avg_unique_words=25,
        clusters=8,
        seed=17,
    )
    return SpatialTextDatasetGenerator(config).generate()


def _queries(objects, analyzer):
    workload = WorkloadGenerator(objects, analyzer, seed=6)
    return workload.queries(N_QUERIES, 2, 10)


@pytest.fixture(scope="module")
def comparison():
    objects = _corpus()
    single = SpatialKeywordEngine(index="ir2")
    single.add_all(objects)
    single.build()
    queries = _queries(objects, single.analyzer)

    reference = [
        sorted((round(r.distance, 9), r.obj.oid) for r in single.search(q).results)
        for q in queries
    ]

    rows = []
    measured = {}
    for n_shards in SHARD_COUNTS:
        engine = ShardedEngine(n_shards=n_shards, index="ir2")
        engine.add_all(objects)
        engine.build()
        executions = [engine.search(q) for q in queries]
        answers = [
            sorted((round(r.distance, 9), r.obj.oid) for r in e.results)
            for e in executions
        ]
        random_reads = sum(e.io.random_reads for e in executions)
        seq_reads = sum(e.io.sequential_reads for e in executions)
        nodes = sum(e.nodes_visited for e in executions)
        simulated = sum(e.simulated_ms() for e in executions)
        pruned = sum(
            sum(1 for r in e.shards if r["pruned"]) for e in executions
        )
        rows.append((
            n_shards,
            round(random_reads / N_QUERIES, 1),
            round(seq_reads / N_QUERIES, 1),
            round(nodes / N_QUERIES, 1),
            round(simulated / N_QUERIES, 2),
            round(pruned / N_QUERIES, 2),
        ))
        measured[n_shards] = answers
    from conftest import emit_text

    text = format_table(
        ("Shards", "Rand reads/q", "Seq reads/q", "Nodes/q",
         "Simulated ms/q", "Shards pruned/q"),
        rows,
        title=f"Shard scaling: IR2 scatter-gather ({N_OBJECTS} objects, "
              f"{N_QUERIES} queries)",
    )
    emit_text("shard_scaling", text)
    return reference, measured


def test_sharding_preserves_answers(comparison):
    """Every shard count returns the single engine's (distance, oid) sets."""
    reference, measured = comparison
    for n_shards, answers in measured.items():
        for got, expected in zip(answers, reference):
            got_dists = [d for d, _ in got]
            expected_dists = [d for d, _ in expected]
            assert got_dists == expected_dists, f"n_shards={n_shards}"


@pytest.mark.parametrize(
    "n_shards", SHARD_COUNTS, ids=[f"shards{n}" for n in SHARD_COUNTS]
)
def test_shard_query_wallclock(benchmark, comparison, n_shards):
    """Wall-clock of the query batch at each shard count."""
    objects = _corpus()
    engine = (
        ShardedEngine(n_shards=n_shards, index="ir2")
        if n_shards > 1
        else SpatialKeywordEngine(index="ir2")
    )
    engine.add_all(objects)
    engine.build()
    queries = _queries(objects, engine.analyzer)[:8]

    def run():
        for query in queries:
            engine.search(query)

    benchmark.pedantic(run, rounds=2, iterations=1)


# ---------------------------------------------------------------------------
# Standalone mode: keyword-aware routing vs spatial partitioning
# ---------------------------------------------------------------------------


def _routing_corpus(n_objects: int):
    config = DatasetConfig(
        name="shard-routing",
        n_objects=n_objects,
        vocabulary_size=3_000,
        avg_unique_words=25,
        clusters=8,
        seed=17,
    )
    return SpatialTextDatasetGenerator(config).generate()


def _selective_queries(objects, analyzer, scale):
    """Rare-term point queries: each term held by only a few documents.

    The query point sits at one holder's location, so the single-engine
    answer is non-trivial; with only ``min_df..max_df`` holders, a
    clustering partitioner can confine each term to one or two shards.
    """
    df: dict[str, int] = {}
    holder: dict[str, tuple] = {}
    for obj in objects:
        for term in analyzer.terms(obj.text):
            df[term] = df.get(term, 0) + 1
            holder.setdefault(term, obj.point)
    rare = sorted(
        term for term, count in df.items()
        if scale["min_df"] <= count <= scale["max_df"]
    )
    if len(rare) < scale["n_queries"]:
        raise RuntimeError(
            f"workload too dense: only {len(rare)} rare terms"
        )
    step = max(1, len(rare) // scale["n_queries"])
    picked = rare[::step][: scale["n_queries"]]
    return [
        SpatialKeywordQuery.of(holder[term], [term], scale["k"])
        for term in picked
    ]


def _answer_key(execution):
    return sorted(
        (round(r.distance, 9), r.obj.oid) for r in execution.results
    )


def run_routing(quick: bool):
    scale = QUICK_ROUTING if quick else FULL_ROUTING
    objects = _routing_corpus(scale["n_objects"])
    single = SpatialKeywordEngine(index="ir2")
    single.add_all(objects)
    single.build()
    queries = _selective_queries(objects, single.analyzer, scale)
    oracle = [_answer_key(single.search(q)) for q in queries]

    cells = []
    table_rows = []
    for partitioner in ROUTING_PARTITIONERS:
        engine = ShardedEngine(
            n_shards=scale["n_shards"], partitioner=partitioner, index="ir2"
        )
        engine.add_all(objects)
        engine.build()
        executions = [engine.search(q) for q in queries]
        searched = [
            sum(1 for r in e.shards if not r["pruned"]) for e in executions
        ]
        kw_pruned = [
            sum(1 for r in e.shards if r.get("pruned_by_keywords"))
            for e in executions
        ]
        mismatches = sum(
            1 for e, want in zip(executions, oracle)
            if _answer_key(e) != want
        )
        random_reads = sum(e.io.random_reads for e in executions)
        nodes = sum(e.nodes_visited for e in executions)
        simulated = sum(e.simulated_ms() for e in executions)
        n = len(queries)
        cell = {
            "partitioner": partitioner,
            "fanout_avg": round(sum(searched) / n, 3),
            "fanout_max": max(searched),
            "keyword_pruned_avg": round(sum(kw_pruned) / n, 3),
            "random_reads_per_query": round(random_reads / n, 1),
            "nodes_per_query": round(nodes / n, 1),
            "simulated_ms_per_query": round(simulated / n, 3),
            "answer_mismatches": mismatches,
        }
        cells.append(cell)
        table_rows.append((
            partitioner, cell["fanout_avg"], cell["fanout_max"],
            cell["keyword_pruned_avg"], cell["random_reads_per_query"],
            cell["simulated_ms_per_query"], mismatches,
        ))
        print(
            f"[bench] {partitioner}: fan-out {cell['fanout_avg']}/"
            f"{scale['n_shards']} shards, {mismatches} mismatches",
            flush=True,
        )
    print(format_table(
        ("Partitioner", "Fanout avg", "Fanout max", "Kw-pruned avg",
         "Rand reads/q", "Simulated ms/q", "Mismatches"),
        table_rows,
        title=f"Keyword-selective routing: {scale['n_objects']} objects, "
              f"{scale['n_shards']} shards, {len(queries)} rare-term "
              f"queries",
    ))
    return {"scale": dict(scale), "partitioners": cells}


def check_routing(payload) -> list[str]:
    """Within-run gate: keyword fan-out strictly beats every spatial
    partitioner, with zero answer drift anywhere."""
    failures = []
    by_kind = {cell["partitioner"]: cell for cell in payload["partitioners"]}
    keyword = by_kind["keyword"]
    for kind, cell in by_kind.items():
        if cell["answer_mismatches"]:
            failures.append(
                f"{kind}: {cell['answer_mismatches']} answers differ "
                f"from the single-engine oracle"
            )
    for kind in ("kd", "grid"):
        if keyword["fanout_avg"] >= by_kind[kind]["fanout_avg"]:
            failures.append(
                f"keyword fan-out {keyword['fanout_avg']} not below "
                f"{kind} fan-out {by_kind[kind]['fanout_avg']}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Keyword-aware routing vs spatial partitioning"
    )
    parser.add_argument("--quick", action="store_true",
                        help="small CI configuration")
    parser.add_argument("--out", default=None,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--check-routing", action="store_true",
                        help="exit 2 unless the keyword partitioner "
                             "searches strictly fewer shards than every "
                             "spatial partitioner within this run, with "
                             "answers byte-identical to the oracle")
    args = parser.parse_args(argv)

    payload = {
        "benchmark": "keyword-routing",
        "mode": "quick" if args.quick else "full",
        "results": run_routing(args.quick),
    }
    out = args.out or DEFAULT_OUT
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench] wrote {out}")

    if args.check_routing:
        failures = check_routing(payload["results"])
        if failures:
            for failure in failures:
                print(f"[bench] FAIL: {failure}", file=sys.stderr)
            return 2
        print("[bench] routing gate passed: keyword fan-out beats every "
              "spatial partitioner, answers identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
