"""Command-line interface: ``python -m repro <command>``.

Five subcommands cover the typical lifecycle:

``generate``
    Write a synthetic dataset (Hotels/Restaurants statistics) as a
    tab-delimited file — or convert nothing: any TSV of
    ``id <TAB> lat <TAB> lon <TAB> text`` works as input to ``build``.

``build``
    Index a TSV dataset into a persistent engine directory.

``query``
    Run a distance-first (or ranked) top-k spatial keyword query against
    a saved engine and print results plus the paper's cost metrics.

``stats``
    Print dataset statistics (Table 1 shape) and the index footprint for
    a saved engine.

``serve``
    Replay a concurrent query workload against a saved engine through the
    :mod:`repro.serve` service layer (thread pool + result cache) and
    report throughput, cache, and latency statistics; ``--batched``
    routes the workload through the batch front-end (grouping,
    duplicate coalescing, shared block reads), ``--serve-trace`` dumps
    every per-query trace span as JSON, ``--serve-metrics`` the metrics
    snapshot (histograms, counters, gauges) plus the slow-query log.

``metrics``
    Probe a saved engine with a small seeded workload and print the
    resulting metrics snapshot as JSON — the quickest way to see which
    metric names and histogram buckets a deployment exports.
    ``--prometheus`` prints the snapshot in the Prometheus text
    exposition format instead.

``workload``
    Analyze a captured query log (``serve --query-log``): term
    frequency and co-occurrence, selectivity bands, spatial hot-spot
    histogram, planner won/lost aggregates, I/O and latency
    distributions.  ``--json`` exports the machine-readable report
    that query-log-driven repartitioning and learned cost models
    consume.

``replay``
    Deterministically re-execute a captured query log against a saved
    engine — optionally repartitioned (``--shards``/``--partitioner``)
    or batched — and diff every answer against its recorded digest.
    Exits non-zero on any mismatch or an I/O-per-query regression
    beyond ``--io-threshold``: the workload regression gate.

``trace``
    Run one query under the hierarchical tracer and print its span tree
    as a text cost report — per tree level, how many nodes were visited
    and how many entries the signatures pruned; how many objects were
    loaded and how many were false positives; the random/sequential
    block-read split.  ``--chrome`` additionally writes the trace as
    Chrome trace-event JSON for Perfetto / ``chrome://tracing``.

``verify``
    Check an on-disk engine directory's integrity: manifest parse and
    version, per-file SHA-256 digests, shard layout, and a full load.
    Exits non-zero on any corruption.

``plan explain``
    Price one query under every candidate strategy of an adaptive
    (``--index auto``) engine and show which one the cost-based planner
    picks, with the statistics (keyword document frequencies, spatial
    density, selectivity) the estimates came from.  Per shard for a
    sharded engine.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro import SpatialKeywordEngine
from repro.core.corpus import CorpusStats
from repro.datasets import (
    SpatialTextDatasetGenerator,
    hotels_config,
    iter_tsv,
    restaurants_config,
    save_tsv,
)
from repro.errors import ReproError
from repro.persist import load_engine, save_engine, verify_engine
from repro.shard import ShardedEngine


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema (exposed for tests and docs tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-k spatial keyword search (IR2-Tree reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic dataset as a TSV file"
    )
    generate.add_argument("--dataset", choices=("hotels", "restaurants"),
                          default="hotels")
    generate.add_argument("--scale", type=float, default=0.01,
                          help="fraction of the paper's object count")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True, help="output TSV path")

    build = commands.add_parser(
        "build", help="index a TSV dataset into an engine directory"
    )
    build.add_argument("--data", required=True, help="input TSV path")
    build.add_argument("--out", required=True, help="engine directory")
    build.add_argument("--index",
                       choices=("rtree", "iio", "ir2", "mir2", "sig", "auto"),
                       default="ir2")
    build.add_argument("--auto-kinds", nargs="+", metavar="KIND",
                       help="candidate strategies for --index auto "
                            "(default: ir2 iio)")
    build.add_argument("--signature-bytes", type=int, default=16)
    build.add_argument("--bits-per-word", type=int, default=3)
    build.add_argument("--block-size", type=int, default=4096)
    build.add_argument("--compression", choices=("raw", "varint"),
                       default="raw",
                       help="IIO posting codec (ignored by other indexes)")
    build.add_argument("--insert-build", action="store_true",
                       help="build by repeated insertion instead of bulk load")
    build.add_argument("--shards", type=int, default=1,
                       help="partition the dataset across N engines "
                            "(1 = a plain single engine)")
    build.add_argument("--partitioner", choices=("kd", "grid", "keyword"),
                       default="kd",
                       help="partitioning strategy for --shards > 1: spatial "
                            "kd/grid, or keyword-aware term clustering")

    query = commands.add_parser(
        "query", help="run a top-k spatial keyword query"
    )
    query.add_argument("--engine", required=True, help="engine directory")
    query.add_argument("--point", nargs=2, type=float, required=True,
                       metavar=("LAT", "LON"))
    query.add_argument("--keywords", nargs="+", required=True)
    query.add_argument("-k", type=int, default=10)
    query.add_argument("--ranked", action="store_true",
                       help="rank by f(distance, IRscore) instead of "
                            "conjunctive distance-first")
    query.add_argument("--json", action="store_true",
                       help="print the full execution payload as JSON "
                            "instead of the human-readable listing")

    stats = commands.add_parser(
        "stats", help="dataset and index statistics for a saved engine"
    )
    stats.add_argument("--engine", required=True, help="engine directory")

    serve = commands.add_parser(
        "serve", help="replay a concurrent workload through the service layer"
    )
    serve.add_argument("--engine", required=True, help="engine directory")
    serve.add_argument("--queries", type=int, default=64,
                       help="number of queries in the batch")
    serve.add_argument("--workers", type=int, default=8,
                       help="query worker threads")
    serve.add_argument("--num-keywords", type=int, default=2)
    serve.add_argument("-k", type=int, default=10)
    serve.add_argument("--seed", type=int, default=42,
                       help="workload RNG seed")
    serve.add_argument("--hot-fraction", type=float, default=0.5,
                       help="fraction of the batch repeating a hot query set")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
    serve.add_argument("--serve-trace", metavar="PATH",
                       help="write per-query trace spans and execution "
                            "payloads as JSON to PATH")
    serve.add_argument("--serve-metrics", metavar="PATH",
                       help="write the metrics snapshot (per-stage latency "
                            "histograms, fan-out counters, storage gauges) "
                            "and the slow-query log as JSON to PATH")
    serve.add_argument("--slow-query-ms", type=float, default=100.0,
                       help="total-latency threshold for the slow-query log")
    serve.add_argument("--shards", type=int, default=0,
                       help="re-partition the loaded engine across N shards "
                            "before serving (0 = keep the saved layout)")
    serve.add_argument("--trace-sample", type=int, default=0, metavar="N",
                       help="hierarchically trace every Nth query (plus "
                            "anything over --slow-query-ms); 0 disables "
                            "the tracer unless --trace-export is given")
    serve.add_argument("--trace-export", metavar="PATH",
                       help="write the retained span trees as Chrome "
                            "trace-event JSON to PATH (implies sampling, "
                            "default every 8th query)")
    serve.add_argument("--batched", action="store_true",
                       help="serve through the batch front-end: group "
                            "submissions, coalesce duplicates, and share "
                            "block reads within each group")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="maximum queries per batch group")
    serve.add_argument("--merge-threshold", type=int, default=64,
                       metavar="N",
                       help="buffered writes that trigger a background "
                            "merge of the write buffer")
    serve.add_argument("--writes", type=int, default=0, metavar="N",
                       help="stream N insert+delete pairs concurrently with "
                            "the query workload (exercises online "
                            "maintenance)")
    serve.add_argument("--max-pending", type=int, default=0,
                       help="admission bound: shed submissions beyond this "
                            "many in flight (0 = never shed)")
    serve.add_argument("--query-log", metavar="PATH",
                       help="capture every answered query as one JSON-lines "
                            "record at PATH (shape, plan, fan-out, I/O, "
                            "latency, result digest) for later 'workload' "
                            "analysis and 'replay' regression gating")
    serve.add_argument("--query-log-sample", type=int, default=1,
                       metavar="N",
                       help="capture every Nth query (bounds logging "
                            "overhead on hot services; default 1 = all)")

    metrics = commands.add_parser(
        "metrics", help="probe a saved engine and print its metrics snapshot"
    )
    metrics.add_argument("directory", help="engine directory to probe")
    metrics.add_argument("--queries", type=int, default=32,
                         help="probe workload size")
    metrics.add_argument("--workers", type=int, default=4,
                         help="query worker threads for the probe")
    metrics.add_argument("--seed", type=int, default=42,
                         help="probe workload RNG seed")
    metrics.add_argument("--out", metavar="PATH",
                         help="also write the snapshot JSON to PATH")
    metrics.add_argument("--prometheus", action="store_true",
                         help="print the metrics snapshot in the Prometheus "
                              "text exposition format instead of JSON")

    workload = commands.add_parser(
        "workload", help="analyze a captured query log"
    )
    workload.add_argument("log", help="query log path (serve --query-log)")
    workload.add_argument("--json", metavar="PATH",
                          help="also write the machine-readable report to "
                               "PATH ('-' prints JSON to stdout)")
    workload.add_argument("--top", type=int, default=32,
                          help="terms / co-occurring pairs to keep")
    workload.add_argument("--cells", type=int, default=8,
                          help="hot-spot histogram cells per dimension")

    replay = commands.add_parser(
        "replay", help="re-execute a captured query log and diff the answers"
    )
    replay.add_argument("log", help="query log path (serve --query-log)")
    replay.add_argument("engine", help="engine directory to replay against")
    replay.add_argument("--shards", type=int, default=0,
                        help="re-partition the loaded engine across N shards "
                             "before replaying (0 = keep the saved layout)")
    replay.add_argument("--partitioner", choices=("kd", "grid", "keyword"),
                        default="kd",
                        help="partitioning strategy for --shards > 1")
    replay.add_argument("--workers", type=int, default=1,
                        help="query worker threads (1 = deterministic "
                             "serial replay)")
    replay.add_argument("--batched", action="store_true",
                        help="replay through the batch front-end in "
                             "--max-batch groups")
    replay.add_argument("--max-batch", type=int, default=16)
    replay.add_argument("--no-cache", action="store_true",
                        help="disable the result cache during replay")
    replay.add_argument("--io-threshold", type=float, default=1.5,
                        help="maximum allowed replayed/recorded total-reads "
                             "ratio (0 disables the cost gate)")
    replay.add_argument("--limit", type=int, default=0,
                        help="replay only the first N records (0 = all)")
    replay.add_argument("--json", metavar="PATH",
                        help="also write the replay report to PATH "
                             "('-' prints JSON to stdout)")

    trace = commands.add_parser(
        "trace", help="explain one query's cost as a span tree"
    )
    trace.add_argument("--engine", required=True, help="engine directory")
    trace.add_argument("--point", nargs=2, type=float, required=True,
                       metavar=("LAT", "LON"))
    trace.add_argument("--keywords", nargs="+", required=True)
    trace.add_argument("-k", type=int, default=10)
    trace.add_argument("--ranked", action="store_true",
                       help="rank by f(distance, IRscore) instead of "
                            "conjunctive distance-first")
    trace.add_argument("--chrome", metavar="PATH",
                       help="also write the trace as Chrome trace-event "
                            "JSON to PATH (Perfetto-loadable)")
    trace.add_argument("--json", action="store_true",
                       help="print the span tree as JSON instead of the "
                            "text report")

    verify = commands.add_parser(
        "verify", help="check an on-disk engine directory's integrity"
    )
    verify.add_argument("directory", help="engine directory to check")
    verify.add_argument("--json", action="store_true",
                        help="print the full verification report as JSON")
    verify.add_argument("--no-load", action="store_true",
                        help="digest and layout checks only; skip the "
                             "full engine load")

    plan = commands.add_parser(
        "plan", help="inspect the adaptive planner's routing decisions"
    )
    plan_commands = plan.add_subparsers(dest="plan_command", required=True)
    explain = plan_commands.add_parser(
        "explain",
        help="price one query under every candidate strategy",
    )
    explain.add_argument("--engine", required=True, help="engine directory")
    explain.add_argument("--point", nargs=2, type=float, required=True,
                         metavar=("LAT", "LON"))
    explain.add_argument("--keywords", nargs="+", required=True)
    explain.add_argument("-k", type=int, default=10)
    explain.add_argument("--ranked", action="store_true",
                         help="price the ranked execution path instead of "
                              "the conjunctive distance-first one")
    explain.add_argument("--json", action="store_true",
                         help="print the full breakdown as JSON")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "workload":
            return _cmd_workload(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "plan":
            return _cmd_plan(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0  # pragma: no cover - argparse enforces a command


def _cmd_generate(args) -> int:
    config_factory = hotels_config if args.dataset == "hotels" else restaurants_config
    config = config_factory(scale=args.scale, seed=args.seed)
    objects = SpatialTextDatasetGenerator(config).generate()
    count = save_tsv(args.out, objects)
    print(f"wrote {count} {args.dataset} objects to {args.out}")
    return 0


def _cmd_build(args) -> int:
    engine_kwargs = dict(
        index=args.index,
        signature_bytes=args.signature_bytes,
        bits_per_word=args.bits_per_word,
        block_size=args.block_size,
        compression=args.compression,
        auto_kinds=args.auto_kinds,
    )
    if args.shards > 1:
        engine = ShardedEngine(
            n_shards=args.shards, partitioner=args.partitioner, **engine_kwargs
        )
    else:
        engine = SpatialKeywordEngine(**engine_kwargs)
    count = 0
    for obj in iter_tsv(args.data):
        engine.add(obj)
        count += 1
    engine.build(bulk=not args.insert_build)
    manifest = save_engine(engine, args.out)
    print(f"indexed {count} objects with {_engine_label(engine)}, "
          f"saved to {manifest}")
    print(f"index size: {engine.index_size_mb():.2f} MB")
    return 0


def _cmd_query(args) -> int:
    engine = load_engine(args.engine)
    if args.ranked:
        execution = engine.query_ranked(tuple(args.point), args.keywords, k=args.k)
    else:
        execution = engine.query(tuple(args.point), args.keywords, k=args.k)
    if args.json:
        print(json.dumps(execution.to_dict(), indent=2, sort_keys=True))
        return 0
    if not execution.results:
        print("no results")
    for rank, result in enumerate(execution.results, start=1):
        coords = ", ".join(f"{c:.4f}" for c in result.obj.point)
        line = f"{rank:3d}. #{result.obj.oid} ({coords}) dist={result.distance:.4f}"
        if args.ranked:
            line += f" score={result.score:.4f} ir={result.ir_score:.4f}"
        snippet = result.obj.text[:70]
        print(f"{line}  {snippet}")
    print(execution.summary())
    return 0


def _cmd_stats(args) -> int:
    engine = load_engine(args.engine)
    stats: CorpusStats = engine.corpus_stats()
    print(f"objects             : {stats.total_objects}")
    print(f"object file         : {stats.size_mb:.2f} MB")
    print(f"avg unique words/obj: {stats.avg_unique_words_per_object:.1f}")
    print(f"unique words        : {stats.unique_words}")
    print(f"avg blocks/object   : {stats.avg_blocks_per_object:.2f}")
    print(f"index kind          : {_engine_label(engine)}")
    print(f"index size          : {engine.index_size_mb():.2f} MB")
    return 0


def _cmd_serve(args) -> int:
    from repro.bench.workloads import ConcurrentLoadGenerator
    from repro.serve import QueryService

    engine = load_engine(args.engine)
    if args.shards > 1 and not isinstance(engine, ShardedEngine):
        engine = _repartition(engine, args.shards)
    objects = list(engine.objects())
    workload = ConcurrentLoadGenerator(objects, engine.analyzer, seed=args.seed)
    batch = workload.batch(
        args.queries,
        num_keywords=args.num_keywords,
        k=args.k,
        hot_fraction=args.hot_fraction,
    )
    tracer = None
    if args.trace_sample or args.trace_export:
        from repro.obs.trace import QueryTracer

        tracer = QueryTracer(sample_every=args.trace_sample or 8)
    batching = None
    if args.batched:
        from repro.serve import BatchConfig

        batching = BatchConfig(
            max_batch=args.max_batch,
            max_pending=args.max_pending or None,
        )
    with QueryService(
        engine, workers=args.workers, cache=not args.no_cache,
        slow_query_ms=args.slow_query_ms, tracer=tracer, batching=batching,
        merge_threshold=args.merge_threshold,
        query_log=args.query_log, query_log_sample=args.query_log_sample,
    ) as service:
        if args.writes > 0:
            # Dispatch the queries asynchronously and stream writes
            # underneath them: each donor object is cloned under a fresh
            # oid and deleted again, leaving the dataset unchanged while
            # the maintenance path (buffer, merges, invalidation) runs
            # under live read traffic.
            futures = service.submit_many(batch)
            next_oid = max((obj.oid for obj in objects), default=0) + 1
            for i in range(args.writes):
                donor = objects[i % len(objects)]
                service.add_object(next_oid + i, donor.point, donor.text)
                service.delete(next_oid + i)
            executions = [future.result() for future in futures]
        else:
            executions = service.run_batch(batch)
        stats = service.stats()
        maintenance_line = (
            f"maintenance: snapshot v{service.engine_version}, "
            f"{service.maintainer.merges} merges, "
            f"{service.buffer_depth} buffered writes"
        )
        if args.serve_trace:
            service.export_traces(args.serve_trace, executions=executions)
        if args.serve_metrics:
            service.export_metrics(args.serve_metrics)
        if args.trace_export:
            service.export_chrome_trace(args.trace_export)
        query_log = service.query_log
    print(f"served {stats.queries} queries with {args.workers} workers "
          f"over {_engine_label(engine)}")
    print(stats.summary())
    print(maintenance_line)
    if batching is not None:
        print(f"batched: {stats.batches} groups, {stats.coalesced} coalesced, "
              f"{stats.io.shared_reads} shared reads, {stats.shed} shed")
    if args.serve_trace:
        print(f"trace spans written to {args.serve_trace}")
    if args.serve_metrics:
        print(f"metrics snapshot written to {args.serve_metrics}")
    if args.query_log:
        print(f"query log: {query_log.written} records written to "
              f"{args.query_log} ({query_log.seen} queries seen, "
              f"{query_log.sampled} sampled, {query_log.dropped} dropped, "
              f"{query_log.rotations} rotations)")
    if args.trace_export:
        retained = len(tracer.traces())
        print(f"{retained} span trees ({tracer.seen} queries seen) "
              f"written to {args.trace_export}")
    return 0


def _cmd_metrics(args) -> int:
    from repro.bench.workloads import ConcurrentLoadGenerator
    from repro.serve import QueryService

    engine = load_engine(args.directory)
    objects = list(engine.objects())
    workload = ConcurrentLoadGenerator(objects, engine.analyzer, seed=args.seed)
    batch = workload.batch(args.queries, num_keywords=2, k=10, hot_fraction=0.5)
    with QueryService(engine, workers=args.workers) as service:
        service.run_batch(batch)
        if args.prometheus:
            rendered = service.export_metrics(fmt="prometheus")
            print(rendered, end="")
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(rendered)
            return 0
        stats = service.stats()
        payload = {
            "engine": _engine_label(engine),
            "probe_queries": stats.queries,
            "service": stats.as_dict(),
            "metrics": stats.metrics,
            "slow_queries": service.slow_log.as_dicts(),
        }
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return 0


def _cmd_workload(args) -> int:
    from repro.obs.querylog import read_query_log
    from repro.obs.workload import (
        analyze_query_log,
        render_workload_report,
        validate_workload_report,
    )

    records = read_query_log(args.log)
    report = analyze_query_log(
        records,
        cells_per_dim=args.cells,
        top_terms=args.top,
        top_pairs=args.top,
    )
    validate_workload_report(report)
    if args.json == "-":
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(render_workload_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    return 0


def _cmd_replay(args) -> int:
    from repro.obs.querylog import read_query_log
    from repro.obs.replay import render_replay_report, replay_query_log

    engine = load_engine(args.engine)
    if args.shards > 1 and not isinstance(engine, ShardedEngine):
        engine = _repartition(engine, args.shards, args.partitioner)
    records = read_query_log(args.log)
    report = replay_query_log(
        records,
        engine,
        workers=args.workers,
        batched=args.batched,
        max_batch=args.max_batch,
        cache=not args.no_cache,
        io_threshold=args.io_threshold or None,
        limit=args.limit or None,
    )
    if args.json == "-":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"replaying against {_engine_label(engine)}")
        print(render_replay_report(report))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
            print(f"report written to {args.json}")
    return 0 if report["ok"] else 1


def _cmd_trace(args) -> int:
    from repro.obs.trace import dump_chrome_trace, trace_query
    from repro.obs.tracereport import render_trace

    engine = load_engine(args.engine)
    with trace_query("query", k=args.k) as trace:
        if args.ranked:
            execution = engine.query_ranked(
                tuple(args.point), args.keywords, k=args.k
            )
        else:
            execution = engine.query(tuple(args.point), args.keywords, k=args.k)
    root = trace.root
    root.annotate(
        algorithm=execution.algorithm,
        keywords=list(args.keywords),
        num_results=len(execution.results),
    )
    if args.json:
        print(json.dumps(trace.as_dict(), indent=2, sort_keys=True))
    else:
        print(render_trace(trace))
        print(execution.summary())
    if args.chrome:
        dump_chrome_trace(
            args.chrome, [trace], extra={"engine": _engine_label(engine)}
        )
        if not args.json:
            print(f"chrome trace written to {args.chrome}")
    return 0


def _cmd_verify(args) -> int:
    report = verify_engine(args.directory, load=not args.no_load)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["ok"] else 1
    for check in report["checks"]:
        detail = f"  ({check['detail']})" if check["detail"] else ""
        print(f"{check['status']:>7}  {check['path']}{detail}")
    for warning in report["warnings"]:
        print(f"warning  {warning}")
    verdict = "ok" if report["ok"] else "CORRUPT"
    print(f"{report['directory']}: {verdict}")
    return 0 if report["ok"] else 1


def _cmd_plan(args) -> int:
    from repro.core.query import SpatialKeywordQuery
    from repro.core.ranking import DistanceDecayRanking
    from repro.errors import QueryError

    engine = load_engine(args.engine)
    ranking = DistanceDecayRanking(half_distance=1.0) if args.ranked else None
    query = SpatialKeywordQuery.of(
        tuple(args.point), args.keywords, args.k, ranking=ranking
    )
    if isinstance(engine, ShardedEngine):
        targets = [
            (f"shard {i}", shard.index)
            for i, shard in enumerate(engine.shards)
        ]
    else:
        targets = [("", engine.index)]
    reports = []
    for label, index in targets:
        explain = getattr(index, "explain", None)
        if explain is None:
            raise QueryError(
                "plan explain requires an adaptive engine "
                "(build it with --index auto)"
            )
        reports.append({"target": label, **explain(query)})
    if args.json:
        print(json.dumps({"reports": reports}, indent=2, sort_keys=True))
        return 0
    for report in reports:
        _print_plan_report(report)
    return 0


def _print_plan_report(report: dict) -> None:
    decision = report["decision"]
    prefix = f"{report['target']}: " if report["target"] else ""
    qualifiers = [decision["query_class"] + " query"]
    if decision.get("forced"):
        qualifiers.append("forced")
    if decision.get("cached"):
        qualifiers.append("cached")
    print(f"{prefix}chosen {decision['strategy']} "
          f"({', '.join(qualifiers)}, "
          f"est {decision['estimated_cost_ms']:.4f} ms)")
    estimates = decision["estimates"]
    width = max(len(kind) for kind in estimates)
    ranked_kinds = sorted(estimates, key=lambda k: estimates[k]["cost_ms"])
    for kind in ranked_kinds:
        row = estimates[kind]
        marker = "*" if kind == decision["strategy"] else " "
        print(f"  {marker} {kind:<{width}}  cost={row['cost_ms']:.4f} ms  "
              f"random={row['random_reads']:.1f}  "
              f"seq={row['sequential_reads']:.1f}  "
              f"objects={row['objects_loaded']:.1f}")
    stats = report["statistics"]
    frequencies = ", ".join(
        f"{term}:{df}" for term, df in sorted(stats["query_terms"].items())
    )
    print(f"  statistics: n={stats['documents']}  "
          f"selectivity={stats['selectivity']:.6g}  df[{frequencies}]  "
          f"stats_version={stats['version']}")


def _repartition(
    engine: SpatialKeywordEngine, n_shards: int, partitioner: str = "kd"
) -> ShardedEngine:
    """Spread a loaded single engine's corpus across a fresh sharded one."""
    sharded = ShardedEngine(
        n_shards=n_shards, partitioner=partitioner, index=engine.index_kind
    )
    sharded.add_all(engine.objects())
    sharded.build()
    return sharded


def _engine_label(engine) -> str:
    """Human-readable index label for either engine flavor."""
    if isinstance(engine, ShardedEngine):
        return f"{engine.index_kind.upper()} x{engine.n_shards} shards"
    return engine.index_kind.upper()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
