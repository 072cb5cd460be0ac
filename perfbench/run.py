"""The repository benchmark: one serving workload through ``QueryService``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hot_planned --seed 1 --seconds 30 --trace 0

The run builds the workload's engine and service, drives the generated
load for ``--seconds``, builds ``setups_per_run`` set-ups in all
(``setup_s`` is the median), checks every answer against the
brute-force oracle outside the timed regions, and prints two JSON lines:
a detail record (sample counts, generator lateness, exact counts,
failures) and, last, the result.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` repeats the load on a second, fresh set-up with
every layer's public callables wrapped (see ``tracing.py``) and reports
the per-layer metrics, the tracing overhead and the reconciliations.

The exit code is 0 only when every operation succeeded with a correct
answer.  Workloads, rates, latency limits and the layer -> metric ->
workload map live in ``spec.json``; ``README.md`` explains the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Largest accepted relative error of either reconciliation: traced
#: engine calls against the service's own engine timing, and layer self
#: times (less the parallel overlap) against the client latency.
RECONCILE_TOLERANCE = 0.02


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of raw samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def percentiles(values) -> dict:
    return {"p50": quantile(values, 0.5), "p99": quantile(values, 0.99),
            "max": max(values)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(phase, spec: dict, name: str, setup_times,
               rss_mb: float) -> tuple[dict, dict]:
    from repro.storage.timing import DEFAULT_DRIVE

    workload = spec["workloads"][name]
    answered = phase.answered
    latencies = [r.latency_ms for r in answered]
    slo_ms = workload["slo_ms"]
    good = sum(
        1 for r in answered if r.error is None and r.latency_ms <= slo_ms
    )
    costs = [r.execution for r in phase.counted]
    n = len(costs)
    wall_s = phase.ended - phase.started
    if workload["loop"] == "open":
        # An open loop completes at the offered rate whatever the program
        # costs; what the program determines is reads answered per
        # second of the (one) CPU it runs on.
        qps = len(answered) / phase.cpu_s
    else:
        qps = len(answered) / wall_s
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "qps": (qps, "1/s"),
        "p50_ms": (quantile(latencies, 0.50), "ms"),
        "slo_frac": (good / len(phase.reads), "frac"),
        "reads_per_query": (
            sum(e.io.random_reads + e.io.sequential_reads for e in costs) / n,
            "count",
        ),
        "objects_per_query": (sum(e.io.objects_loaded for e in costs) / n, "count"),
        "sim_ms_per_query": (
            sum(DEFAULT_DRIVE.simulated_ms(e.io) for e in costs) / n, "ms"
        ),
        "index_mb": (phase.index_mb, "MB"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "latency_samples": len(latencies),
        "latency_ms": {
            f"p{round(q * 100)}": quantile(latencies, q) for q in (0.9, 0.95, 0.99, 1.0)
        },
        "p99_samples_beyond": len(latencies) - math.ceil(0.99 * len(latencies)),
        "slo_ms": slo_ms,
        "reads_attempted": len(phase.reads),
        "reads_wrong": phase.wrong,
        "reads_shed": sum(1 for r in phase.reads if r.shed),
        "failed_frac": phase.failed / phase.attempted,
        "setup_s_samples": setup_times,
        "cost_counts_over": n,
        "random_reads_per_query": sum(e.io.random_reads for e in costs) / n,
        "cpu_ms_per_query": phase.cpu_s * 1000.0 / len(answered),
        "cpu_busy_frac": phase.cpu_s / wall_s,
        "answered_per_wall_s": len(answered) / wall_s,
    }
    if workload["loop"] == "open":
        late = [(r.sent - r.due) * 1000.0 for r in phase.reads]
        detail["generator_late_ms"] = percentiles(late)
    if phase.writes:
        detail["writes"] = len(phase.writes)
        detail["write_ms"] = percentiles([w.latency_ms for w in phase.writes])
        detail["writer_late_ms"] = percentiles(
            [(w.sent - w.due) * 1000.0 for w in phase.writes]
        )
    return metrics, detail


def per_layer(phase, untraced, tracer, analysis: dict, roots: dict,
              engine: dict) -> tuple[dict, dict]:
    """Layer metrics over the requests in ``roots`` (``Phase.counted``).

    ``engine`` is the engine-call reconciliation (``reconcile_engine``).
    """
    answered = phase.counted
    n = len(answered)
    by_name, calls = analysis["by_name"], analysis["calls"]

    def per_query(*names) -> float:
        return sum(by_name.get(each, 0.0) for each in names) / n

    def calls_per_query(*names) -> float:
        return sum(calls.get(each, 0) for each in names) / n

    def frac(part, whole) -> float:
        return part / whole if whole else 0.0

    executions = [r.execution for r in answered]
    caches = [getattr(e.trace, "cache", None) for e in executions]
    snapshot = phase.stats
    histograms = snapshot.metrics["histograms"]
    counters = snapshot.metrics["counters"]
    batch = histograms.get("service.batch.size", {})
    merge = histograms.get("maintenance.merge_ms", {})
    shard_reports = [s for e in executions if e.shards for s in e.shards]
    sharded = [e for e in executions if e.shards]
    decisions = [(s, cached) for rid, s, cached in tracer.decisions if rid in roots]
    cost_errors = [error for rid, error in tracer.cost_errors if rid in roots]
    serve_self = list(analysis["serve_self_ms"].values())
    inspected = sum(e.objects_inspected for e in executions)
    real = sum(e.io.random_reads + e.io.sequential_reads for e in executions)
    shared = sum(e.io.shared_reads for e in executions)
    traced_ms = statistics.fmean(r.latency_ms for r in answered)
    untraced_ms = statistics.fmean(r.latency_ms for r in untraced.counted)
    layer_sum = sum(analysis["by_layer"].values())
    client = analysis["client_ms"]
    metrics = {
        "serve.self_ms.p50": (quantile(serve_self, 0.50), "ms"),
        "serve.self_ms.p99": (quantile(serve_self, 0.99), "ms"),
        "serve.cache_hit_frac": (frac(caches.count("hit"), n), "frac"),
        "serve.batch_size.mean": (batch.get("mean", 0.0), "count"),
        "serve.coalesced_frac": (frac(caches.count("coalesced"), n), "frac"),
        "serve.shed": (snapshot.shed, "count"),
        "maintenance.version_search_ms": (per_query("EngineVersion.search"), "ms"),
        "maintenance.write_ms": (
            statistics.fmean(analysis["write_ms"]) if analysis["write_ms"] else 0.0,
            "ms",
        ),
        "maintenance.merges": (counters.get("maintenance.merges", 0), "count"),
        "maintenance.merge_ms.total": (merge.get("sum", 0.0), "ms"),
        "maintenance.buffer_depth.max": (
            max((w.depth for w in phase.writes), default=0), "count"
        ),
        "shard.search_ms": (per_query("ShardedEngine.search"), "ms"),
        "shard.fanout_avg": (
            frac(sum(1 for s in shard_reports if not s["pruned"]), len(sharded)),
            "count",
        ),
        "shard.pruned_by_keywords_frac": (
            frac(sum(1 for s in shard_reports if s["pruned_by_keywords"]),
                 len(shard_reports)),
            "frac",
        ),
        "shard.merge_ms": (per_query("TopKMerger.offer"), "ms"),
        "plan.decide_ms": (per_query("QueryPlanner.decide", "QueryPlanner.observe"), "ms"),
        "plan.cache_hit_frac": (
            frac(sum(1 for _, cached in decisions if cached), len(decisions)), "frac"
        ),
        "plan.chosen_frac.ir2": (
            frac(sum(1 for s, _ in decisions if s == "ir2"), len(decisions)), "frac"
        ),
        "plan.chosen_frac.iio": (
            frac(sum(1 for s, _ in decisions if s == "iio"), len(decisions)), "frac"
        ),
        "plan.cost_error": (
            statistics.median(cost_errors) if cost_errors else 0.0,
            "frac",
        ),
        "core.execute_ms": (analysis["by_layer"].get("core", 0.0) / n, "ms"),
        "core.nodes_per_query": (sum(e.nodes_visited for e in executions) / n, "count"),
        "core.objects_inspected_per_query": (inspected / n, "count"),
        "core.false_positive_frac": (
            frac(sum(e.false_positive_candidates for e in executions), inspected),
            "frac",
        ),
        "storage.read_block_ms": (per_query("BlockDevice.read_block"), "ms"),
        "storage.read_block_calls": (calls_per_query("BlockDevice.read_block"), "count"),
        "storage.decode_ms": (per_query("decode_node"), "ms"),
        "storage.decode_calls": (calls_per_query("decode_node"), "count"),
        "storage.object_load_ms": (per_query("ObjectStore.load"), "ms"),
        "storage.shared_read_frac": (frac(shared, real + shared), "frac"),
        "text.postings_ms": (
            per_query("InvertedIndex.postings", "InvertedIndex.retrieve_conjunction"),
            "ms",
        ),
        "text.verify_ms": (per_query("Analyzer.contains_all"), "ms"),
        "text.verify_calls": (calls_per_query("Analyzer.contains_all"), "count"),
        "trace.overhead_frac": (traced_ms / untraced_ms - 1.0, "frac"),
        "trace.reconcile_err_frac": (
            frac(engine["error_s"], engine["engine_s"]), "frac"
        ),
        "trace.parallel_overlap_frac": (analysis["overlap_ms"] / client, "frac"),
    }
    detail = {
        "traced_queries": n,
        "spans": len(tracer.spans),
        "layer_self_ms_per_query": {
            layer: ms / n for layer, ms in sorted(analysis["by_layer"].items())
        },
        "client_ms_per_query": client / n,
        "untraced_client_ms_per_query": untraced_ms,
        "reconcile_tolerance": RECONCILE_TOLERANCE,
        "engine_calls_checked": engine["checked"],
        "engine_calls_mismatched": engine["mismatched"],
        "layer_sum_err_frac": abs(layer_sum - analysis["overlap_ms"] - client) / client,
        "plan_decisions": len(decisions),
        "cost_error_samples": len(cost_errors),
    }
    return metrics, detail


def check_names(spec: dict, metrics: dict, trace: int) -> bool:
    """Whether the printed metrics are the ones the benchmark declares.

    Per-layer metrics must match ``spec.json`` -> ``layers``; both sets
    must match ``BENCHMARK.json`` beside this directory when it exists.
    """
    printed = list(metrics)
    declared = {}
    if trace:
        declared["spec.json layers"] = [
            metric for layer in spec["layers"].values()
            if isinstance(layer, dict) for metric in layer["metrics"]
        ]
    bench_path = ROOT / "BENCHMARK.json"
    if bench_path.is_file():
        bench = json.loads(bench_path.read_text())
        key = "per_layer" if trace else "end_to_end"
        declared["BENCHMARK.json " + key] = [m["name"] for m in bench[key]]
    good = True
    for where, names in declared.items():
        if sorted(names) != sorted(printed):
            good = False
            print(f"error: printed metrics differ from {where}: missing "
                  f"{sorted(set(names) - set(printed))}, undeclared "
                  f"{sorted(set(printed) - set(names))}", file=sys.stderr)
    return good


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    # Under the interpreter lock only one thread runs Python at a time;
    # spread over two CPUs the threads hand the lock across CPUs, which
    # costs more CPU per query and swings with the host's scheduling.
    # One CPU, chosen before any thread starts, keeps runs comparable.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    name = args.workload
    workload = spec["workloads"][name]
    objects, pool = workloads.make_dataset(spec)
    ranking = workloads.shared_ranking(objects)
    inputs = workloads.make_inputs(
        name, spec, args.seed, args.seconds, objects, pool, ranking
    )

    setup_times = []

    def set_up():
        started = time.perf_counter()
        setup = workloads.build_service(workload, objects)
        setup_times.append(time.perf_counter() - started)
        return setup

    def load(engine, service):
        try:
            return workloads.run_phase(spec, name, inputs, args.seconds,
                                       engine, service)
        finally:
            workloads.close_service(engine, service)

    # One engine is alive while each load runs, and the peak is read
    # before the oracle and the spare set-ups, so it is the program's.
    phases = [load(*set_up())]
    rss_mb = peak_rss_mb()
    if args.trace:
        tracer = tracing.Tracer()
        rids = {id(query): tracer.register(query) for query in inputs.queries}
        setup = set_up()
        tracer.install()
        try:
            phases.append(load(*setup))
        finally:
            tracer.uninstall()
        del setup
    while len(setup_times) < spec["setups_per_run"]:
        workloads.close_service(*set_up())

    for phase in phases:
        phase.wrong = workloads.check_answers(objects, phase)
    metrics, detail = end_to_end(phases[0], spec, name, setup_times, rss_mb)
    if args.trace:
        traced = phases[1]
        requests = {rids[id(r.query)]: r for r in traced.counted}
        roots = {rid: (r.due, r.done) for rid, r in requests.items()}
        analysis = tracing.analyse(tracer, roots)
        engine = tracing.reconcile_engine(
            {rid: r.execution.trace for rid, r in requests.items()},
            analysis["engine_entries"],
        )
        metrics, layer_detail = per_layer(
            traced, phases[0], tracer, analysis, roots, engine
        )
        detail["layers"] = layer_detail
        tracing.write_spans(
            tracer, roots, ROOT / ".perfbench" / f"spans-{name}.json.gz"
        )
    named = check_names(spec, metrics, args.trace)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = all(p.wrong == 0 for p in phases)
    reconciled = True
    if args.trace:
        checks = (
            ("traced engine calls miss the service's engine timing by",
             metrics["trace.reconcile_err_frac"][0]),
            ("layer self times miss the client latency by",
             detail["layers"]["layer_sum_err_frac"]),
        )
        for what, error in checks:
            if error > RECONCILE_TOLERANCE:
                reconciled = False
                print(f"error: {what} {error:.4f} "
                      f"(tolerance {RECONCILE_TOLERANCE})", file=sys.stderr)
        mismatched = detail["layers"]["engine_calls_mismatched"]
        if mismatched:
            reconciled = False
            print(f"error: {mismatched} requests have a traced engine call "
                  "that does not match their cache disposition", file=sys.stderr)
    detail.update(workload=name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct and failed == 0 and reconciled and named else 1


if __name__ == "__main__":
    sys.exit(main())
