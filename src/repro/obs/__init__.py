"""Observability layer: metrics, latency histograms, slow-query log.

The serving, sharding, and storage layers all record into one
:class:`MetricsRegistry`:

* :class:`repro.serve.QueryService` — per-stage latency histograms
  (queue wait, lock wait, search, merge) and cache / degradation /
  retry counters;
* :class:`repro.shard.ShardedEngine` — per-shard fan-out counters
  (pruned, failed, retried, results offered);
* the storage devices — I/O read/write mixes and object loads,
  published at snapshot time by :func:`export_engine`.

Surface it with ``repro metrics <engine-dir>`` (probe an engine and
print the snapshot), ``repro serve --serve-metrics out.json`` (dump
after a workload), or programmatically::

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    with QueryService(engine, metrics=registry) as service:
        service.run_batch(queries)
        print(registry.snapshot()["histograms"]["service.search_ms"]["p95"])

:class:`SlowQueryLog` rides along in the service: the worst per-query
records above a configurable latency threshold, so every dump names concrete
offender queries next to the aggregate distributions.

:mod:`repro.obs.trace` adds hierarchical query tracing on top of the
flat counters: span trees with parent→child propagation from the service
through the shard fan-out into the engine phases and block-level I/O
events, sampled by :class:`QueryTracer`, exported as Chrome trace-event
JSON or the ``repro trace`` text report (:mod:`repro.obs.tracereport`).

:mod:`repro.obs.querylog` captures the workload itself: one structured
JSON-lines record per answered query (shape, plan, fan-out, I/O,
latency, result digest) through a non-blocking rotating writer.
:mod:`repro.obs.workload` analyzes a captured log (term/co-occurrence
frequencies, selectivity bands, spatial hot spots, planner win rates);
:mod:`repro.obs.replay` re-executes one deterministically against any
engine configuration and diffs the answers — the regression gate.
:func:`render_prometheus` renders any metrics snapshot in the
Prometheus text exposition format.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.export import (
    export_device,
    export_engine,
    export_iostats,
    metric_token,
    render_prometheus,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import (
    QueryTracer,
    Span,
    Trace,
    chrome_trace_events,
    dump_chrome_trace,
    trace_query,
    validate_chrome_events,
)
from repro.obs.tracereport import render_trace, render_traces

# The query-log family (querylog / replay / workload) sits *above* the
# core query layer, while this package is imported from *below* it (the
# spatial search modules pull in repro.obs.trace).  Loading those
# modules eagerly here would close an import cycle, so their public
# names resolve lazily on first attribute access (PEP 562).
_LAZY_EXPORTS = {
    "QueryLogError": "repro.obs.querylog",
    "QueryLogWriter": "repro.obs.querylog",
    "build_record": "repro.obs.querylog",
    "iter_query_log": "repro.obs.querylog",
    "query_log_paths": "repro.obs.querylog",
    "read_query_log": "repro.obs.querylog",
    "result_digest": "repro.obs.querylog",
    "ReplayError": "repro.obs.replay",
    "render_replay_report": "repro.obs.replay",
    "replay_query_log": "repro.obs.replay",
    "analyze_query_log": "repro.obs.workload",
    "render_workload_report": "repro.obs.workload",
    "validate_workload_report": "repro.obs.workload",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "QueryLogError",
    "QueryLogWriter",
    "QueryTracer",
    "ReplayError",
    "SlowQueryLog",
    "Span",
    "Trace",
    "analyze_query_log",
    "build_record",
    "chrome_trace_events",
    "dump_chrome_trace",
    "export_device",
    "export_engine",
    "export_iostats",
    "iter_query_log",
    "merge_snapshots",
    "metric_token",
    "query_log_paths",
    "read_query_log",
    "render_prometheus",
    "render_replay_report",
    "render_trace",
    "render_traces",
    "render_workload_report",
    "replay_query_log",
    "result_digest",
    "trace_query",
    "validate_chrome_events",
    "validate_workload_report",
]
