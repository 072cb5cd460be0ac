"""Deterministic replay of a captured query log against any engine.

A query log captured by :class:`repro.obs.querylog.QueryLogWriter`
records, for every answered query, its exact shape and a digest of its
answer.  Because every execution path in this repository — single
engine, any shard count or partitioner, batched or serial, dirty or
clean overlay, current or retained version — resolves ties under the
same canonical orders (``(distance, oid)`` distance-first,
``(-score, distance, oid)`` ranked), replaying the same queries over
the same corpus must reproduce every recorded digest *exactly*, on any
configuration.  That makes a captured log a portable regression gate:

* **answers** — :func:`replay_query_log` re-executes each record
  through a fresh :class:`~repro.serve.QueryService` and diffs the
  fresh digest against the recorded one; any mismatch is a correctness
  regression (or a corpus drift) and fails the gate;
* **cost** — total device reads per replayed query are compared to the
  recorded baseline with a regression threshold (I/O counts are
  deterministic, so this gate never flakes on machine speed); recorded
  vs replayed mean latency is reported alongside but is
  machine-dependent and never gated by default.

Records that cannot be replayed are counted, not guessed at: failed
queries (no recorded answer) and queries whose ranking function was an
opaque custom callable (``{"kind": "custom"}`` — not reconstructible).
"""

from __future__ import annotations

from repro.core.query import SpatialKeywordQuery
from repro.core.ranking import DistanceDecayRanking, LinearRanking
from repro.errors import ReproError
from repro.obs.querylog import result_digest
from repro.spatial.geometry import Rect

#: Mismatch examples retained in the report (all are *counted*).
MAX_MISMATCH_EXAMPLES = 20

#: Default allowed replayed-vs-recorded total-reads growth factor.
DEFAULT_IO_THRESHOLD = 1.5


class ReplayError(ReproError):
    """A query log cannot be replayed (malformed or empty input)."""


def ranking_from_spec(spec: dict | None):
    """Reconstruct a ranking function from its recorded spec.

    Returns ``None`` for distance-first records and raises
    :class:`ReplayError` for ``custom`` (opaque) rankings — callers
    skip those records rather than replay them wrongly.
    """
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "distance_decay":
        return DistanceDecayRanking(half_distance=spec["half_distance"])
    if kind == "linear":
        return LinearRanking(
            alpha=spec["alpha"], max_distance=spec["max_distance"]
        )
    raise ReplayError(f"ranking kind {kind!r} is not replayable")


def query_from_record(record: dict) -> SpatialKeywordQuery:
    """Rebuild the executed query from one log record.

    Raises :class:`ReplayError` when the record carries no query shape
    or an unreconstructible ranking.
    """
    spec = record.get("query")
    if not spec:
        raise ReplayError(
            f"record query_id={record.get('query_id')} has no query shape"
        )
    ranking = ranking_from_spec(spec.get("ranking"))
    area = spec.get("area")
    if area is not None:
        return SpatialKeywordQuery.of_area(
            Rect(tuple(area[0]), tuple(area[1])),
            spec["keywords"],
            spec["k"],
        )
    return SpatialKeywordQuery.of(
        spec["point"], spec["keywords"], spec["k"], ranking=ranking
    )


def _recorded_reads(record: dict) -> int:
    io = record.get("io") or {}
    return int(io.get("random_reads", 0)) + int(io.get("sequential_reads", 0))


def replay_query_log(
    records,
    engine,
    workers: int = 1,
    batched: bool = False,
    max_batch: int = 16,
    cache: bool = True,
    io_threshold: float | None = DEFAULT_IO_THRESHOLD,
    limit: int | None = None,
) -> dict:
    """Re-execute a captured log against ``engine``; diff answers and cost.

    Records replay in capture order through one fresh
    :class:`~repro.serve.QueryService` over ``engine`` (any
    configuration: single or sharded, any partitioner).  ``batched``
    routes them through the batch front-end in ``max_batch``-sized
    ``submit_many`` groups — deterministic grouping, and the answers
    must be identical either way.

    Returns a JSON-ready report::

        {"records", "replayed", "skipped": {"errors", "unreplayable"},
         "mismatch_count", "mismatches": [...examples...],
         "io": {... recorded vs replayed reads per query, ratio ...},
         "latency_ms": {"recorded_mean", "replayed_mean"},
         "ok": <zero mismatches and io ratio within threshold>}

    ``ok`` is the CI gate: no answer may differ, and replayed device
    reads per query must stay within ``io_threshold`` x the recorded
    baseline (``None`` disables the cost gate).
    """
    from repro.serve import BatchConfig, QueryService

    records = list(records)
    if limit is not None:
        records = records[:limit]
    if not records:
        raise ReplayError("query log holds no records to replay")

    playable: list[tuple[dict, SpatialKeywordQuery]] = []
    skipped_errors = 0
    skipped_unreplayable = 0
    for record in records:
        if record.get("error") or "results" not in record:
            skipped_errors += 1
            continue
        try:
            playable.append((record, query_from_record(record)))
        except ReplayError:
            skipped_unreplayable += 1

    batching = BatchConfig(max_batch=max_batch) if batched else None
    mismatches: list[dict] = []
    mismatch_count = 0
    recorded_reads = 0
    recorded_latency = 0.0
    recorded_with_latency = 0
    with QueryService(
        engine, workers=workers, cache=cache, batching=batching,
    ) as service:
        executions = []
        if batched:
            for start in range(0, len(playable), max_batch):
                chunk = playable[start:start + max_batch]
                executions.extend(
                    service.run_batch([query for _, query in chunk])
                )
        else:
            executions = [
                service.search(query) for _, query in playable
            ]
        stats = service.stats()

    for (record, _query), execution in zip(playable, executions):
        recorded = record["results"]
        recorded_reads += _recorded_reads(record)
        latency = (record.get("latency_ms") or {}).get("total")
        if latency is not None:
            recorded_latency += latency
            recorded_with_latency += 1
        fresh_digest = result_digest(execution.results)
        if fresh_digest == recorded.get("digest"):
            continue
        mismatch_count += 1
        if len(mismatches) < MAX_MISMATCH_EXAMPLES:
            mismatches.append({
                "query_id": record.get("query_id"),
                "query": record.get("query"),
                "recorded": {
                    "digest": recorded.get("digest"),
                    "count": recorded.get("count"),
                    "oids": recorded.get("oids"),
                },
                "replayed": {
                    "digest": fresh_digest,
                    "count": len(execution.results),
                    "oids": execution.oids,
                },
            })

    replayed = len(playable)
    replayed_reads = stats.io.random_reads + stats.io.sequential_reads
    recorded_per_query = recorded_reads / replayed if replayed else 0.0
    replayed_per_query = replayed_reads / replayed if replayed else 0.0
    if recorded_reads > 0:
        io_ratio: float | None = replayed_reads / recorded_reads
    else:
        io_ratio = None if replayed_reads == 0 else float(replayed_reads)
    io_ok = (
        io_threshold is None
        or io_ratio is None
        or io_ratio <= io_threshold + 1e-9
    )
    total_hist = (stats.metrics.get("histograms") or {}).get(
        "service.total_ms"
    )
    replayed_mean_latency = (
        total_hist["mean"] if total_hist and total_hist["count"] else None
    )

    return {
        "schema": 1,
        "records": len(records),
        "replayed": replayed,
        "skipped": {
            "errors": skipped_errors,
            "unreplayable": skipped_unreplayable,
        },
        "mismatch_count": mismatch_count,
        "mismatches": mismatches,
        "io": {
            "recorded_total_reads": recorded_reads,
            "replayed_total_reads": replayed_reads,
            "recorded_reads_per_query": recorded_per_query,
            "replayed_reads_per_query": replayed_per_query,
            "ratio": io_ratio,
            "threshold": io_threshold,
            "ok": io_ok,
        },
        "latency_ms": {
            "recorded_mean": (
                recorded_latency / recorded_with_latency
                if recorded_with_latency else None
            ),
            "replayed_mean": replayed_mean_latency,
        },
        "cache": {
            "hits": stats.cache_hits,
            "misses": stats.cache_misses,
        },
        "batched": batched,
        "ok": mismatch_count == 0 and io_ok,
    }


def render_replay_report(report: dict) -> str:
    """Human-readable summary of one replay report."""
    io = report["io"]
    skipped = report["skipped"]
    lines = [
        f"replayed {report['replayed']}/{report['records']} records "
        f"({skipped['errors']} error records, "
        f"{skipped['unreplayable']} unreplayable skipped)",
        f"answer mismatches: {report['mismatch_count']}",
        f"reads/query: recorded {io['recorded_reads_per_query']:.2f}, "
        f"replayed {io['replayed_reads_per_query']:.2f}"
        + (
            f" (ratio {io['ratio']:.3f}, threshold {io['threshold']})"
            if io["ratio"] is not None and io["threshold"] is not None
            else ""
        ),
    ]
    latency = report["latency_ms"]
    if latency["recorded_mean"] is not None and latency["replayed_mean"] is not None:
        lines.append(
            f"mean latency: recorded {latency['recorded_mean']:.2f} ms, "
            f"replayed {latency['replayed_mean']:.2f} ms "
            f"(wall-clock; informational only)"
        )
    for example in report["mismatches"]:
        lines.append(
            f"  MISMATCH query_id={example['query_id']}: "
            f"recorded {example['recorded']['digest']} "
            f"({example['recorded']['count']} results) vs replayed "
            f"{example['replayed']['digest']} "
            f"({example['replayed']['count']} results)"
        )
    lines.append("replay: OK" if report["ok"] else "replay: FAILED")
    return "\n".join(lines)
