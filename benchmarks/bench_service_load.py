"""Macro-benchmark: mixed serving load through :class:`QueryService`.

Drives seeded workloads through the full serving stack for several
index kinds — including the cost-based adaptive planner (``auto``) —
and shard counts, and writes a machine-readable baseline
(``BENCH_PR10.json`` at the repo root) from the service's own metrics
snapshot:

* ``p50_ms`` / ``p95_ms`` — end-to-end latency quantiles from the
  ``service.total_ms`` histogram of a multi-worker timed pass over the
  headline *mixed* workload;
* ``qps`` — the timed pass's completed queries over its wall time;
* ``io_per_query`` — block reads and object loads per query from a
  separate single-worker *metered* pass (service workers = 1), which
  makes the counts independent of thread scheduling and therefore stable enough for CI to diff;
* ``classes`` — the same metered I/O split by workload class (``mixed``
  / ``point`` / ``area`` and, for ranked-capable kinds, ``ranked``), so
  the adaptive planner can be gated per class against the best fixed
  kind;
* ``cache_hit_rate`` — the result cache's hit fraction on the workload;
* ``batched_io_per_query`` / ``batched_qps`` — the same mixed workload
  replayed through the batch front-end (``submit_many`` grouping,
  duplicate coalescing, one shared-read session per group): device
  reads per query from a deterministic single-worker metered pass, and
  wall-clock QPS from a concurrent timed pass;
* ``capture_replay`` — the query-log subsystem measured end to end: a
  serial pass captures a mixed point/area/ranked workload to a
  structured log, the identical uncaptured pass proves capture costs
  zero device reads, the log replays against several engine
  configurations (every result digest must reproduce exactly — the
  engine's canonical tie-breaks make digests config-independent), and
  timed passes with/without a sampled log record the capture overhead
  on QPS (wall-clock, informational).

Every kind answers **identical batches**: the headline mix varies each
query's keyword count over 1-3 (single common keywords favor the trees,
rare conjunctions favor the inverted index — the regime spread the
planner routes across) and contains no ranked queries, so fixed and
adaptive kinds are comparable query for query.

Run directly (``python benchmarks/bench_service_load.py``) to regenerate
the full baseline, or with ``--quick`` for the small configuration CI's
perf-smoke job uses; ``--check BASELINE`` compares the current quick
numbers against a committed baseline and exits 2 when any config's
total reads per query regressed by more than ``--tolerance`` (default
2x); ``--check-planner`` additionally gates the adaptive planner's
per-class I/O at no worse than the best fixed kind (times
``--planner-tolerance``) within the same run; ``--check-batching``
gates the batch front-end at no more device reads per query than
unbatched execution on the mixed workload, within the same run;
``--check-replay`` gates the query-log subsystem — zero dropped
records, zero extra metered device reads from capture, and every
replay reproducing every recorded digest with replayed I/O inside the
threshold.  Wall-clock fields (latency, QPS) are machine-dependent and
are never compared — only the deterministic I/O counts and digest
diffs gate CI.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.workloads import ConcurrentLoadGenerator  # noqa: E402
from repro.core.engine import SpatialKeywordEngine  # noqa: E402
from repro.core.ranking import DistanceDecayRanking  # noqa: E402
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator  # noqa: E402
from repro.obs.querylog import read_query_log  # noqa: E402
from repro.obs.replay import replay_query_log  # noqa: E402
from repro.serve import BatchConfig, QueryService  # noqa: E402
from repro.shard import ShardedEngine  # noqa: E402

DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_PR10.json")

#: Batch front-end configuration the batched passes use (``submit_many``
#: groups, dispatched deterministically).
BATCHING = BatchConfig(max_batch=16)

#: Index kinds x shard counts the full baseline covers.  The ``ranked``
#: workload class is measured only for kinds that can execute it.
FULL_CONFIGS = [
    ("ir2", 1), ("ir2", 4),
    ("rtree", 1), ("rtree", 4),
    ("iio", 1), ("iio", 4),
    ("auto", 1), ("auto", 4),
]
QUICK_CONFIGS = [
    ("ir2", 1), ("ir2", 2), ("rtree", 1), ("iio", 1),
    ("auto", 1), ("auto", 2),
]
RANKED_KINDS = frozenset({"ir2", "mir2", "auto"})

FULL_SCALE = dict(n_objects=1_200, n_queries=48, timed_workers=4,
                  replay_queries=520)
QUICK_SCALE = dict(n_objects=300, n_queries=16, timed_workers=2,
                   replay_queries=160)

#: Keyword counts sampled per query: 1-keyword queries hit the Zipf head
#: (common terms, tree-friendly), 3-keyword conjunctions are selective
#: (inverted-index-friendly) — the spread adaptive routing exploits.
KEYWORD_COUNTS = (1, 2, 3)

#: The headline mixed workload.  No ranked slots: every index kind —
#: fixed and adaptive — answers the identical batch.
WORKLOAD_MIX = dict(
    keyword_counts=KEYWORD_COUNTS, k=10, hot_fraction=0.3, hot_pool=6,
    area_fraction=0.2, ranked_fraction=0.0,
)
SEED = 1234

#: The capture/replay section's workload *does* include ranked queries:
#: the log has to exercise every query shape the record schema carries.
REPLAY_MIX = dict(
    keyword_counts=KEYWORD_COUNTS, k=10, hot_fraction=0.3, hot_pool=6,
    area_fraction=0.2, ranked_fraction=0.2,
)

#: The configuration the query log is captured on, and the
#: configurations it replays against.  Digests are config-independent
#: (canonical ``(distance, oid)`` tie-breaks survive any shard layout),
#: so a log captured on two shards must reproduce exactly on one shard
#: and through the batch front-end alike.
CAPTURE_CONFIG = ("ir2", 2)
REPLAY_CONFIGS = [
    ("ir2", 1, False),
    ("ir2", 2, False),
    ("ir2", 2, True),
]

#: Sampling rate the timed capture-overhead pass uses (1-in-N).
CAPTURE_SAMPLE = 4

#: Repetitions per timed capture-overhead variant (best run kept).
TIMED_REPS = 3


def _corpus(n_objects: int):
    config = DatasetConfig(
        name="service-load",
        n_objects=n_objects,
        vocabulary_size=2_500,
        avg_unique_words=20,
        clusters=6,
        seed=SEED,
    )
    return SpatialTextDatasetGenerator(config).generate()


def _half_distance(objects) -> float:
    """Engine-independent decay scale: 10% of the widest dataset span."""
    dims = objects[0].dims
    spans = [
        max(o.point[d] for o in objects) - min(o.point[d] for o in objects)
        for d in range(dims)
    ]
    return max(max(spans) * 0.1, 1e-9)


def _build_engine(objects, index: str, shards: int):
    if shards > 1:
        engine = ShardedEngine(n_shards=shards, index=index)
    else:
        engine = SpatialKeywordEngine(index=index)
    engine.add_all(objects)
    engine.build()
    return engine


def _mixed_batch(objects, analyzer, n_queries: int):
    workload = ConcurrentLoadGenerator(objects, analyzer, seed=SEED)
    return workload.mixed_batch(n_queries, **WORKLOAD_MIX)


def _class_batches(objects, analyzer, index: str, n_queries: int):
    """``(class_name, batch)`` pairs, identical across index kinds.

    Each class gets a fresh seeded generator, so every kind answers the
    same queries in the same order; the ``ranked`` class exists only for
    kinds that can execute it.
    """
    batches = [("mixed", _mixed_batch(objects, analyzer, n_queries))]
    point = ConcurrentLoadGenerator(objects, analyzer, seed=SEED + 1)
    batches.append((
        "point",
        point.batch(n_queries, k=10, hot_fraction=0.0,
                    keyword_counts=KEYWORD_COUNTS),
    ))
    area = ConcurrentLoadGenerator(objects, analyzer, seed=SEED + 2)
    batches.append((
        "area",
        [area.area_query(1, 10, extent_fraction=0.1)
         for _ in range(n_queries)],
    ))
    if index in RANKED_KINDS:
        ranked = ConcurrentLoadGenerator(objects, analyzer, seed=SEED + 3)
        ranking = DistanceDecayRanking(half_distance=_half_distance(objects))
        batches.append((
            "ranked",
            [ranked.query(2, 10).with_ranking(ranking)
             for _ in range(n_queries)],
        ))
    return batches


def _io_per_query(stats, n_queries: int) -> dict:
    return {
        "random_reads": stats.io.random_reads / n_queries,
        "sequential_reads": stats.io.sequential_reads / n_queries,
        "total_reads": (
            stats.io.random_reads + stats.io.sequential_reads
        ) / n_queries,
        "objects_loaded": stats.io.objects_loaded / n_queries,
    }


def run_config(objects, index: str, shards: int, scale: dict) -> dict:
    """Measure one (index kind, shard count) cell: metered then timed."""
    n_queries = scale["n_queries"]

    # Pass 1 (metered): a single service worker.  Every source of
    # thread-schedule nondeterminism is removed, so the I/O counts are
    # reproducible and CI can compare them across runs.
    # One engine serves every workload class; each class runs under a
    # fresh service so its I/O and cache counters are isolated.
    engine = _build_engine(objects, index, shards)
    classes = {}
    cache_hit_rate = 0.0
    degraded = 0
    for name, batch in _class_batches(objects, engine.analyzer, index,
                                      n_queries):
        with QueryService(engine, workers=1) as service:
            service.run_batch(batch)
            metered = service.stats()
        classes[name] = _io_per_query(metered, len(batch))
        if name == "mixed":
            cache_hit_rate = metered.cache_hit_rate
            degraded = metered.degraded

    # Pass 1b (metered, batched): the identical mixed batch through the
    # batch front-end on a fresh engine (same cold-start state as the
    # unbatched metered pass).  Single worker + submit_many grouping ⇒
    # deterministic; shared-session hits land in ``shared_reads`` and
    # cost no device I/O, so total reads per query can only shrink.
    engine = _build_engine(objects, index, shards)
    batch = _mixed_batch(objects, engine.analyzer, n_queries)
    with QueryService(engine, workers=1, batching=BATCHING) as service:
        service.run_batch(batch)
        bstats = service.stats()
    batched_io = _io_per_query(bstats, n_queries)
    batched_io["shared_reads"] = bstats.io.shared_reads / n_queries

    # Pass 2 (timed): concurrent workers over the headline mixed batch,
    # wall-clock latency and QPS — unbatched, then batched.
    engine = _build_engine(objects, index, shards)
    batch = _mixed_batch(objects, engine.analyzer, n_queries)
    with QueryService(engine, workers=scale["timed_workers"]) as service:
        t0 = time.perf_counter()
        service.run_batch(batch)
        elapsed = time.perf_counter() - t0
        timed = service.stats()
    engine = _build_engine(objects, index, shards)
    batch = _mixed_batch(objects, engine.analyzer, n_queries)
    with QueryService(
        engine, workers=scale["timed_workers"], batching=BATCHING
    ) as service:
        t0 = time.perf_counter()
        service.run_batch(batch)
        batched_elapsed = time.perf_counter() - t0
    total_ms = timed.metrics["histograms"]["service.total_ms"]

    return {
        "index": index,
        "shards": shards,
        "queries": n_queries,
        "p50_ms": total_ms["p50"],
        "p95_ms": total_ms["p95"],
        "qps": n_queries / elapsed if elapsed > 0 else 0.0,
        "batched_qps": (
            n_queries / batched_elapsed if batched_elapsed > 0 else 0.0
        ),
        "cache_hit_rate": cache_hit_rate,
        "degraded": degraded,
        "io_per_query": classes["mixed"],
        "batched_io_per_query": batched_io,
        "batches": bstats.batches,
        "coalesced": bstats.coalesced,
        "classes": classes,
    }


def _replay_batch(objects, analyzer, n_queries: int):
    workload = ConcurrentLoadGenerator(objects, analyzer, seed=SEED + 7)
    ranking = DistanceDecayRanking(half_distance=_half_distance(objects))
    return workload.mixed_batch(n_queries, ranking=ranking, **REPLAY_MIX)


def _total_reads(stats) -> int:
    return stats.io.random_reads + stats.io.sequential_reads


def run_capture_replay(objects, scale: dict) -> dict:
    """Measure the query-log subsystem: capture cost, then replay fidelity.

    Four passes over the same seeded point/area/ranked mix:

    1. serial metered, uncaptured — the device-read baseline;
    2. serial metered with an unsampled query log — writes the log the
       replays consume; its metered reads must equal pass 1's exactly
       (capture happens after the answer and touches no device);
    3. replays of the captured log against every ``REPLAY_CONFIGS``
       entry — every recorded digest must reproduce exactly, and the
       replayed device reads per query must stay inside the replay
       module's I/O threshold;
    4. timed concurrent passes with and without a 1-in-N sampled log —
       the wall-clock capture overhead on QPS (informational; only the
       deterministic pieces above gate CI).
    """
    n_queries = scale["replay_queries"]
    index, shards = CAPTURE_CONFIG
    log_dir = tempfile.mkdtemp(prefix="bench-querylog-")
    log_path = os.path.join(log_dir, "queries.jsonl")
    try:
        # Pass 1 (metered, uncaptured).
        engine = _build_engine(objects, index, shards)
        batch = _replay_batch(objects, engine.analyzer, n_queries)
        with QueryService(engine, workers=1) as service:
            service.run_batch(batch)
            plain = service.stats()

        # Pass 2 (metered, captured, sample_every=1).
        engine = _build_engine(objects, index, shards)
        batch = _replay_batch(objects, engine.analyzer, n_queries)
        with QueryService(engine, workers=1, query_log=log_path) as service:
            service.run_batch(batch)
            captured = service.stats()
            writer = service.query_log
        capture = {
            "seen": writer.seen,
            "sampled": writer.sampled,
            "dropped": writer.dropped,
            "written": writer.written,
            "rotations": writer.rotations,
            "metered_reads_uncaptured": _total_reads(plain),
            "metered_reads_captured": _total_reads(captured),
            "reads_delta": _total_reads(captured) - _total_reads(plain),
        }

        # Pass 3: replay the log against every target configuration.
        records = read_query_log(log_path)
        capture["records"] = len(records)
        replays = []
        for r_index, r_shards, r_batched in REPLAY_CONFIGS:
            engine = _build_engine(objects, r_index, r_shards)
            report = replay_query_log(records, engine, workers=1,
                                      batched=r_batched)
            replays.append({
                "index": r_index,
                "shards": r_shards,
                "batched": r_batched,
                "replayed": report["replayed"],
                "skipped": report["skipped"],
                "mismatch_count": report["mismatch_count"],
                "io_ratio": report["io"]["ratio"],
                "io_threshold": report["io"]["threshold"],
                "ok": report["ok"],
            })

        # Pass 4 (timed): capture overhead on QPS under a sampled log.
        # Wall clock is noisy at bench scale, so each variant runs
        # ``TIMED_REPS`` times on a fresh engine and keeps its best run.
        def timed_qps(**service_kwargs) -> float:
            best = 0.0
            for _ in range(TIMED_REPS):
                rep_engine = _build_engine(objects, index, shards)
                rep_batch = _replay_batch(objects, rep_engine.analyzer,
                                          n_queries)
                with QueryService(
                    rep_engine, workers=scale["timed_workers"],
                    **service_kwargs,
                ) as service:
                    t0 = time.perf_counter()
                    service.run_batch(rep_batch)
                    elapsed = time.perf_counter() - t0
                if elapsed > 0:
                    best = max(best, n_queries / elapsed)
            return best

        sampled_path = os.path.join(log_dir, "sampled.jsonl")
        base_qps = timed_qps()
        cap_qps = timed_qps(query_log=sampled_path,
                            query_log_sample=CAPTURE_SAMPLE)
        overhead_pct = (
            (base_qps - cap_qps) / base_qps * 100.0 if base_qps > 0 else 0.0
        )
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)

    return {
        "config": {"index": index, "shards": shards},
        "queries": n_queries,
        "workload": dict(REPLAY_MIX, seed=SEED + 7, ranking="distance_decay"),
        "capture": capture,
        "replays": replays,
        "overhead": {
            "sample_every": CAPTURE_SAMPLE,
            "uncaptured_qps": base_qps,
            "captured_qps": cap_qps,
            "qps_overhead_pct": overhead_pct,
        },
    }


def run_mode(configs, scale: dict) -> dict:
    objects = _corpus(scale["n_objects"])
    results = []
    for index, shards in configs:
        label = f"{index} x{shards}"
        t0 = time.perf_counter()
        cell = run_config(objects, index, shards, scale)
        print(
            f"  {label:<10} p50={cell['p50_ms']:8.2f} ms  "
            f"p95={cell['p95_ms']:8.2f} ms  qps={cell['qps']:7.1f}  "
            f"reads/q={cell['io_per_query']['total_reads']:8.1f}  "
            f"batched={cell['batched_io_per_query']['total_reads']:8.1f}  "
            f"hit_rate={cell['cache_hit_rate']:.2f}  "
            f"[{time.perf_counter() - t0:.1f}s]"
        )
        results.append(cell)
    t0 = time.perf_counter()
    capture_replay = run_capture_replay(objects, scale)
    mismatches = sum(r["mismatch_count"] for r in capture_replay["replays"])
    print(
        f"  capture/replay: {capture_replay['capture']['records']} records, "
        f"reads_delta={capture_replay['capture']['reads_delta']}, "
        f"{len(capture_replay['replays'])} replays, "
        f"mismatches={mismatches}, "
        f"qps_overhead={capture_replay['overhead']['qps_overhead_pct']:.1f}%  "
        f"[{time.perf_counter() - t0:.1f}s]"
    )
    return {
        "n_objects": scale["n_objects"],
        "n_queries": scale["n_queries"],
        "timed_workers": scale["timed_workers"],
        "workload": dict(WORKLOAD_MIX, seed=SEED),
        "configs": results,
        "capture_replay": capture_replay,
    }


def check_regression(current: dict, baseline_path: str, tolerance: float) -> int:
    """Compare quick-mode I/O per query against a committed baseline.

    Returns a process exit code: 0 when every config's total reads per
    query stays within ``tolerance`` x the baseline (and the baseline
    parses), 2 on any regression, 1 when the baseline is unusable.
    """
    try:
        with open(baseline_path, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
        return 1
    base_quick = baseline.get("quick", {}).get("configs", [])
    base_by_key = {(c["index"], c["shards"]): c for c in base_quick}
    failures = []
    for cell in current["configs"]:
        key = (cell["index"], cell["shards"])
        base = base_by_key.get(key)
        if base is None:
            print(f"note: no baseline entry for {key}, skipping")
            continue
        now = cell["io_per_query"]["total_reads"]
        then = base["io_per_query"]["total_reads"]
        status = "ok"
        if then > 0 and now > then * tolerance:
            status = "REGRESSION"
            failures.append(key)
        print(
            f"  {cell['index']} x{cell['shards']}: {now:.1f} reads/q "
            f"vs baseline {then:.1f} ({status})"
        )
    if failures:
        print(
            f"I/O regression (> {tolerance}x baseline) in: {failures}",
            file=sys.stderr,
        )
        return 2
    return 0


def check_planner(current: dict, tolerance: float) -> int:
    """Gate the adaptive planner against the best fixed kind, per class.

    For every shard count that has an ``auto`` cell, the planner's
    metered reads per query must stay within ``tolerance`` x the
    *cheapest* fixed kind on every workload class both measured.  The
    comparison is within one run, so it is machine-independent.
    Returns 0 when the planner holds everywhere, 2 otherwise.
    """
    by_key = {(c["index"], c["shards"]): c for c in current["configs"]}
    failures = []
    for (index, shards), auto in sorted(by_key.items()):
        if index != "auto":
            continue
        rivals = [
            cell for (kind, s), cell in by_key.items()
            if s == shards and kind != "auto"
        ]
        if not rivals:
            print(f"note: no fixed rival at {shards} shard(s), skipping")
            continue
        for cls, io in auto.get("classes", {}).items():
            costs = {
                cell["index"]: cell["classes"][cls]["total_reads"]
                for cell in rivals
                if cls in cell.get("classes", {})
            }
            if not costs:
                continue
            best_kind = min(costs, key=costs.get)
            best = costs[best_kind]
            now = io["total_reads"]
            ok = now <= best * tolerance + 1e-9
            status = "ok" if ok else "PLANNER REGRESSION"
            print(
                f"  auto x{shards} [{cls}]: {now:.1f} reads/q vs best "
                f"fixed {best_kind}={best:.1f} ({status})"
            )
            if not ok:
                failures.append((shards, cls))
    if failures:
        print(
            f"planner worse than best fixed kind (> {tolerance}x) on: "
            f"{failures}",
            file=sys.stderr,
        )
        return 2
    return 0


def check_batching(current: dict, tolerance: float) -> int:
    """Gate the batch front-end against unbatched execution, per cell.

    On the mixed workload, every config's batched metered reads per
    query must stay within ``tolerance`` x its own unbatched metered
    reads (both measured in this run, so the comparison is
    machine-independent; sharing work can only remove device reads).
    Returns 0 when batching holds everywhere, 2 otherwise.
    """
    failures = []
    for cell in current["configs"]:
        key = (cell["index"], cell["shards"])
        batched = cell.get("batched_io_per_query")
        if batched is None:
            print(f"note: no batched pass for {key}, skipping")
            continue
        now = batched["total_reads"]
        then = cell["io_per_query"]["total_reads"]
        ok = now <= then * tolerance + 1e-9
        status = "ok" if ok else "BATCHING REGRESSION"
        print(
            f"  {cell['index']} x{cell['shards']}: batched {now:.1f} reads/q "
            f"vs unbatched {then:.1f} "
            f"(shared {batched['shared_reads']:.1f}/q, {status})"
        )
        if not ok:
            failures.append(key)
    if failures:
        print(
            f"batched execution costs more device I/O than unbatched "
            f"(> {tolerance}x) in: {failures}",
            file=sys.stderr,
        )
        return 2
    return 0


def check_replay(current: dict) -> int:
    """Gate the query-log subsystem's deterministic invariants.

    All three comparisons happen within this run, so the gate is
    machine-independent:

    * capture lost no records (bounded queue never overflowed) and
      added zero metered device reads over the uncaptured pass;
    * every replay configuration reproduced every recorded result
      digest exactly (answers are config-independent by construction);
    * every replay's device reads per query stayed inside the replay
      module's I/O threshold relative to the recorded cost.

    Returns 0 when everything holds, 2 otherwise.
    """
    section = current.get("capture_replay")
    if section is None:
        print("no capture_replay section in this run", file=sys.stderr)
        return 1
    failures = []
    capture = section["capture"]
    cap_ok = capture["dropped"] == 0 and capture["reads_delta"] == 0
    print(
        f"  capture: {capture['records']} records "
        f"({capture['dropped']} dropped), "
        f"reads {capture['metered_reads_captured']} captured vs "
        f"{capture['metered_reads_uncaptured']} uncaptured "
        f"({'ok' if cap_ok else 'CAPTURE REGRESSION'})"
    )
    if not cap_ok:
        failures.append("capture")
    for rep in section["replays"]:
        label = (
            f"{rep['index']} x{rep['shards']}"
            + (" batched" if rep["batched"] else "")
        )
        ok = rep["ok"] and rep["mismatch_count"] == 0
        print(
            f"  replay {label}: {rep['replayed']} replayed, "
            f"{rep['mismatch_count']} mismatches, "
            f"io ratio {rep['io_ratio']:.3f} "
            f"({'ok' if ok else 'REPLAY REGRESSION'})"
        )
        if not ok:
            failures.append(label)
    if failures:
        print(f"query-log capture/replay gate failed: {failures}",
              file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI configuration only")
    parser.add_argument("--out", default=None,
                        help=f"output JSON path (default: {DEFAULT_OUT}; "
                             "'-' skips writing)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare quick-mode I/O per query against a "
                             "committed baseline JSON; exit 2 on regression")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="allowed I/O growth factor for --check")
    parser.add_argument("--check-planner", action="store_true",
                        help="gate the adaptive planner's per-class I/O at "
                             "no worse than the best fixed kind in this run")
    parser.add_argument("--planner-tolerance", type=float, default=1.05,
                        help="allowed planner-vs-best-fixed I/O factor for "
                             "--check-planner")
    parser.add_argument("--check-batching", action="store_true",
                        help="gate the batch front-end's metered device "
                             "reads at no worse than unbatched execution "
                             "on the mixed workload in this run")
    parser.add_argument("--batching-tolerance", type=float, default=1.0,
                        help="allowed batched-vs-unbatched I/O factor for "
                             "--check-batching")
    parser.add_argument("--check-replay", action="store_true",
                        help="gate query-log capture at zero dropped records "
                             "and zero extra device reads, and every replay "
                             "at zero digest mismatches in this run")
    args = parser.parse_args(argv)

    payload = {
        "benchmark": "bench_service_load",
        "seed": SEED,
        "note": (
            "io_per_query comes from a single-worker metered pass and is "
            "deterministic; latency/qps are wall-clock and machine-dependent"
        ),
    }
    if args.quick:
        print("quick mode:")
        quick = run_mode(QUICK_CONFIGS, QUICK_SCALE)
        payload["quick"] = quick
    else:
        print("full mode:")
        payload.update(run_mode(FULL_CONFIGS, FULL_SCALE))
        print("quick mode (CI baseline section):")
        payload["quick"] = run_mode(QUICK_CONFIGS, QUICK_SCALE)

    out = args.out if args.out is not None else DEFAULT_OUT
    if out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")

    code = 0
    if args.check:
        code = check_regression(payload["quick"], args.check, args.tolerance)
    if args.check_planner:
        section = payload["quick"] if "quick" in payload else payload
        code = max(code, check_planner(section, args.planner_tolerance))
    if args.check_batching:
        section = payload["quick"] if "quick" in payload else payload
        code = max(code, check_batching(section, args.batching_tolerance))
    if args.check_replay:
        section = payload["quick"] if "quick" in payload else payload
        code = max(code, check_replay(section))
    return code


if __name__ == "__main__":
    sys.exit(main())
