"""Read latency under a live write stream vs the same reads write-free.

Measures what snapshot (copy-on-write) maintenance is for: the read-side
p95 while a writer continuously mutates the served engine.  For every
config the same reads run twice, each on a fresh engine —

* ``write_free`` — the reader pool alone, no writer;
* ``under_writes`` — the same readers beside one writer paced at
  :data:`WRITE_RATE` writes/s.  It alternates adding a new object (a
  fresh oid carrying a live original's point and text) with deleting
  that original, so every write stays in the buffer: writes buffer into
  the overlay (readers pin published versions and never block) and
  background merges fold the buffer every ``compact_every`` writes
  (``merge_threshold = compact_every``), through the incremental copy
  of the base.

Reader threads cycle through their point/area queries until the pass
has lasted ``seconds``, recording wall-clock latency per call; a pass
of a fixed length meets a known number of merges (about ``seconds *
WRITE_RATE / compact_every``) however fast the machine reads.  The JSON
baseline (``BENCH_PR8.json`` at the repo root) records p50/p95/QPS per
pass plus the write and merge counts, and the under-writes/write-free
p95 ratio.

Wall-clock numbers are machine-dependent, so CI never compares them
against a committed baseline.  ``--check-maintenance`` gates *within*
one run — on the same machine, same moment — that every under-writes
pass met at least one merge and that its read p95 stays within
``--tolerance`` (default 10) times the write-free read p95.  Readers
that never block on writers pay only the overlay and the merges and
writes that share the interpreter lock with them; readers queued
behind a writer-preferring lock that each write holds measured 17-44x
on a 2-CPU machine.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.workloads import ConcurrentLoadGenerator  # noqa: E402
from repro.core.engine import SpatialKeywordEngine  # noqa: E402
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator  # noqa: E402
from repro.serve import QueryService  # noqa: E402
from repro.shard import ShardedEngine  # noqa: E402

DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_PR8.json")
SEED = 4321
DEFAULT_TOLERANCE = 10.0

#: The writer's fixed pace, the rate perfbench's read_write writer uses.
#: A faster writer meets more merges per second of reads: on a 2-vCPU VM,
#: passes of 400 queries per reader at 200 writes/s met 10-15 merges and
#: read p95 ratios of 6.8-11.1x, too close to the 10x bound to tell a
#: regression from noise.  At 100 writes/s quick passes meet 6 merges at
#: ratios of 0.9-1.3x.
WRITE_RATE = 100.0

#: The two passes of every config: readers alone, then beside a writer.
WRITE_FREE = "write_free"
UNDER_WRITES = "under_writes"

FULL_CONFIGS = [("ir2", 1), ("iio", 1), ("ir2", 2)]
QUICK_CONFIGS = [("ir2", 1)]

FULL_SCALE = dict(
    n_objects=800, readers=3, queries_per_reader=80, compact_every=24,
    seconds=3.0,
)
QUICK_SCALE = dict(
    n_objects=250, readers=2, queries_per_reader=32, compact_every=16,
    seconds=1.0,
)

WORKLOAD_MIX = dict(
    keyword_counts=(1, 2, 3), k=10, hot_fraction=0.3, hot_pool=6,
    area_fraction=0.2, ranked_fraction=0.0,
)


def _corpus(n_objects: int):
    config = DatasetConfig(
        name="live-maintenance",
        n_objects=n_objects,
        vocabulary_size=2_000,
        avg_unique_words=18,
        clusters=6,
        seed=SEED,
    )
    return SpatialTextDatasetGenerator(config).generate()


def _build_engine(objects, index: str, shards: int):
    if shards > 1:
        engine = ShardedEngine(n_shards=shards, index=index)
    else:
        engine = SpatialKeywordEngine(index=index)
    engine.add_all(objects)
    engine.build()
    return engine


def _percentile(samples, q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _run_pass(objects, index, shards, with_writer, scale):
    """One timed pass: the reader pool, beside a sustained writer or not."""
    engine = _build_engine(objects, index, shards)
    analyzer = engine.analyzer
    service = QueryService(
        engine,
        workers=scale["readers"] + 1,
        cache=False,
        merge_threshold=scale["compact_every"],
    )
    workload = ConcurrentLoadGenerator(objects, analyzer, seed=SEED)
    queries = workload.mixed_batch(
        scale["readers"] * scale["queries_per_reader"], **WORKLOAD_MIX
    )
    per_reader = [
        queries[i::scale["readers"]] for i in range(scale["readers"])
    ]
    latencies_ms: list[float] = []
    lock = threading.Lock()
    stop = threading.Event()
    writes = {"count": 0}
    errors: list[Exception] = []

    def reader(batch):
        local = []
        deadline = time.perf_counter() + scale["seconds"]
        try:
            for query in itertools.cycle(batch):
                t0 = time.perf_counter()
                service.search(query)
                local.append((time.perf_counter() - t0) * 1000.0)
                if t0 >= deadline and len(local) >= len(batch):
                    break
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
        with lock:
            latencies_ms.extend(local)

    def writer():
        next_oid = max(obj.oid for obj in objects) + 1
        started = time.perf_counter()

        def wait_turn() -> bool:
            """Sleep until the next write is due; False once readers end."""
            due = started + writes["count"] / WRITE_RATE
            return not stop.wait(max(0.0, due - time.perf_counter()))

        try:
            for original in objects:
                if not wait_turn():
                    break
                service.add_object(next_oid, original.point, original.text)
                next_oid += 1
                writes["count"] += 1
                if not wait_turn():
                    break
                service.delete(original.oid)
                writes["count"] += 1
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(batch,))
        for batch in per_reader
    ]
    write_thread = threading.Thread(target=writer) if with_writer else None
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    if write_thread is not None:
        write_thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    stop.set()
    if write_thread is not None:
        write_thread.join()
    merges = service.maintainer.merges
    service.close()
    if errors:
        raise errors[0]
    return {
        "p50_ms": round(_percentile(latencies_ms, 0.50), 3),
        "p95_ms": round(_percentile(latencies_ms, 0.95), 3),
        "mean_ms": round(statistics.fmean(latencies_ms), 3),
        "qps": round(len(latencies_ms) / elapsed, 1),
        "queries": len(latencies_ms),
        "writes": writes["count"],
        "merges": merges,
    }


def run(quick: bool):
    scale = QUICK_SCALE if quick else FULL_SCALE
    configs = QUICK_CONFIGS if quick else FULL_CONFIGS
    objects = _corpus(scale["n_objects"])
    cells = []
    for index, shards in configs:
        cell = {"index": index, "shards": shards}
        for name in (WRITE_FREE, UNDER_WRITES):
            print(f"[bench] {index} x{shards} pass={name} ...", flush=True)
            cell[name] = _run_pass(
                objects, index, shards, name == UNDER_WRITES, scale
            )
        free = cell[WRITE_FREE]["p95_ms"]
        ratio = cell[UNDER_WRITES]["p95_ms"] / free if free else float("inf")
        cell["p95_ratio"] = round(ratio, 2)
        print(
            f"[bench] {index} x{shards}: read p95 "
            f"{cell[UNDER_WRITES]['p95_ms']} ms under writes vs "
            f"{free} ms write-free ({ratio:.2f}x)",
            flush=True,
        )
        cells.append(cell)
    return {
        "scale": dict(scale),
        "writer": (
            f"paced at {WRITE_RATE:g} writes/s, alternating an add of a "
            "new object with the delete of a live original"
        ),
        "workload": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in WORKLOAD_MIX.items()},
        "seed": SEED,
        "configs": cells,
    }


def check_maintenance(payload, tolerance: float) -> list[str]:
    """Within-run gate: merges ran, and reads under writes stay near write-free."""
    failures = []
    for cell in payload["configs"]:
        loaded = cell[UNDER_WRITES]["p95_ms"]
        free = cell[WRITE_FREE]["p95_ms"]
        if cell[UNDER_WRITES]["writes"] == 0:
            failures.append(
                f"{cell['index']} x{cell['shards']}: the writer never ran"
            )
        elif cell[UNDER_WRITES]["merges"] == 0:
            failures.append(
                f"{cell['index']} x{cell['shards']}: no merge ran under "
                "writes, so the pass did not measure maintenance"
            )
        elif loaded > free * tolerance:
            failures.append(
                f"{cell['index']} x{cell['shards']}: read p95 {loaded} ms "
                f"under writes exceeds {tolerance}x the write-free read "
                f"p95 {free} ms"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small CI configuration")
    parser.add_argument("--out", default=None,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--check-maintenance", action="store_true",
                        help="exit 2 unless every under-writes pass met "
                             "a merge and its read p95 stays within "
                             "--tolerance times the write-free read p95 "
                             "of this run")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed under-writes/write-free read p95 "
                             f"ratio (default {DEFAULT_TOLERANCE:g})")
    args = parser.parse_args(argv)

    payload = {
        "benchmark": "live-maintenance",
        "mode": "quick" if args.quick else "full",
        "results": run(args.quick),
    }
    out = args.out or DEFAULT_OUT
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench] wrote {out}")

    if args.check_maintenance:
        failures = check_maintenance(payload["results"], args.tolerance)
        if failures:
            for failure in failures:
                print(f"[bench] FAIL: {failure}", file=sys.stderr)
            return 2
        print("[bench] maintenance gate passed: merges ran and read p95 "
              f"under writes within {args.tolerance:g}x write-free in "
              "every config")
    return 0


if __name__ == "__main__":
    sys.exit(main())
