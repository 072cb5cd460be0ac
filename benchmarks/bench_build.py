"""Engine build profile: median milliseconds per build phase.

Builds each engine phase by phase, calling every phase directly, and
prints the median time of each phase over ``--setups`` set-ups:

* ``fit``: the keyword partitioner's fit (sharded engine only);
* ``append``: appending the objects to the corpus (to each shard's, on
  the sharded engine, after the partitioner places them);
* ``items``: the build's one read of the corpus into build items;
* ``ir2`` / ``iio``: each index structure (an ``auto`` engine's
  candidates one by one);
* ``stats``: the planner statistics (``auto`` only);
* ``routing``: the sharded engine's shard MBBs and keyword summaries.

A sharded engine's per-shard phases are summed over its shards.  The
``build()`` row times ``add_all`` plus ``build()`` on a fresh engine,
the path every caller takes; ``total`` is the sum of the phases above
it.  Before timing, each configuration's phased engine is checked
against a ``build()`` of the same objects.

The configurations are ``ir2``, ``auto``, and a two-shard ``auto``
engine with the keyword partitioner (perfbench hot_planned's engine),
over a Restaurants-shaped corpus (seed 7) of 2,000 objects with
``--quick`` and 20,000 without.  Wall-clock times are
machine-dependent; nothing here is gated.

Usage::

    python benchmarks/bench_build.py --quick
    python benchmarks/bench_build.py --setups 5
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import statistics
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench import format_table  # noqa: E402
from repro.core.builder import DEFAULT_BULK_FILL  # noqa: E402
from repro.core.engine import SpatialKeywordEngine  # noqa: E402
from repro.core.indexes import AutoIndex, corpus_items  # noqa: E402
from repro.datasets import SpatialTextDatasetGenerator  # noqa: E402
from repro.datasets.generator import restaurants_config  # noqa: E402
from repro.shard import ShardedEngine  # noqa: E402

CONFIGS = ("ir2", "auto", "auto x2 keyword")
PHASES = ("fit", "append", "items", "ir2", "iio", "stats", "routing")


def make_objects(n_objects: int):
    config = dataclasses.replace(
        restaurants_config(scale=n_objects / 456_288, seed=7),
        n_objects=n_objects,
    )
    return SpatialTextDatasetGenerator(config).generate()


def new_engine(config: str):
    if config == "auto x2 keyword":
        return ShardedEngine(n_shards=2, index="auto", partitioner="keyword")
    return SpatialKeywordEngine(index=config)


def timed(times: dict, phase: str, call, *args):
    started = time.perf_counter()
    result = call(*args)
    elapsed = (time.perf_counter() - started) * 1000.0
    times[phase] = times.get(phase, 0.0) + elapsed
    return result


def build_index(index, times: dict) -> None:
    """``SpatialKeywordIndex.build``, one timed phase per structure."""
    items = timed(times, "items", corpus_items, index.corpus)
    auto = isinstance(index, AutoIndex)
    children = index.children if auto else {index.label.lower(): index}
    for kind, child in children.items():
        timed(times, kind, child._build_structure, items, True, DEFAULT_BULK_FILL)
        child.built = True
    if auto:
        timed(times, "stats", index.stats.rebuild, items)
    index.built = True


def build_phased(config: str, objects) -> tuple[object, dict]:
    """An engine built phase by phase, and each phase's milliseconds."""
    times: dict = {}
    engine = new_engine(config)
    if not isinstance(engine, ShardedEngine):
        timed(times, "append", engine.add_all, objects)
        build_index(engine.index, times)
        return engine, times
    # ShardedEngine.build: fit, place, build each shard, refit routing.
    partitioner, analyzer = engine.partitioner, engine.analyzer
    timed(times, "fit", partitioner.fit_objects, objects, analyzer)

    def append() -> None:
        for obj in objects:
            shard_id = partitioner.assign_object(obj, analyzer=analyzer)
            engine.shards[shard_id].add(obj)
            engine._shard_of[obj.oid] = shard_id

    timed(times, "append", append)
    for shard in engine.shards:
        build_index(shard.index, times)
    timed(times, "routing", engine._refit_routing)
    engine.built = True
    return engine, times


def build_whole(config: str, objects):
    engine = new_engine(config)
    engine.add_all(objects)
    engine.build()
    return engine


def fingerprint(engine) -> tuple:
    """What a phased build must share with ``build()``."""
    if isinstance(engine, ShardedEngine):
        return (
            [shard.index.size_mb for shard in engine.shards],
            [len(shard) for shard in engine.shards],
            engine.shard_mbbs,
            [summary.to_dict() for summary in engine.summaries],
        )
    return (engine.index.size_mb, len(engine.corpus))


def profile(config: str, objects, setups: int) -> dict:
    """Median ms per phase (and of ``build()``) over ``setups`` set-ups."""
    phased, _ = build_phased(config, objects)
    whole = build_whole(config, objects)
    if fingerprint(phased) != fingerprint(whole):
        raise SystemExit(f"{config}: the phased build differs from build()")
    samples: dict[str, list[float]] = {}
    for _ in range(setups):
        _, times = build_phased(config, objects)
        times["total"] = sum(times.values())
        started = time.perf_counter()
        build_whole(config, objects)
        times["build()"] = (time.perf_counter() - started) * 1000.0
        for phase, ms in times.items():
            samples.setdefault(phase, []).append(ms)
    return {phase: statistics.median(ms) for phase, ms in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="2,000 objects instead of 20,000")
    parser.add_argument("--setups", type=int, default=3,
                        help="set-ups per configuration (median reported)")
    args = parser.parse_args(argv)
    if args.setups < 1:
        parser.error("--setups must be >= 1")
    n_objects = 2_000 if args.quick else 20_000
    objects = make_objects(n_objects)
    medians = {}
    for config in CONFIGS:
        medians[config] = profile(config, objects, args.setups)
        print(f"[bench] {config}: build() {medians[config]['build()']:.1f} ms",
              flush=True)
    rows = [
        (phase, *(medians[config].get(phase, "") for config in CONFIGS))
        for phase in (*PHASES, "total", "build()")
    ]
    print(format_table(
        ("phase (median ms)", *CONFIGS), rows,
        title=f"Build phases: {n_objects:,} objects, "
              f"median of {args.setups} set-ups",
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
