"""Regenerate ``benchmarks/data/sample_querylog.jsonl``.

CI's perf-smoke job replays this committed log against the engine it
builds for the trace step (``generate --dataset hotels --scale 0.01``
then ``build --index ir2 --signature-bytes 4 --shards 2``) and fails on
any digest mismatch.  The log must therefore be captured against an
engine built by those *exact same CLI steps* — this script runs them in
a scratch directory, loads the persisted engine back, and drives a
seeded mixed point/area/ranked workload through a serial
:class:`~repro.serve.QueryService` with an unsampled query log.

Re-run it (``python benchmarks/make_sample_querylog.py``) only when the
record schema, the engine's answer order, or the CI build flags change;
the output is deterministic, so an unchanged stack reproduces the
committed file byte for byte apart from wall-clock latency fields.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.workloads import ConcurrentLoadGenerator  # noqa: E402
from repro.cli import main as repro_main  # noqa: E402
from repro.core.ranking import DistanceDecayRanking  # noqa: E402
from repro.persist import load_engine  # noqa: E402
from repro.serve import QueryService  # noqa: E402

OUT = os.path.join(REPO_ROOT, "benchmarks", "data", "sample_querylog.jsonl")

#: Workload shape: every record kind the schema carries (point, area,
#: ranked, duplicate hot queries for cache-hit records).
N_QUERIES = 64
SEED = 4242


def main() -> int:
    scratch = tempfile.mkdtemp(prefix="sample-querylog-")
    try:
        hotels = os.path.join(scratch, "hotels.tsv")
        engine_dir = os.path.join(scratch, "engine-dir")
        # The same two CLI steps CI's perf-smoke job runs.
        assert repro_main([
            "generate", "--dataset", "hotels", "--scale", "0.01",
            "--out", hotels,
        ]) == 0
        assert repro_main([
            "build", "--data", hotels, "--out", engine_dir,
            "--index", "ir2", "--signature-bytes", "4", "--shards", "2",
        ]) == 0

        engine = load_engine(engine_dir)
        objects = list(engine.objects())
        workload = ConcurrentLoadGenerator(objects, engine.analyzer,
                                           seed=SEED)
        spans = [
            max(o.point[d] for o in objects) - min(o.point[d] for o in objects)
            for d in range(objects[0].dims)
        ]
        ranking = DistanceDecayRanking(half_distance=max(spans) * 0.1)
        batch = workload.mixed_batch(
            N_QUERIES, k=10, hot_fraction=0.3, hot_pool=6,
            area_fraction=0.2, ranked_fraction=0.2, ranking=ranking,
            keyword_counts=(1, 2, 3),
        )

        os.makedirs(os.path.dirname(OUT), exist_ok=True)
        if os.path.exists(OUT):
            os.unlink(OUT)
        with QueryService(engine, workers=1, query_log=OUT) as service:
            service.run_batch(batch)
            writer = service.query_log
        # Counters are read after close(), when the writer has drained.
        print(
            f"captured {writer.seen} queries ({writer.written} written, "
            f"{writer.dropped} dropped) to {OUT}"
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
