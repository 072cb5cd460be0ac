"""Run-to-run spread of the benchmark, and which counts repeat exactly.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload cold_tree --seeds 1-10
    python3 perfbench/spread.py --workload hot_planned --seeds 3,4 --repeat

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric its median and the distance between its first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound in ``BENCHMARK.json``.  ``--repeat`` runs every
seed twice and lists the metrics that came out identical both times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"seed {seed}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    print(f"seed {seed}: {lines[-2]}", flush=True)
    result = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        first = run_once(bench, args.workload, seed, seconds, args.trace)
        runs.append(first)
        print(f"seed {seed}: " + json.dumps(first), flush=True)
        if args.repeat:
            second = run_once(bench, args.workload, seed, seconds, args.trace)
            same = sorted(name for name in first if first[name] == second[name])
            print(f"seed {seed}: identical on repeat: {', '.join(same)}", flush=True)
    if len(runs) < 2:
        return 0
    print(f"{'metric':36} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in runs[0]:
        values = [run[name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
        print(f"{name:36} {median:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
