"""Experiment harness: builds datasets + indexes, sweeps parameters.

One :class:`ExperimentContext` bundles a synthetic dataset (Hotels or
Restaurants, scaled for laptop runs), the shared corpus, the four built
index structures, and a deterministic workload generator.  Contexts are
cached per configuration so every benchmark file reuses the same builds.

The experiment scale is controlled by the ``REPRO_SCALE`` environment
variable (fraction of the paper's object counts; default 0.02).  The
signature lengths default to the paper's: 189 bytes for Hotels, 8 bytes
for Restaurants (Section VI).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.bench.reporting import SeriesTable
from repro.bench.workloads import WorkloadGenerator
from repro.core.corpus import Corpus
from repro.core.indexes import (
    IIOIndex,
    IR2Index,
    MIR2Index,
    RTreeIndex,
    SpatialKeywordIndex,
)
from repro.core.query import SpatialKeywordQuery
from repro.datasets.generator import (
    SpatialTextDatasetGenerator,
    hotels_config,
    restaurants_config,
)
from repro.model import SpatialObject
from repro.storage.timing import DEFAULT_DRIVE

#: Algorithm order used throughout the figures.
ALGORITHMS = ("RTREE", "IIO", "IR2", "MIR2")

#: The paper's signature lengths per dataset (Section VI).
PAPER_SIGNATURE_BYTES = {"hotels": 189, "restaurants": 8}

#: Default fraction of the paper's object counts for laptop runs.
DEFAULT_SCALE = 0.02


def bench_scale() -> float:
    """Experiment scale from ``REPRO_SCALE`` (default 0.02)."""
    raw = os.environ.get("REPRO_SCALE", "")
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_SCALE
    return value if value > 0 else DEFAULT_SCALE


def queries_per_point() -> int:
    """Queries averaged per swept point (``REPRO_QUERIES``, default 8)."""
    raw = os.environ.get("REPRO_QUERIES", "")
    try:
        value = int(raw)
    except ValueError:
        return 8
    return value if value > 0 else 8


@dataclass
class MetricsRow:
    """Mean per-query costs of one algorithm at one swept point."""

    simulated_ms: float = 0.0
    random_accesses: float = 0.0
    sequential_accesses: float = 0.0
    object_accesses: float = 0.0
    results_returned: float = 0.0
    false_positives: float = 0.0

    #: metric attribute -> human label, in figure order.
    METRICS = {
        "simulated_ms": "simulated execution time (ms)",
        "random_accesses": "random block accesses",
        "sequential_accesses": "sequential block accesses",
        "object_accesses": "object accesses",
        "false_positives": "false-positive candidates",
    }


class ExperimentContext:
    """A dataset with all four index structures built and ready to query."""

    def __init__(
        self,
        dataset: str,
        scale: float,
        signature_bytes: int,
        algorithms: Sequence[str] = ALGORITHMS,
        seed: int = 42,
        capacity: int | None = None,
    ) -> None:
        self.dataset = dataset
        self.scale = scale
        self.signature_bytes = signature_bytes
        config = (
            hotels_config(scale) if dataset == "hotels" else restaurants_config(scale)
        )
        self.config = config
        self.objects: list[SpatialObject] = SpatialTextDatasetGenerator(
            config
        ).generate()
        self.corpus = Corpus()
        self.corpus.add_all(self.objects)
        self.indexes: dict[str, SpatialKeywordIndex] = {}
        for name in algorithms:
            self.indexes[name] = self._make_index(name, capacity)
            self.indexes[name].build()
            self.indexes[name].reset_io()
        self.workload = WorkloadGenerator(self.objects, self.corpus.analyzer, seed)

    def _make_index(self, name: str, capacity: int | None) -> SpatialKeywordIndex:
        if name == "RTREE":
            return RTreeIndex(self.corpus, capacity=capacity)
        if name == "IIO":
            return IIOIndex(self.corpus)
        if name == "IR2":
            return IR2Index(self.corpus, self.signature_bytes, capacity=capacity)
        if name == "MIR2":
            return MIR2Index(self.corpus, self.signature_bytes, capacity=capacity)
        raise ValueError(f"unknown algorithm {name!r}")

    # -- Measurement -------------------------------------------------------------

    def measure(
        self, algorithm: str, queries: Sequence[SpatialKeywordQuery]
    ) -> MetricsRow:
        """Mean per-query cost of ``algorithm`` over a query batch."""
        index = self.indexes[algorithm]
        row = MetricsRow()
        for query in queries:
            execution = index.execute(query)
            row.simulated_ms += execution.simulated_ms(DEFAULT_DRIVE)
            row.random_accesses += execution.io.random_accesses
            row.sequential_accesses += execution.io.sequential_accesses
            row.object_accesses += execution.objects_inspected
            row.results_returned += len(execution.results)
            row.false_positives += execution.false_positive_candidates
        n = max(1, len(queries))
        row.simulated_ms /= n
        row.random_accesses /= n
        row.sequential_accesses /= n
        row.object_accesses /= n
        row.results_returned /= n
        row.false_positives /= n
        return row

    def run_queries(self, algorithm: str, queries: Sequence[SpatialKeywordQuery]) -> None:
        """Execute a batch without collecting metrics (for wall-clock timing)."""
        index = self.indexes[algorithm]
        for query in queries:
            index.execute(query)


@dataclass
class SweepResult:
    """All metric tables of one figure-style parameter sweep."""

    tables: dict[str, SeriesTable] = field(default_factory=dict)

    def table(self, metric: str) -> SeriesTable:
        return self.tables[metric]

    def render(self) -> str:
        return "\n\n".join(table.render() for table in self.tables.values())

    def render_markdown(self) -> str:
        return "\n\n".join(table.render_markdown() for table in self.tables.values())


def run_sweep(
    context: ExperimentContext,
    title: str,
    parameter: str,
    values: Sequence,
    make_queries: Callable[[object], list[SpatialKeywordQuery]],
    algorithms: Sequence[str] | None = None,
) -> SweepResult:
    """Run one paper-figure sweep and collect every metric series.

    Args:
        context: built experiment context.
        title: figure label prefix (e.g. "Figure 9 (Hotels, vary k)").
        parameter: name of the swept parameter for the table column.
        values: swept values.
        make_queries: value -> the query batch for that point (the same
            batch is executed by every algorithm).
        algorithms: subset/order override of the context's algorithms.
    """
    names = list(algorithms or context.indexes.keys())
    result = SweepResult()
    for metric, label in MetricsRow.METRICS.items():
        result.tables[metric] = SeriesTable(
            title=f"{title} — {label}", parameter=parameter, algorithms=names
        )
    for value in values:
        queries = make_queries(value)
        rows = {name: context.measure(name, queries) for name in names}
        for metric in MetricsRow.METRICS:
            result.tables[metric].add(
                value, {name: getattr(rows[name], metric) for name in names}
            )
    return result


# ---------------------------------------------------------------------------
# Context cache shared by all benchmark files in one pytest session.
# ---------------------------------------------------------------------------

_CONTEXTS: dict[tuple, ExperimentContext] = {}


def save_markdown(name: str, text: str, directory: str | None = None) -> str:
    """Persist a rendered result table for EXPERIMENTS.md; returns the path.

    Files land in ``REPRO_RESULTS_DIR`` (default ``benchmarks/results``)
    relative to the current working directory.
    """
    target_dir = directory or os.environ.get("REPRO_RESULTS_DIR", "benchmarks/results")
    os.makedirs(target_dir, exist_ok=True)
    path = os.path.join(target_dir, f"{name}.md")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path


def get_context(
    dataset: str,
    signature_bytes: int | None = None,
    scale: float | None = None,
    algorithms: Sequence[str] = ALGORITHMS,
    seed: int = 42,
) -> ExperimentContext:
    """Build (or reuse) the context for one experiment configuration."""
    if dataset not in ("hotels", "restaurants"):
        raise ValueError(f"unknown dataset {dataset!r}")
    effective_scale = scale if scale is not None else bench_scale()
    effective_signature = (
        signature_bytes
        if signature_bytes is not None
        else PAPER_SIGNATURE_BYTES[dataset]
    )
    key = (dataset, effective_scale, effective_signature, tuple(algorithms), seed)
    context = _CONTEXTS.get(key)
    if context is None:
        context = ExperimentContext(
            dataset, effective_scale, effective_signature, algorithms, seed
        )
        _CONTEXTS[key] = context
    return context
