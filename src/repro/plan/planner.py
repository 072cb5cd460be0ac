"""The cost-based planner: route each query to the cheapest strategy.

:class:`QueryPlanner` holds one index instance per candidate strategy
(all built over the same shared corpus), asks each for a
:class:`~repro.plan.cost.CostEstimate` via its ``estimate_cost`` hook,
and picks the cheapest under the simulated drive model.  Decisions are
deterministic: ties break by candidate declaration order, and the plan
cache can only skip recomputation — identical statistics and query shape
always produce the identical :class:`PlanDecision`.

The **plan cache** is keyed by *query shape* — query class (point /
area / ranked), the sorted normalized keyword set, and ``k`` — not by the
query point: the cost model itself is location-independent for point
queries (selectivity and k drive the estimate), so one entry serves every
location asking the same question.  Area queries additionally key on the
density-grid cells the area overlaps.  Every entry remembers the
statistics version it was computed under and is dropped once inserts or
deletes move it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.errors import QueryError
from repro.obs.metrics import MetricHandles
from repro.plan.cost import CostEstimate
from repro.plan.stats import PlannerStatistics
from repro.storage.timing import DEFAULT_DRIVE, DriveModel


@dataclass(frozen=True)
class PlanDecision:
    """One routing decision: the chosen strategy and every alternative."""

    strategy: str
    query_class: str
    estimates: Mapping[str, CostEstimate]
    cost_ms: float
    stats_version: int
    cached: bool = False
    forced: bool = False

    def as_dict(self, drive: DriveModel = DEFAULT_DRIVE) -> dict:
        """JSON-ready payload recorded on the :class:`QueryExecution`."""
        return {
            "strategy": self.strategy,
            "query_class": self.query_class,
            "estimated_cost_ms": round(self.cost_ms, 4),
            "cached": self.cached,
            "forced": self.forced,
            "stats_version": self.stats_version,
            "estimates": {
                kind: estimate.as_dict(drive)
                for kind, estimate in self.estimates.items()
            },
        }


class QueryPlanner:
    """Pick the cheapest execution strategy for each query.

    Args:
        candidates: strategy name -> index instance exposing
            ``estimate_cost(query, stats, terms)``; declaration order is the
            deterministic tie-break order.
        stats: the shared :class:`PlannerStatistics`.
        metrics: optional :class:`repro.obs.MetricsRegistry`; receives
            ``planner.chosen.<strategy>`` / ``planner.won.<strategy>`` /
            ``planner.lost.<strategy>`` counters plus plan-cache hit and
            miss counts, each looked up in the registry once
            (:class:`~repro.obs.metrics.MetricHandles`).
            :class:`repro.serve.QueryService` attaches its own registry
            when the planner has none.
        cache_capacity: LRU plan-cache entries (0 disables caching).
        drive: drive model used to scalarize estimates.
    """

    def __init__(
        self,
        candidates: Mapping[str, object],
        stats: PlannerStatistics,
        metrics=None,
        cache_capacity: int = 512,
        drive: DriveModel = DEFAULT_DRIVE,
    ) -> None:
        if not candidates:
            raise QueryError("planner needs at least one candidate strategy")
        self.candidates = dict(candidates)
        self.stats = stats
        self.metrics = metrics
        self.drive = drive
        self.cache_capacity = cache_capacity
        #: Pin every decision to one strategy (None routes freely).  Set
        #: to a candidate name to force, e.g. for debugging a workload.
        self.force: str | None = None
        self._cache: OrderedDict[tuple, PlanDecision] = OrderedDict()
        self._lock = threading.Lock()

    @property
    def metrics(self):
        """The registry the counters go to (None records nothing)."""
        return self._metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry
        self._counters = (
            MetricHandles(registry.counter) if registry is not None else None
        )

    # -- Decisions --------------------------------------------------------------

    def query_class(self, query) -> str:
        if query.ranking is not None:
            return "ranked"
        if query.area is not None:
            return "area"
        return "point"

    def shape_key(self, query, terms: Sequence[str]) -> tuple:
        """Cache key: everything the cost model reads except the point.

        ``terms`` are the query's normalized keywords
        (:meth:`~repro.text.analyzer.Analyzer.query_terms`).
        """
        area_key: tuple = ()
        if query.area is not None:
            grid = self.stats.grid
            if grid is not None:
                area_key = grid.cell_range(query.area)
            else:
                area_key = (tuple(query.area.lo), tuple(query.area.hi))
        return (
            self.query_class(query), tuple(sorted(terms)), query.k, area_key,
            self.force,
        )

    def decide(self, query, terms: Sequence[str] | None = None) -> PlanDecision:
        """The routing decision for ``query`` (cached by query shape).

        ``terms`` are the query's normalized keywords when the caller has
        them already (an engine analyzes a query once and hands the terms
        to every layer); they are computed here otherwise.
        """
        if terms is None:
            terms = self.stats.analyzer.query_terms(query.keywords)
        key = self.shape_key(query, terms)
        version = self.stats.version
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None and hit.stats_version == version:
                self._cache.move_to_end(key)
                self._count("planner.cache.hits")
                return replace(hit, cached=True)
        self._count("planner.cache.misses")
        decision = self._compute(query, version, terms)
        if self.cache_capacity > 0:
            with self._lock:
                self._cache[key] = decision
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_capacity:
                    self._cache.popitem(last=False)
        return decision

    def _compute(self, query, version: int, terms: Sequence[str]) -> PlanDecision:
        estimates: dict[str, CostEstimate] = {}
        for kind, index in self.candidates.items():
            estimate = index.estimate_cost(query, self.stats, terms)
            if estimate is not None:
                estimates[kind] = estimate
        if not estimates:
            raise QueryError(
                f"no candidate strategy among {sorted(self.candidates)} "
                f"can execute a {self.query_class(query)} query"
            )
        forced = self.force is not None and self.force in estimates
        if forced:
            chosen = self.force
        else:
            # min() keeps the first of equal costs: candidate order is
            # the deterministic tie-break.
            chosen = min(estimates, key=lambda kind: estimates[kind].cost_ms(self.drive))
        return PlanDecision(
            strategy=chosen,
            query_class=self.query_class(query),
            estimates=estimates,
            cost_ms=estimates[chosen].cost_ms(self.drive),
            stats_version=version,
            forced=forced,
        )

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    # -- Accounting -------------------------------------------------------------

    def observe(self, decision: PlanDecision, actual_cost_ms: float) -> None:
        """Record a decision's outcome in the metrics registry.

        A decision *won* when the chosen strategy's **actual** simulated
        cost stayed at or below the cheapest **estimated** alternative —
        i.e. hindsight does not indict the choice.
        """
        counters = self._counters
        if counters is None:
            return
        strategy = decision.strategy
        counters["planner.queries"].inc()
        counters[f"planner.chosen.{strategy}"].inc()
        alternatives = [
            estimate.cost_ms(self.drive)
            for kind, estimate in decision.estimates.items()
            if kind != strategy
        ]
        if not alternatives or actual_cost_ms <= min(alternatives) + 1e-9:
            counters[f"planner.won.{strategy}"].inc()
        else:
            counters[f"planner.lost.{strategy}"].inc()

    def _count(self, name: str) -> None:
        if self._counters is not None:
            self._counters[name].inc()

    # -- Introspection ----------------------------------------------------------

    def explain(self, query) -> dict:
        """Full per-strategy breakdown for ``repro plan explain``."""
        terms = self.stats.analyzer.query_terms(query.keywords)
        decision = self.decide(query, terms)
        return {
            "decision": decision.as_dict(self.drive),
            "statistics": {
                **self.stats.as_dict(),
                "query_terms": {
                    term: self.stats.document_frequency(term) for term in terms
                },
                "selectivity": self.stats.selectivity(terms),
            },
        }


def attach_planner_metrics(engine, metrics) -> int:
    """Point every planner under ``engine`` at ``metrics``; count attached.

    Walks the single-engine index and, for sharded engines, every shard's
    index.  Planners that already have a registry keep it.
    """
    indexes = []
    index = getattr(engine, "index", None)
    if index is not None:
        indexes.append(index)
    for shard in getattr(engine, "shards", None) or []:
        indexes.append(shard.index)
    attached = 0
    for candidate in indexes:
        planner = getattr(candidate, "planner", None)
        if planner is not None and planner.metrics is None:
            planner.metrics = metrics
            attached += 1
    return attached
