"""Query model for top-k spatial keyword search (paper Section II).

A :class:`SpatialKeywordQuery` is the paper's ``Q``: a number ``Q.k`` of
requested results, a point ``Q.p``, and a set ``Q.t`` of keywords.  The
*distance-first* variant (used in the paper's running examples and all of
its experiments) ranks by distance and applies the keywords as a
conjunctive filter; the *general* variant ranks by a combined function
``f(distance, IRscore)`` supplied at query time.

:class:`QueryExecution` packages a query's answers together with the
per-query cost metrics the paper reports: random/sequential block
accesses, objects inspected, and simulated execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import QueryError
from repro.model import SearchResult
from repro.spatial.geometry import Rect
from repro.storage.iostats import IOCounts
from repro.storage.timing import DEFAULT_DRIVE, DriveModel


@dataclass(frozen=True)
class SpatialKeywordQuery:
    """A top-k spatial keyword query ``Q = (Q.k, Q.p, Q.t)``.

    The spatial anchor is normally a point; Section III notes "an area
    could be used instead", so a query may also carry a rectangular
    ``area`` — distances are then measured to the nearest point of the
    area (objects inside it are at distance 0).

    A query may additionally carry a ``ranking`` function, turning it
    into the paper's *general* variant (Section V.C): results are then
    ordered by ``f(distance, IRscore)`` instead of plain distance, and
    :meth:`SpatialKeywordEngine.search` dispatches it to the ranked
    execution path.

    Attributes:
        point: query location ``Q.p`` (the area's center for area queries).
        keywords: query keywords ``Q.t`` (order preserved, duplicates
            allowed here; analyzers deduplicate).
        k: number of requested results ``Q.k``.
        area: optional query area; when present it supersedes ``point``
            as the spatial target.
        ranking: optional combined ranking function ``f(distance,
            ir_score)`` — decreasing in distance, increasing in IR score.
            ``None`` means distance-first with a conjunctive keyword
            filter (the paper's default and all of its experiments).
    """

    point: tuple[float, ...]
    keywords: tuple[str, ...]
    k: int
    area: Rect | None = None
    ranking: Callable[[float, float], float] | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        if not self.point:
            raise QueryError("query point must have at least one dimension")
        if not self.keywords:
            raise QueryError("query must carry at least one keyword")
        if self.area is not None and self.area.dims != len(self.point):
            raise QueryError(
                f"area dimensionality {self.area.dims} != point "
                f"dimensionality {len(self.point)}"
            )
        if self.area is not None and self.ranking is not None:
            raise QueryError("ranked area queries are not supported")

    @staticmethod
    def of(point, keywords, k: int = 10, ranking=None) -> "SpatialKeywordQuery":
        """Convenience constructor accepting any iterables."""
        return SpatialKeywordQuery(
            tuple(float(c) for c in point), tuple(keywords), int(k),
            ranking=ranking,
        )

    @staticmethod
    def of_area(area: Rect, keywords, k: int = 10) -> "SpatialKeywordQuery":
        """An area-anchored query (objects inside rank at distance 0)."""
        return SpatialKeywordQuery(area.center, tuple(keywords), int(k), area)

    def with_ranking(self, ranking) -> "SpatialKeywordQuery":
        """This query with a (different) ranking function attached."""
        return replace(self, ranking=ranking)

    @property
    def target(self):
        """The spatial target the algorithms rank against: area or point."""
        return self.area if self.area is not None else self.point

    @property
    def dims(self) -> int:
        """Dimensionality of the query point."""
        return len(self.point)


@dataclass(slots=True)
class QueryExecution:
    """Results plus the cost metrics of answering one query.

    Attributes:
        query: the executed query.
        results: ranked answers (length <= ``query.k``).
        io: merged I/O delta across every device the algorithm touched,
            as a frozen :class:`~repro.storage.iostats.IOCounts`.
        objects_inspected: objects loaded from the object file
            (Figures 11b / 14b report this as "object accesses").
        false_positive_candidates: loaded objects that failed the keyword
            verification (signature or spatial-order false positives).
        nodes_visited: index nodes loaded during the query.
        algorithm: short label ("RTREE", "IIO", "IR2", "MIR2", or a
            sharded composite like "SHARDED-IR2x4").
        trace: optional :class:`repro.serve.tracing.TraceSpan` attached by
            the concurrent service layer (queue wait, timings, cache
            status); ``None`` for direct engine queries.
        shards: per-shard cost breakdown (JSON-ready dicts) attached by
            :class:`repro.shard.ShardedEngine`; ``None`` for unsharded
            executions.
        degraded: True when one or more shards failed and the engine's
            ``"partial"`` failure policy returned the surviving shards'
            answer instead of raising — the results may be missing
            members that only the failed shards held.
        failed_shards: shard ids that failed (after retries) when
            ``degraded``; ``None``/empty otherwise.
        plan: the adaptive planner's routing record (chosen strategy,
            per-strategy cost estimates, estimated vs actual cost) when
            the query ran under ``index="auto"``; ``None`` for fixed
            index kinds.  JSON-ready (see
            :meth:`repro.plan.PlanDecision.as_dict`).
        engine_version: the published snapshot version that answered
            this query when it ran through a
            :class:`repro.serve.QueryService`; ``None`` for direct
            engine queries.
    """

    query: SpatialKeywordQuery
    results: list[SearchResult]
    io: IOCounts = field(default_factory=IOCounts)
    objects_inspected: int = 0
    false_positive_candidates: int = 0
    nodes_visited: int = 0
    algorithm: str = ""
    trace: object | None = None
    shards: list[dict] | None = None
    degraded: bool = False
    failed_shards: list[int] | None = None
    plan: dict | None = None
    engine_version: int | None = None

    def simulated_ms(self, drive: DriveModel = DEFAULT_DRIVE) -> float:
        """Simulated execution time under the given drive model."""
        return drive.simulated_ms(self.io)

    def with_result_copies(self) -> "QueryExecution":
        """A shallow replica whose results are per-entry copies.

        The result cache stores these so that a caller mutating the
        execution it was handed (either this one or a later cache hit)
        can never reach the cached entry's state.
        """
        return replace(self, results=[result.copy() for result in self.results])

    @property
    def oids(self) -> list[int]:
        """Identifiers of the result objects, in rank order."""
        return [result.obj.oid for result in self.results]

    def to_dict(self, drive: DriveModel = DEFAULT_DRIVE) -> dict:
        """JSON-serializable result/cost payload for trace exports.

        Used by the CLI's ``query --json`` output and the ``serve
        --serve-trace`` execution dump; everything in the returned dict is
        plain JSON types.  The per-shard breakdown appears only for
        executions answered by a :class:`repro.shard.ShardedEngine`.
        """
        payload = {
            "algorithm": self.algorithm,
            "query": {
                "point": list(self.query.point),
                "keywords": list(self.query.keywords),
                "k": self.query.k,
                "area": (
                    [list(self.query.area.lo), list(self.query.area.hi)]
                    if self.query.area is not None else None
                ),
                "ranked": self.query.ranking is not None,
            },
            "results": [
                {
                    "oid": result.obj.oid,
                    "point": list(result.obj.point),
                    "distance": result.distance,
                    "score": result.score,
                    "ir_score": result.ir_score,
                    "text": result.obj.text,
                }
                for result in self.results
            ],
            "oids": self.oids,
            "io": {
                "random_reads": self.io.random_reads,
                "sequential_reads": self.io.sequential_reads,
                "shared_reads": self.io.shared_reads,
                "random_writes": self.io.random_writes,
                "sequential_writes": self.io.sequential_writes,
                "objects_loaded": self.io.objects_loaded,
            },
            "objects_inspected": self.objects_inspected,
            "false_positive_candidates": self.false_positive_candidates,
            "nodes_visited": self.nodes_visited,
            "simulated_ms": self.simulated_ms(drive),
            "degraded": self.degraded,
            "failed_shards": list(self.failed_shards or []),
            "engine_version": self.engine_version,
        }
        if self.shards is not None:
            payload["shards"] = self.shards
        if self.plan is not None:
            payload["plan"] = self.plan
        return payload

    def summary(self) -> str:
        """Compact human-readable cost line for logs and examples."""
        line = (
            f"{self.algorithm or 'query'}: {len(self.results)} results, "
            f"{self.io.random_accesses} random + {self.io.sequential_accesses} "
            f"sequential block accesses, {self.objects_inspected} objects "
            f"inspected, {self.simulated_ms():.2f} ms simulated"
        )
        if self.degraded:
            failed = ", ".join(str(s) for s in self.failed_shards or [])
            line += f" [DEGRADED: shard(s) {failed} failed]"
        return line
