"""Sharded engine: N independent engines behind one engine-shaped API.

:class:`ShardedEngine` partitions a dataset spatially across ``n_shards``
complete :class:`~repro.core.engine.SpatialKeywordEngine` instances —
each shard owns its own corpus, devices, and index — and answers both
query kinds through one scatter-gather, :meth:`ShardedEngine._fan_out`:

* every shard's partition MBB gives a lower bound on the distance of any
  result it can contribute (``MINDIST`` of the paper's Figure 3, lifted
  to whole partitions), and shards are searched nearest first;
* the routing table keeps one :class:`~repro.shard.summary
  .KeywordSummary` (Bloom filter over the shard's distinct terms) per
  shard; empty shards and shards the summary rules out (any query term
  absent for distance-first queries, every term absent for ranked ones
  under zero-IR pruning) are pruned before any shard is searched
  (no I/O) — recorded as the ``pruned_by_keywords`` outcome in the
  per-shard reports and fan-out counters;
* the rest are searched one after another on the calling thread,
  nearest lower bound first, each under its own ``shard-<id>`` span,
  with bounded retries of transient device errors and the engine's
  failure policy;
* distance-first queries (§V.B): incremental index kinds pull from their
  nearest-first streams and stop as soon as the next distance exceeds
  the global k-th distance, scan kinds run their local top-k, and a
  shard whose lower bound already exceeds that distance prunes itself
  without any I/O; ranked queries (§V.C) run each shard's local top-k
  against the merged global vocabulary and merge by score;
* every shard gets exactly one report row of the same shape, and the
  per-shard I/O, node, and object counters are aggregated into one
  :class:`~repro.core.query.QueryExecution` with that breakdown in
  :attr:`~repro.core.query.QueryExecution.shards`.

The public surface mirrors the single engine (``add`` / ``build`` /
``delete`` / ``search`` / ``query*`` / ``serve`` / stats), so the serving
layer, persistence, and the CLI drive both interchangeably.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.engine import SpatialKeywordEngine
from repro.core.corpus import CorpusStats
from repro.core.query import QueryExecution, SpatialKeywordQuery
from repro.core.ranking import RankingCallable, resolve_ranking
from repro.core.search import SearchCounters
from repro.errors import IndexError_, QueryError, StorageError
from repro.obs import MetricsRegistry
from repro.obs import trace as qtrace
from repro.storage.faults import retry_transient
from repro.model import SearchResult, SpatialObject
from repro.shard.merge import TopKMerger
from repro.shard.partitioner import SpatialPartitioner, make_partitioner
from repro.shard.summary import DEFAULT_SUMMARY_BYTES, KeywordSummary
from repro.spatial.geometry import Rect, target_min_distance
from repro.storage.iostats import IOCounts, collecting_io

#: Per-shard failure policies (see :class:`ShardedEngine`).
FAIL_FAST = "fail-fast"
PARTIAL = "partial"
_FAILURE_POLICIES = frozenset({FAIL_FAST, PARTIAL})

#: Keyword summaries are rebuilt from a shard's live corpus once deletes
#: accumulate past ``max(SUMMARY_STALE_MIN, live * SUMMARY_STALE_RATIO)``
#: — Bloom bits cannot be cleared per-document, so without a rebuild a
#: shard whose last holder of a term was deleted keeps attracting that
#: term's queries forever.
SUMMARY_STALE_MIN = 8
SUMMARY_STALE_RATIO = 0.25


class ShardedEngine:
    """N spatial-keyword engines behind the single-engine API.

    Args:
        n_shards: number of partitions (each a full engine).
        partitioner: partitioning strategy, "kd" (balanced recursive
            splits, the default) or "grid" (uniform cells), or a
            pre-constructed :class:`SpatialPartitioner`.
        index: index kind every shard uses ("ir2", "mir2", "rtree",
            "iio", "sig", ...).
        failure_policy: what a query does when one shard keeps failing
            with a :class:`~repro.errors.StorageError` after retries —
            ``"fail-fast"`` (the default) re-raises the shard's error;
            ``"partial"`` answers from the surviving shards and marks the
            execution :attr:`~repro.core.query.QueryExecution.degraded`
            with the failed shard ids.
        retries: bounded retries (with exponential backoff) per shard for
            :class:`~repro.errors.TransientDeviceError` before the
            failure policy applies.
        retry_backoff_s: initial retry backoff; doubles per retry.
        metrics: optional :class:`repro.obs.MetricsRegistry` receiving
            per-query fan-out counters (``shard.fanout.*`` plus a
            ``shard.<id>.*`` family per shard).  ``None`` records
            nothing; :class:`repro.serve.QueryService` attaches its own
            registry to an unset engine.
        **engine_kwargs: forwarded to every shard's
            :class:`SpatialKeywordEngine` (``signature_bytes``,
            ``block_size``, ``analyzer``, ...).
    """

    def __init__(
        self,
        n_shards: int = 4,
        partitioner: str | SpatialPartitioner = "kd",
        index: str = "ir2",
        failure_policy: str = FAIL_FAST,
        retries: int = 2,
        retry_backoff_s: float = 0.005,
        metrics: MetricsRegistry | None = None,
        summary_bytes: int = DEFAULT_SUMMARY_BYTES,
        **engine_kwargs,
    ) -> None:
        if n_shards < 1:
            raise QueryError(f"n_shards must be >= 1, got {n_shards}")
        if failure_policy not in _FAILURE_POLICIES:
            raise QueryError(
                f"failure_policy must be one of {sorted(_FAILURE_POLICIES)}, "
                f"got {failure_policy!r}"
            )
        self.failure_policy = failure_policy
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.metrics = metrics
        self.n_shards = n_shards
        self._index_kind = index
        self._engine_kwargs = dict(engine_kwargs)
        self.partitioner = (
            partitioner
            if isinstance(partitioner, SpatialPartitioner)
            else make_partitioner(partitioner, n_shards)
        )
        if self.partitioner.n_shards != n_shards:
            raise QueryError(
                f"partitioner covers {self.partitioner.n_shards} shards, "
                f"engine expects {n_shards}"
            )
        self.shards: list[SpatialKeywordEngine] = [
            SpatialKeywordEngine(index=index, **engine_kwargs)
            for _ in range(n_shards)
        ]
        self._staged: list[SpatialObject] = []
        self._shard_of: dict[int, int] = {}
        self._mbbs: list[Rect | None] = [None] * n_shards
        self._summary_bytes = summary_bytes
        self._summaries: list[KeywordSummary | None] = [None] * n_shards
        self.built = False

    @classmethod
    def from_parts(
        cls,
        shards: Sequence[SpatialKeywordEngine],
        partitioner: SpatialPartitioner,
        shard_of: dict[int, int],
        mbbs: Sequence[Rect | None],
        failure_policy: str = FAIL_FAST,
        retries: int = 2,
        retry_backoff_s: float = 0.005,
        summaries: Sequence[KeywordSummary | None] | None = None,
    ) -> "ShardedEngine":
        """Reassemble a built sharded engine (a load's or a copy's restore).

        ``summaries`` restores persisted keyword summaries; when ``None``
        (e.g. a manifest written before summaries existed) they are
        rebuilt from the shard corpora so routing stays keyword-aware.
        """
        partitioner.require_fitted()
        self = cls.__new__(cls)
        self.failure_policy = failure_policy
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.metrics = None
        self.n_shards = len(shards)
        self.shards = list(shards)
        self._index_kind = shards[0].index_kind if shards else "ir2"
        self._engine_kwargs = {}
        self.partitioner = partitioner
        self._staged = []
        self._shard_of = dict(shard_of)
        self._mbbs = list(mbbs)
        self._summary_bytes = DEFAULT_SUMMARY_BYTES
        self.built = all(shard.index.built for shard in shards)
        if summaries is not None:
            self._summaries = list(summaries)
            if self._summaries and self._summaries[0] is not None:
                self._summary_bytes = self._summaries[0].factory.length_bytes
        else:
            self._summaries = [None] * self.n_shards
            for shard_id in range(self.n_shards):
                self._rebuild_summary(shard_id)
        return self

    # -- Population -------------------------------------------------------------

    def add_object(self, oid: int, point: Sequence[float], text: str) -> None:
        """Stage one object (before :meth:`build`) or insert it live (after)."""
        self.add(SpatialObject(oid, tuple(float(c) for c in point), text))

    def add(self, obj: SpatialObject) -> None:
        """Stage or live-insert a :class:`~repro.model.SpatialObject`."""
        if obj.oid in self._shard_of:
            raise QueryError(f"object id {obj.oid} already present")
        if not self.built:
            # Staged objects get a provisional marker; the real shard is
            # decided when build() fits the partitioner.
            self._staged.append(obj)
            self._shard_of[obj.oid] = -1
            return
        shard_id = self.partitioner.assign_object(obj, analyzer=self.analyzer)
        self.shards[shard_id].add(obj)
        self._shard_of[obj.oid] = shard_id
        self._grow_mbb(shard_id, obj.point)
        summary = self._summaries[shard_id]
        if summary is not None:
            summary.add_terms(self.analyzer.terms(obj.text))

    def add_all(self, objects: Iterable[SpatialObject]) -> None:
        """Stage or live-insert many objects."""
        for obj in objects:
            self.add(obj)

    def build(self, bulk: bool = True) -> None:
        """Partition everything staged so far and build every shard.

        A second call (e.g. :meth:`repro.serve.QueryService.build` after
        live mutations) rebuilds each shard's index in place over its
        current corpus; objects are not re-partitioned.
        """
        if not self.built:
            self.partitioner.fit_objects(self._staged, analyzer=self.analyzer)
            for obj in self._staged:
                shard_id = self.partitioner.assign_object(
                    obj, analyzer=self.analyzer
                )
                self.shards[shard_id].add(obj)
                self._shard_of[obj.oid] = shard_id
            self._staged = []
        for shard in self.shards:
            shard.build(bulk=bulk)
        self._refit_routing()
        self.built = True

    def delete(self, oid: int) -> bool:
        """Remove an object from whichever shard holds it.

        The shard's MBB is left untouched — a too-large bound can only
        make pruning conservative, never wrong.
        """
        if not self.built:
            raise IndexError_("build() the engine before deleting objects")
        shard_id = self._shard_of.get(oid)
        if shard_id is None or shard_id < 0:
            return False
        removed = self.shards[shard_id].delete(oid)
        if removed:
            del self._shard_of[oid]
            self._note_summary_delete(shard_id)
        return removed

    def require_built(self) -> None:
        """Raise :class:`IndexError_` unless :meth:`build` has completed."""
        if not self.built:
            raise IndexError_("sharded engine has not been built yet")

    def contains(self, oid: int) -> bool:
        """Whether ``oid`` is currently live (staged or sharded)."""
        return oid in self._shard_of

    def clone_empty(self) -> "ShardedEngine":
        """A fresh, empty sharded engine with this engine's configuration.

        The snapshot maintainer's copy-on-write merges rebuild into the
        clone (restaging every live object, refitting the partitioner)
        and swap it in, leaving this engine untouched for in-flight
        readers.  Each new shard keeps the object-row and node-image
        intern maps of the shard it replaces.  Engines reassembled by
        :meth:`from_parts` (a load or a copy) derive per-shard
        construction kwargs from their first shard's stored config.
        """
        kwargs = dict(self._engine_kwargs)
        if not kwargs and self.shards:
            kwargs = {
                key: value
                for key, value in self.shards[0]._init_config.items()
                if key != "index"
            }
            kwargs["analyzer"] = self.shards[0].analyzer
        clone = ShardedEngine(
            n_shards=self.n_shards,
            partitioner=make_partitioner(self.partitioner.kind, self.n_shards),
            index=self._index_kind,
            failure_policy=self.failure_policy,
            retries=self.retries,
            retry_backoff_s=self.retry_backoff_s,
            metrics=self.metrics,
            summary_bytes=self._summary_bytes,
            **kwargs,
        )
        # Intern maps are content-addressed, so a shard may keep its
        # predecessor's even when the refit moves objects between shards.
        for old, new in zip(self.shards, clone.shards):
            new.corpus.share_interns(old.corpus)
        return clone

    def _grow_mbb(self, shard_id: int, point: Sequence[float]) -> None:
        rect = Rect.from_point(point)
        mbb = self._mbbs[shard_id]
        self._mbbs[shard_id] = rect if mbb is None else mbb.union(rect)

    def _refit_routing(self) -> None:
        """Refit every shard's MBB and keyword summary to its live objects.

        One read of each shard's objects feeds both; the MBB is the
        minimum and maximum of each coordinate.
        """
        self._mbbs = [None] * self.n_shards
        self._summaries = [None] * self.n_shards
        for shard_id, shard in enumerate(self.shards):
            objects = list(shard.corpus.objects())
            if objects:
                columns = list(zip(*(obj.point for obj in objects)))
                self._mbbs[shard_id] = Rect(
                    tuple(map(min, columns)), tuple(map(max, columns))
                )
            self._rebuild_summary(shard_id, objects)

    # -- Keyword summaries -------------------------------------------------------

    @property
    def summaries(self) -> list[KeywordSummary | None]:
        """The routing table's per-shard keyword summaries (live view)."""
        return list(self._summaries)

    def _rebuild_summary(
        self, shard_id: int, objects: Iterable[SpatialObject] | None = None
    ) -> None:
        """Refill one shard's summary from its live objects (tight fit)."""
        summary = self._summaries[shard_id]
        if summary is None:
            summary = KeywordSummary(length_bytes=self._summary_bytes)
            self._summaries[shard_id] = summary
        if objects is None:
            objects = self.shards[shard_id].corpus.objects()
        terms = self.analyzer.terms
        summary.rebuild(terms(obj.text) for obj in objects)

    def _note_summary_delete(self, shard_id: int) -> None:
        """Track summary staleness; rebuild once deletes loosen it too far."""
        summary = self._summaries[shard_id]
        if summary is None:
            return
        summary.note_delete()
        live = len(self.shards[shard_id])
        threshold = max(SUMMARY_STALE_MIN, int(live * SUMMARY_STALE_RATIO))
        if summary.stale_deletes >= threshold:
            self._rebuild_summary(shard_id)

    def _keyword_pruned(self, shard_id: int, terms: Sequence[str]) -> bool:
        """Conjunctive routing test: can this shard hold *all* query terms?

        Distance-first semantics require every keyword in every answer,
        so one provably absent term rules the whole shard out.  False
        positives in the Bloom filter only cost a wasted probe.
        """
        if not terms:
            return False
        summary = self._summaries[shard_id]
        return summary is not None and not summary.may_contain_all(terms)

    def _keyword_pruned_ranked(self, shard_id: int, terms: Sequence[str]) -> bool:
        """Disjunctive routing test for ranked queries under zero-IR pruning.

        Ranked scoring admits partial matches, so a shard is skippable
        only when *every* query term is provably absent (all its results
        would score zero IR and be dropped anyway).
        """
        if not terms:
            return False
        summary = self._summaries[shard_id]
        return summary is not None and not summary.may_contain_any(terms)

    # -- Queries ------------------------------------------------------------------

    def search(
        self,
        query: SpatialKeywordQuery,
        *,
        vocabulary=None,
        exclude: frozenset[int] = frozenset(),
    ) -> QueryExecution:
        """Unified entry point; same contract as the single engine's.

        Both query kinds run the one shard fan-out (:meth:`_fan_out`).
        Distance-first queries (point or area) merge tie-aware by
        ``(distance, oid)``; ranked queries execute on every shard with
        one shared ranking function (resolved and, when custom, checked
        for monotonicity exactly as the single engine does) and merge by
        score.  ``vocabulary`` overrides the corpus statistics ranked
        scoring uses (the snapshot layer passes a version-wide vocabulary
        so dirty overlays score exactly); ``None`` uses the merged
        per-shard statistics.  ``exclude`` names oids every shard's top-k
        cut and the merge skip before they count toward ``k`` (see
        :meth:`SpatialKeywordEngine.search`).
        """
        self.require_built()
        if query.ranking is not None:
            return self._ranked(query, vocabulary=vocabulary, exclude=exclude)
        return self._distance_first(query, exclude)

    def search_many(
        self, queries: Sequence[SpatialKeywordQuery]
    ) -> list[QueryExecution]:
        """Execute a batch under one shared-read session (batch-aware fan-out).

        Same contract as :meth:`SpatialKeywordEngine.search_many`: answers
        are byte-identical to N serial :meth:`search` calls, and the
        session covers every shard each query searches, so hot upper tree
        nodes are read from each shard's device once per batch rather
        than once per query.
        """
        from repro.storage.sharedread import shared_read_session

        with shared_read_session():
            return [self.search(query) for query in queries]

    def query(
        self, point: Sequence[float], keywords: Sequence[str], k: int = 10
    ) -> QueryExecution:
        """Distance-first top-k across every shard. Delegates to :meth:`search`."""
        return self.search(SpatialKeywordQuery.of(point, keywords, k))

    def query_area(
        self,
        lo: Sequence[float],
        hi: Sequence[float],
        keywords: Sequence[str],
        k: int = 10,
    ) -> QueryExecution:
        """Area-anchored distance-first query. Delegates to :meth:`search`."""
        area = Rect(tuple(float(c) for c in lo), tuple(float(c) for c in hi))
        return self.search(SpatialKeywordQuery.of_area(area, keywords, k))

    def query_ranked(
        self,
        point: Sequence[float],
        keywords: Sequence[str],
        k: int = 10,
        ranking: RankingCallable | None = None,
    ) -> QueryExecution:
        """General ranked top-k; one ranking function shared by all shards."""
        query = SpatialKeywordQuery.of(point, keywords, k, ranking=ranking)
        self.require_built()
        return self._ranked(query)

    def query_incremental(
        self,
        point: Sequence[float],
        keywords: Sequence[str],
        counters: SearchCounters | None = None,
    ) -> Iterator[SearchResult]:
        """Lazily merged nearest-first stream across every shard."""
        return self.stream_results(
            SpatialKeywordQuery.of(point, keywords, k=1), counters=counters
        )

    def stream_results(
        self,
        query: SpatialKeywordQuery,
        counters: SearchCounters | None = None,
    ) -> Iterator[SearchResult]:
        """Incremental distance-first stream over all shards.

        A lazy k-way merge: each shard enters the merge heap as its
        partition's lower-bound distance and is only opened (paying its
        first index I/O) once that bound reaches the head of the heap, so
        consuming a few results touches only the nearest partitions.
        """
        self.require_built()
        if not self._supports_incremental():
            raise QueryError(
                f"index kind {self._index_kind!r} cannot stream results "
                "incrementally"
            )
        return self._merged_stream(query, counters)

    def _merged_stream(
        self, query: SpatialKeywordQuery, counters: SearchCounters | None
    ) -> Iterator[SearchResult]:
        sequence = itertools.count()
        heap: list[tuple[float, int, str, int, SearchResult | None]] = []
        streams: dict[int, Iterator[SearchResult]] = {}
        terms = self.analyzer.query_terms(query.keywords)
        for shard_id, mbb in enumerate(self._mbbs):
            if mbb is None:
                continue
            if self._keyword_pruned(shard_id, terms):
                continue
            bound = target_min_distance(mbb, query.target)
            heapq.heappush(heap, (bound, next(sequence), "bound", shard_id, None))

        def advance(shard_id: int) -> None:
            result = next(streams[shard_id], None)
            if result is not None:
                heapq.heappush(
                    heap,
                    (result.distance, next(sequence), "result", shard_id, result),
                )

        while heap:
            _, _, kind, shard_id, result = heapq.heappop(heap)
            if kind == "bound":
                streams[shard_id] = self.shards[shard_id].stream_results(
                    query, counters=counters
                )
                advance(shard_id)
            else:
                yield result
                advance(shard_id)

    # -- Scatter-gather internals -------------------------------------------------

    def _supports_incremental(self) -> bool:
        return bool(self.shards) and self.shards[0].index.supports_incremental

    def _fan_out(
        self,
        query: SpatialKeywordQuery,
        keyword_pruned: Callable[[int], bool],
        body: Callable[[int, dict], QueryExecution | None],
        gather: Callable[[list[QueryExecution]], list[SearchResult]],
        algorithm: str,
    ) -> QueryExecution:
        """Run ``body`` on every shard that can contribute; one report each.

        The two deterministic prunes — an empty shard, and a shard
        ``keyword_pruned`` rules out — are decided before any shard is
        searched, so fan-out counters are exact.  The remaining shards
        are searched on the calling thread, nearest lower bound first:
        the far partitions often find a distance-first threshold already
        tight and prune themselves without touching a block.  The
        calling thread's shared-read session, if any, covers every
        shard, so one batch shares block reads across shards too.

        Each shard opens its ``shard-<id>`` span under the current span.
        ``body(shard_id, report)`` runs under :func:`retry_transient`; it
        returns the shard's execution, or ``None`` after marking the
        report pruned.  A :class:`StorageError` marks the report failed;
        the failure policy then re-raises the first failure or answers
        from the survivors.  ``gather`` merges the survivors' executions
        into the final answer.
        """
        bounds = [
            target_min_distance(mbb, query.target) if mbb is not None else None
            for mbb in self._mbbs
        ]
        reports: list[dict] = []
        for shard_id, bound in enumerate(bounds):
            by_keywords = bound is not None and keyword_pruned(shard_id)
            reports.append({
                "shard": shard_id,
                "lower_bound": bound,
                "pruned": bound is None or by_keywords,
                "pruned_by_keywords": by_keywords,
                "failed": False,
                "error": None,
                "strategy": None,
                "results_offered": 0,
                "objects_inspected": 0,
                "nodes_visited": 0,
                "random_reads": 0,
                "sequential_reads": 0,
                "retries": 0,
            })
        executions: list[QueryExecution | None] = [None] * self.n_shards
        errors: list[StorageError | None] = [None] * self.n_shards

        def run_shard(shard_id: int) -> None:
            report = reports[shard_id]

            def count_retry(attempt: int, exc: Exception) -> None:
                report["retries"] += 1

            with qtrace.start_span(
                f"shard-{shard_id}", category="shard", shard=shard_id
            ) as span:
                try:
                    if report["pruned"]:
                        return
                    execution = retry_transient(
                        lambda: body(shard_id, report),
                        self.retries, self.retry_backoff_s,
                        on_retry=count_retry,
                    )
                except StorageError as exc:
                    report["failed"] = True
                    report["error"] = f"{type(exc).__name__}: {exc}"
                    errors[shard_id] = exc
                else:
                    if execution is not None:
                        executions[shard_id] = execution
                        report["objects_inspected"] = execution.objects_inspected
                        report["nodes_visited"] = execution.nodes_visited
                        report["random_reads"] = execution.io.random_reads
                        report["sequential_reads"] = execution.io.sequential_reads
                finally:
                    if span is not None:
                        span.annotate(**report)

        order = sorted(
            range(self.n_shards),
            key=lambda i: bounds[i] if bounds[i] is not None else float("inf"),
        )
        for shard_id in order:
            run_shard(shard_id)

        parent = qtrace.current_span()
        failed = [i for i, exc in enumerate(errors) if exc is not None]
        self._record_fanout_metrics(reports)
        if parent is not None and failed:
            parent.annotate(degraded=True, failed_shards=failed)
        if failed and self.failure_policy == FAIL_FAST:
            raise errors[failed[0]]
        done = [execution for execution in executions if execution is not None]
        io = IOCounts()
        for execution in done:
            io = io.merged_with(execution.io)
        return QueryExecution(
            query=query,
            results=gather(done),
            io=io,
            objects_inspected=sum(e.objects_inspected for e in done),
            false_positive_candidates=sum(
                e.false_positive_candidates for e in done
            ),
            nodes_visited=sum(e.nodes_visited for e in done),
            algorithm=algorithm,
            shards=reports,
            degraded=bool(failed),
            failed_shards=failed or None,
            plan=self._merged_plan(reports),
        )

    def _distance_first(
        self, query: SpatialKeywordQuery, exclude: frozenset[int]
    ) -> QueryExecution:
        """Distance-first fan-out: shards offer into one tie-aware merger.

        A shard still prunes itself when its lower bound already exceeds
        the k-th distance the nearer shards have merged.  Excluded
        results are passed over without being offered, so the merge
        threshold only ever tightens on live results.
        """
        merger = TopKMerger(query.k)
        terms = self.analyzer.query_terms(query.keywords)
        incremental = self._supports_incremental()

        def offer(results: Iterable[SearchResult]) -> int:
            offered = 0
            for result in results:
                if result.distance > merger.threshold():
                    break
                if result.obj.oid not in exclude:
                    merger.offer(result)
                    offered += 1
            return offered

        def body(shard_id: int, report: dict) -> QueryExecution | None:
            if report["lower_bound"] > merger.threshold():
                report["pruned"] = True
                return None
            shard = self.shards[shard_id]
            # Adaptive shards route each *sub-query* independently: the
            # planner decides from this shard's own statistics whether to
            # pull the nearest-first stream (tree strategies) or run the
            # local top-k as one scan.  Plan decisions are shape-cached,
            # so the search call re-planning inside the shard is free and
            # lands on the identical (deterministic) choice.
            pull_stream = incremental
            plan_for = getattr(shard.index, "plan_for", None)
            if plan_for is not None:
                report["strategy"] = plan_for(query).strategy
                pull_stream = shard.index.strategy_supports_streaming(
                    report["strategy"]
                )
            if not pull_stream:
                execution = shard.search(query, exclude=exclude)
                report["results_offered"] = offer(execution.results)
                return execution
            # Pull the stream until it can no longer affect the top-k.  A
            # retry restarts from the top and re-offers what the failed
            # attempt merged; TopKMerger deduplicates by oid.
            counters = SearchCounters()
            with collecting_io() as collector:
                report["results_offered"] = offer(
                    shard.stream_results(query, counters=counters)
                )
            io = collector.snapshot()
            return QueryExecution(
                query=query,
                results=[],
                io=io,
                objects_inspected=counters.objects_inspected,
                false_positive_candidates=counters.false_positives,
                nodes_visited=io.category_reads("node"),
            )

        return self._fan_out(
            query,
            lambda shard_id: self._keyword_pruned(shard_id, terms),
            body,
            lambda executions: merger.results(),
            self._algorithm_label(),
        )

    def _ranked(
        self,
        query: SpatialKeywordQuery,
        vocabulary=None,
        exclude: frozenset[int] = frozenset(),
    ) -> QueryExecution:
        """Ranked fan-out: every shard runs its local top-k, merged by score."""
        if not hasattr(self.shards[0].index, "execute_ranked"):
            raise QueryError(
                f"index kind {self._index_kind!r} does not support ranked queries"
            )
        # Resolved once from the *global* extent, so the default decay
        # scale is identical on every shard and equal to the single
        # engine's over the same corpus.
        ranking = resolve_ranking(
            query.ranking, (obj.point for obj in self.objects())
        )
        if ranking is not query.ranking:
            query = query.with_ranking(ranking)
        # Per-shard idf values would skew scores toward whatever terms are
        # locally rare; every shard scores against the merged corpus-wide
        # vocabulary so sharded scores equal single-engine scores.
        if vocabulary is None:
            vocabulary = self._global_vocabulary()
        terms = self.analyzer.query_terms(query.keywords)

        def body(shard_id: int, report: dict) -> QueryExecution:
            execution = self.shards[shard_id].index.execute_ranked(
                query, ranking, vocabulary=vocabulary, exclude=exclude
            )
            report["strategy"] = (execution.plan or {}).get("strategy")
            report["results_offered"] = len(execution.results)
            return execution

        def gather(executions: list[QueryExecution]) -> list[SearchResult]:
            merged = [result for e in executions for result in e.results]
            merged.sort(key=lambda r: (-r.score, r.distance, r.obj.oid))
            return merged[: query.k]

        # A shard provably holding none of the query terms can only
        # contribute zero-scored results, which zero-IR pruning drops
        # anyway — skip it before paying any I/O.
        return self._fan_out(
            query,
            lambda shard_id: self._keyword_pruned_ranked(shard_id, terms),
            body,
            gather,
            f"{self._algorithm_label()}-RANKED",
        )

    @staticmethod
    def _merged_plan(reports: list[dict]) -> dict | None:
        """Summarize per-shard routing into one execution-level record.

        ``strategy`` is the sorted, "+"-joined set of strategies the
        shards chose (often a single name; mixed routing shows as e.g.
        ``"iio+ir2"``); ``per_shard`` maps shard id -> strategy.  None
        when no shard ran an adaptive index.
        """
        per_shard = {
            str(report["shard"]): report["strategy"]
            for report in reports
            if report["strategy"] is not None
        }
        if not per_shard:
            return None
        return {
            "strategy": "+".join(sorted(set(per_shard.values()))),
            "per_shard": per_shard,
        }

    def _global_vocabulary(self):
        """Merged document-frequency statistics across every shard.

        Shards hold disjoint objects, so summing per-shard frequencies
        reproduces the single-engine vocabulary exactly.  Recomputed per
        ranked query — cheap next to index I/O, and always consistent
        with live inserts and deletes.
        """
        vocabulary = self.shards[0].corpus.vocabulary
        for shard in self.shards[1:]:
            vocabulary = vocabulary.merged_with(shard.corpus.vocabulary)
        return vocabulary

    def _algorithm_label(self) -> str:
        return f"SHARDED-{self._index_kind.upper()}x{self.n_shards}"

    def _record_fanout_metrics(self, reports: list[dict]) -> None:
        """Emit one query's per-shard reports into the metrics registry.

        Records both the fleet-wide ``shard.fanout.*`` counters and a
        per-shard ``shard.<id>.*`` family, so a hot or flaky partition is
        visible individually.  A no-op without a registry attached.
        """
        m = self.metrics
        if m is None:
            return
        m.counter("shard.fanout.queries").inc()
        for report in reports:
            shard_id = report["shard"]
            if report["pruned"]:
                m.counter("shard.fanout.pruned").inc()
                m.counter(f"shard.{shard_id}.pruned").inc()
                if report["pruned_by_keywords"]:
                    m.counter("shard.fanout.pruned_by_keywords").inc()
                    m.counter(f"shard.{shard_id}.pruned_by_keywords").inc()
                continue
            m.counter("shard.fanout.searched").inc()
            m.counter(f"shard.{shard_id}.searched").inc()
            if report["failed"]:
                m.counter("shard.fanout.failed").inc()
                m.counter(f"shard.{shard_id}.failed").inc()
            if report["retries"]:
                m.counter("shard.fanout.retried").inc(report["retries"])
                m.counter(f"shard.{shard_id}.retried").inc(report["retries"])
            if report["results_offered"]:
                m.counter("shard.fanout.offers").inc(report["results_offered"])
                m.counter(f"shard.{shard_id}.offers").inc(
                    report["results_offered"]
                )

    # -- Serving ----------------------------------------------------------------

    def serve(self, workers: int = 4, **kwargs):
        """Wrap this engine in a concurrent :class:`~repro.serve.QueryService`."""
        from repro.serve import QueryService

        return QueryService(self, workers=workers, **kwargs)

    # -- Introspection ----------------------------------------------------------

    @property
    def index_kind(self) -> str:
        """The index kind string every shard was constructed with."""
        return self._index_kind

    @property
    def analyzer(self):
        """The tokenizer shared by every shard."""
        return self.shards[0].analyzer

    @property
    def shard_mbbs(self) -> list[Rect | None]:
        """Each shard's minimum bounding box (None for empty shards)."""
        return list(self._mbbs)

    def shard_of(self, oid: int) -> int | None:
        """Shard id currently holding ``oid`` (None when absent/staged)."""
        shard_id = self._shard_of.get(oid)
        return shard_id if shard_id is not None and shard_id >= 0 else None

    def get_object(self, oid: int) -> SpatialObject | None:
        """Load one live object by id (None when absent or only staged)."""
        shard_id = self.shard_of(oid)
        if shard_id is None:
            return None
        return self.shards[shard_id].get_object(oid)

    def objects(self) -> Iterator[SpatialObject]:
        """Yield every live object across all shards (plus staged ones)."""
        for shard in self.shards:
            yield from shard.objects()
        yield from self._staged

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards) + len(self._staged)

    def corpus_stats(self) -> CorpusStats:
        """Aggregate dataset statistics across every shard (Table 1 shape)."""
        total = sum(len(shard) for shard in self.shards)
        if total == 0:
            return CorpusStats(0.0, 0, 0.0, 0, 0.0)
        per_shard = [shard.corpus_stats() for shard in self.shards]
        unique_terms = set()
        for shard in self.shards:
            unique_terms.update(shard.corpus.vocabulary.terms())
        weighted_words = sum(
            s.avg_unique_words_per_object * s.total_objects for s in per_shard
        )
        weighted_blocks = sum(
            s.avg_blocks_per_object * s.total_objects for s in per_shard
        )
        return CorpusStats(
            size_mb=sum(s.size_mb for s in per_shard),
            total_objects=total,
            avg_unique_words_per_object=weighted_words / total,
            unique_words=len(unique_terms),
            avg_blocks_per_object=weighted_blocks / total,
        )

    def index_size_mb(self) -> float:
        """Summed index footprint across every shard."""
        return sum(shard.index_size_mb() for shard in self.shards)

    def io_stats(self) -> IOCounts:
        """Every shard's running I/O counters, merged."""
        io = IOCounts()
        for shard in self.shards:
            io = io.merged_with(shard.io_stats())
        return io

    def reset_io(self) -> None:
        """Zero the I/O counters on every shard."""
        for shard in self.shards:
            shard.reset_io()
