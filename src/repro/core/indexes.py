"""Uniform index wrappers: one class per algorithm of the paper.

The evaluation (Section VI) compares four algorithms — R-Tree, IIO,
IR2-Tree, MIR2-Tree — on the same corpus.  Each wrapper here owns its
structure's block device, knows how to build itself from a
:class:`~repro.core.corpus.Corpus`, executes distance-first queries, and
returns a :class:`~repro.core.query.QueryExecution` whose I/O delta spans
both the index device and the shared object file.  Benchmarks and the
engine facade talk only to this interface.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.core.baselines import iio_top_k
from repro.core.builder import BulkItem, bulk_load, insert_build
from repro.core.corpus import Corpus
from repro.core.ir2tree import IR2Tree
from repro.core.mir2tree import MIR2Tree
from repro.core.query import QueryExecution, SpatialKeywordQuery
from repro.core.ranking import RankingCallable
from repro.core.search import (
    SearchCounters,
    SearchOutcome,
    ir2_top_k,
    ir2_top_k_iter,
)
from repro.core.search_general import ranked_top_k
from repro.errors import IndexError_, QueryError
from repro.model import SearchResult, SpatialObject, result_sort_key
from repro.obs import trace as qtrace
from repro.plan import PlannerStatistics, QueryPlanner
from repro.plan.cost import (
    CostEstimate,
    estimate_iio,
    estimate_signature_scan,
    estimate_tree,
)
from repro.spatial.geometry import Rect, target_point_distance
from repro.spatial.rtree import RTree
from repro.storage.block import BlockDevice, InMemoryBlockDevice
from repro.storage.iostats import collecting_io
from repro.storage.pagestore import PageStore
from repro.storage.timing import DEFAULT_DRIVE
from repro.text.inverted_index import InvertedIndex
from repro.text.sigdesign import false_positive_rate_for_query
from repro.text.signature import HashSignatureFactory


class SpatialKeywordIndex:
    """Common behaviour: device ownership, build, measured execution."""

    label = "?"

    def __init__(self, corpus: Corpus, device: BlockDevice | None = None) -> None:
        self.corpus = corpus
        self.device = device or InMemoryBlockDevice(
            corpus.device.block_size, name=f"{self.label.lower()}-index"
        )
        self.built = False

    # -- Construction -----------------------------------------------------------

    def build(self, bulk: bool = True, fill: float = 0.7) -> None:
        """Build the structure over every object currently in the corpus.

        The corpus is read once, into one :class:`BulkItem` (pointer,
        rectangle, distinct terms) per live object
        (:func:`corpus_items`); every structure is built from those
        items, so each stored row is decoded once per build.

        Args:
            bulk: use the STR bulk loader (True) or repeated insertion
                (False, the paper's construction path).
            fill: bulk-load node fill fraction.
        """
        self._build_structure(corpus_items(self.corpus), bulk=bulk, fill=fill)
        self.built = True

    def _build_structure(self, items: list[BulkItem], bulk: bool, fill: float) -> None:
        """Build from the build's ``items``; never reads the corpus."""
        raise NotImplementedError

    def require_built(self) -> None:
        """Raise :class:`IndexError_` unless :meth:`build` has completed.

        Public so facades (engine, sharded engine, service) can guard
        operations without reaching into private state.
        """
        if not self.built:
            raise IndexError_(f"{self.label} index has not been built yet")

    # Backwards-compatible alias for pre-1.1 callers.
    _require_built = require_built

    @property
    def supports_incremental(self) -> bool:
        """Whether this index can stream results in distance order.

        Only the R-Tree-family indexes traverse space nearest-first; the
        scan baselines (IIO, SIG, S-Tree) materialize candidates in bulk
        and are inherently non-incremental (paper Section V.A).
        """
        return False

    # -- Planning -------------------------------------------------------------------

    def estimate_cost(
        self, query: SpatialKeywordQuery, stats: PlannerStatistics
    ) -> CostEstimate | None:
        """Expected I/O of answering ``query`` here; None = cannot execute.

        The hook the cost-based planner (:mod:`repro.plan`) calls on each
        candidate strategy.  The base class cannot price itself.
        """
        return None

    def result_stream(
        self,
        query: SpatialKeywordQuery,
        counters: SearchCounters | None = None,
    ) -> Iterator[SearchResult]:
        """Lazy nearest-first result stream (incremental kinds only).

        Raises:
            QueryError: when :attr:`supports_incremental` is False.
        """
        raise QueryError(
            f"index kind {self.label!r} cannot stream results incrementally"
        )

    # -- Execution ------------------------------------------------------------------

    def execute(
        self, query: SpatialKeywordQuery, *, exclude: frozenset[int] = frozenset()
    ) -> QueryExecution:
        """Run a distance-first query with full I/O accounting.

        Objects whose oid is in ``exclude`` never enter the top-k cut:
        the answer is the ``k`` nearest matches *outside* the set.  They
        are still loaded when the algorithm reaches them, so their reads
        and inspections stay counted.
        """
        self.require_built()
        return self._measured(
            query, lambda: self._run(query, exclude), self.label
        )

    def _measured(
        self,
        query: SpatialKeywordQuery,
        runner: Callable[[], SearchOutcome],
        algorithm: str,
    ) -> QueryExecution:
        """Run ``runner`` with per-execution I/O accounting.

        The delta comes from a thread-local collector rather than a
        snapshot/diff of the shared device counters, so concurrent queries
        (the :mod:`repro.serve` layer) each see exactly their own I/O.

        When a trace is active on this thread, the whole measured region
        runs under a ``search`` span wrapping exactly the same code the
        collector observes — which is why the span's block-read events
        reconcile one-to-one with the execution's I/O delta.
        """
        with qtrace.start_span("search", category="engine", algorithm=algorithm) as span:
            with collecting_io() as collector:
                outcome = runner()
            io = collector.snapshot()
            if span is not None:
                span.annotate(
                    random_reads=io.random_reads,
                    sequential_reads=io.sequential_reads,
                    objects_loaded=io.objects_loaded,
                    nodes_visited=io.category_reads("node"),
                    objects_inspected=outcome.counters.objects_inspected,
                    false_positives=outcome.counters.false_positives,
                    num_results=len(outcome.results),
                )
        return QueryExecution(
            query=query,
            results=outcome.results,
            io=io,
            objects_inspected=outcome.counters.objects_inspected,
            false_positive_candidates=outcome.counters.false_positives,
            nodes_visited=io.category_reads("node"),
            algorithm=algorithm,
        )

    def _devices(self) -> list[BlockDevice]:
        return [self.device, self.corpus.device]

    def _run(
        self, query: SpatialKeywordQuery, exclude: frozenset[int]
    ) -> SearchOutcome:
        raise NotImplementedError

    # -- Maintenance -------------------------------------------------------------------

    def insert_object(self, pointer: int, obj: SpatialObject) -> None:
        """Add one (already corpus-stored) object to the structure."""
        raise NotImplementedError

    def delete_object(self, pointer: int, obj: SpatialObject) -> bool:
        """Remove one object from the structure; True when found."""
        raise NotImplementedError

    # -- Introspection ------------------------------------------------------------------

    @property
    def size_mb(self) -> float:
        """Structure footprint in megabytes (Table 2)."""
        raise NotImplementedError

    def reset_io(self) -> None:
        """Zero the I/O counters on every device this index touches."""
        for device in self._devices():
            device.stats.reset()


class _TreeIndex(SpatialKeywordIndex):
    """Shared logic for the three R-Tree-family indexes."""

    def __init__(
        self,
        corpus: Corpus,
        device: BlockDevice | None = None,
        capacity: int | None = None,
    ) -> None:
        super().__init__(corpus, device)
        self.pages = PageStore(self.device)
        self.capacity = capacity
        self.tree: RTree | None = None

    @property
    def supports_incremental(self) -> bool:
        """Tree indexes stream results nearest-first (paper Section V.B)."""
        return True

    def _query_false_positive_rate(self, n_terms: int, stats) -> float:
        """Probability a non-matching candidate survives the leaf filter.

        A plain R-Tree has no keyword filter: every scanned candidate is
        loaded and verified.  Signature-bearing subclasses override this
        with the [MC94] design-formula rate.
        """
        return 1.0

    def estimate_cost(
        self, query: SpatialKeywordQuery, stats: PlannerStatistics
    ) -> CostEstimate | None:
        if query.ranking is not None:
            return None  # ranked execution needs signatures (Section V.C)
        return estimate_tree(self, query, stats)

    def result_stream(
        self,
        query: SpatialKeywordQuery,
        counters: SearchCounters | None = None,
    ) -> Iterator[SearchResult]:
        self.require_built()
        return ir2_top_k_iter(
            self.tree, self.corpus.store, self.corpus.analyzer, query,
            counters=counters,
        )

    def _run(
        self, query: SpatialKeywordQuery, exclude: frozenset[int]
    ) -> SearchOutcome:
        return ir2_top_k(
            self.tree, self.corpus.store, self.corpus.analyzer, query,
            exclude=exclude,
        )

    def _make_tree(self) -> RTree:
        raise NotImplementedError

    def _build_structure(self, items: list[BulkItem], bulk: bool, fill: float) -> None:
        self.tree = self._make_tree()
        if bulk:
            bulk_load(self.tree, items, fill=fill)
        else:
            insert_build(self.tree, items)

    def insert_object(self, pointer: int, obj: SpatialObject) -> None:
        self.require_built()
        terms = self.corpus.analyzer.terms(obj.text)
        self.tree.insert(
            pointer, Rect.from_point(obj.point), self.tree.scheme.object_signature(terms)
        )

    def delete_object(self, pointer: int, obj: SpatialObject) -> bool:
        self.require_built()
        return self.tree.delete(pointer, Rect.from_point(obj.point))

    @property
    def size_mb(self) -> float:
        return self.pages.size_mb


class _RankedTreeIndex(_TreeIndex):
    """Signature-bearing trees additionally support ranked queries (§V.C)."""

    def estimate_cost(
        self, query: SpatialKeywordQuery, stats: PlannerStatistics
    ) -> CostEstimate | None:
        # Unlike the plain R-Tree, ranked queries are priceable here.
        return estimate_tree(self, query, stats)

    def execute_ranked(
        self,
        query: SpatialKeywordQuery,
        ranking: RankingCallable,
        vocabulary=None,
        exclude: frozenset[int] = frozenset(),
    ) -> QueryExecution:
        """General ranked top-k with I/O accounting.

        Works on IR2- and MIR2-Trees "with no modification" (the paper's
        Section V.C remark).

        Args:
            query: the top-k query.
            ranking: combined ranking function ``f(distance, ir_score)``.
            vocabulary: idf statistics to score against; defaults to this
                corpus's own.  A sharded engine passes the merged global
                vocabulary so every shard scores with corpus-wide idf.
            exclude: oids skipped before they count toward ``k``.
        """
        self.require_built()
        return self._measured(
            query,
            lambda: ranked_top_k(
                self.tree,
                self.corpus.store,
                self.corpus.analyzer,
                vocabulary if vocabulary is not None else self.corpus.vocabulary,
                query,
                ranking,
                exclude=exclude,
            ),
            f"{self.label}-RANKED",
        )


class RTreeIndex(_TreeIndex):
    """Baseline 1: plain R-Tree with fetch-and-filter NN (Section V.A)."""

    label = "RTREE"

    def _make_tree(self) -> RTree:
        return RTree(
            self.pages,
            dims=self.corpus.dims,
            capacity=self.capacity,
            node_intern=self.corpus.node_intern,
        )


class IR2Index(_RankedTreeIndex):
    """The IR2-Tree with the distance-first ``IR2TopK`` algorithm."""

    label = "IR2"

    def __init__(
        self,
        corpus: Corpus,
        signature_bytes: int,
        bits_per_word: int = 3,
        seed: int = 0,
        device: BlockDevice | None = None,
        capacity: int | None = None,
    ) -> None:
        super().__init__(corpus, device, capacity)
        self.factory = HashSignatureFactory(signature_bytes, bits_per_word, seed)

    def _make_tree(self) -> IR2Tree:
        return IR2Tree(
            self.pages,
            self.factory,
            dims=self.corpus.dims,
            capacity=self.capacity,
            node_intern=self.corpus.node_intern,
        )

    def _query_false_positive_rate(self, n_terms: int, stats) -> float:
        return false_positive_rate_for_query(
            self.factory.length_bits,
            max(1, round(stats.avg_distinct_terms)),
            self.factory.bits_per_word,
            max(1, n_terms),
        )


class MIR2Index(_RankedTreeIndex):
    """The MIR2-Tree: per-level signature lengths (Section IV)."""

    label = "MIR2"

    def __init__(
        self,
        corpus: Corpus,
        leaf_signature_bytes: int,
        bits_per_word: int = 3,
        seed: int = 0,
        level_lengths: Sequence[int] | None = None,
        device: BlockDevice | None = None,
        capacity: int | None = None,
    ) -> None:
        super().__init__(corpus, device, capacity)
        self.leaf_signature_bytes = leaf_signature_bytes
        self.bits_per_word = bits_per_word
        self.seed = seed
        self.level_lengths = list(level_lengths) if level_lengths else None

    def _make_tree(self) -> MIR2Tree:
        if self.level_lengths is not None:
            return MIR2Tree(
                self.pages,
                self.level_lengths,
                self.corpus.term_resolver,
                dims=self.corpus.dims,
                capacity=self.capacity,
                bits_per_word=self.bits_per_word,
                seed=self.seed,
                node_intern=self.corpus.node_intern,
            )
        vocabulary = self.corpus.vocabulary
        return MIR2Tree.with_planned_levels(
            self.pages,
            self.leaf_signature_bytes,
            max(1.0, vocabulary.average_unique_words_per_document),
            max(1, vocabulary.unique_words),
            self.corpus.term_resolver,
            dims=self.corpus.dims,
            capacity=self.capacity,
            bits_per_word=self.bits_per_word,
            seed=self.seed,
            node_intern=self.corpus.node_intern,
        )

    def _query_false_positive_rate(self, n_terms: int, stats) -> float:
        return false_positive_rate_for_query(
            self.leaf_signature_bytes * 8,
            max(1, round(stats.avg_distinct_terms)),
            self.bits_per_word,
            max(1, n_terms),
        )


class IIOIndex(SpatialKeywordIndex):
    """Baseline 2: Inverted Index Only (Section V.A, Figure 7).

    Args:
        corpus: the shared corpus.
        device: custom backing device.
        compression: posting codec — "raw" (the paper's layout) or
            "varint" (delta compression per [NMN+00], cited in §7).
    """

    label = "IIO"

    def __init__(
        self,
        corpus: Corpus,
        device: BlockDevice | None = None,
        compression: str = "raw",
    ) -> None:
        super().__init__(corpus, device)
        self.index = InvertedIndex(self.device, corpus.analyzer, compression)

    def _build_structure(self, items: list[BulkItem], bulk: bool, fill: float) -> None:
        self.index.build_terms((item.obj_ptr, item.terms) for item in items)

    def _run(
        self, query: SpatialKeywordQuery, exclude: frozenset[int]
    ) -> SearchOutcome:
        return iio_top_k(self.index, self.corpus.store, query, exclude)

    def estimate_cost(
        self, query: SpatialKeywordQuery, stats: PlannerStatistics
    ) -> CostEstimate | None:
        if query.ranking is not None:
            return None  # no IR scores without signatures/idf traversal
        return estimate_iio(self.index, query, stats)

    def insert_object(self, pointer: int, obj: SpatialObject) -> None:
        self.require_built()
        self.index.add(pointer, obj.text)

    def delete_object(self, pointer: int, obj: SpatialObject) -> bool:
        self.require_built()
        # The inverted index reports whether this pointer was really in
        # a posting list; "some other document shares the terms" must
        # not count as an effective delete (AutoIndex would uncount the
        # object's point from the planner's density grid).
        return self.index.remove(pointer, obj.text)

    @property
    def size_mb(self) -> float:
        return self.index.size_mb


def _signature_scan_top_k(
    corpus: Corpus,
    candidates: Callable[[Sequence[str]], Iterable[int]],
    query: SpatialKeywordQuery,
    exclude: frozenset[int],
) -> SearchOutcome:
    """Candidate-then-verify top-k of the signature scan baselines.

    ``candidates`` maps the query keywords to object pointers whose
    signatures match (SIG's file scan, the S-Tree's descent).  Every
    candidate is loaded and checked against the actual keywords; true
    matches outside ``exclude`` are sorted by ``(distance, oid)`` and
    cut at ``Q.k``.
    """
    outcome = SearchOutcome()
    analyzer = corpus.analyzer
    terms = analyzer.query_terms(query.keywords)
    with qtrace.start_span("signature-scan", category="phase"):
        pointers = candidates(query.keywords)
    scored: list[SearchResult] = []
    with qtrace.start_span("verify", category="phase") as span:
        for pointer in pointers:
            obj = corpus.store.load(pointer)
            outcome.counters.objects_inspected += 1
            ok = analyzer.contains_all(obj.text, terms)
            if span is not None:
                span.event(
                    qtrace.EVT_OBJECT_VERIFY,
                    oid=obj.oid,
                    false_positive=not ok,
                )
            if not ok:
                outcome.counters.false_positives += 1
                continue
            if obj.oid in exclude:
                continue
            distance = target_point_distance(obj.point, query.target)
            scored.append(SearchResult(obj, distance, score=-distance))
    scored.sort(key=result_sort_key)
    outcome.results = scored[: query.k]
    return outcome


class SignatureFileIndex(SpatialKeywordIndex):
    """Extra baseline: sequential signature-file scan [FC84, ZMR98].

    The keyword filter reads the whole compact signature file (almost
    all sequential I/O), then verifies every candidate against the object
    store and sorts survivors by distance — the IR2-Tree's leaf level
    without the spatial hierarchy.  Like IIO it is non-incremental.
    """

    label = "SIG"

    def __init__(
        self,
        corpus: Corpus,
        signature_bytes: int,
        bits_per_word: int = 3,
        seed: int = 0,
        device: BlockDevice | None = None,
    ) -> None:
        super().__init__(corpus, device)
        from repro.text.sigfile import SignatureFile

        self.sigfile = SignatureFile(
            self.device,
            corpus.analyzer,
            HashSignatureFactory(signature_bytes, bits_per_word, seed),
        )

    def _build_structure(self, items: list[BulkItem], bulk: bool, fill: float) -> None:
        for item in items:
            self.sigfile.add_terms(item.obj_ptr, item.terms)

    def _run(
        self, query: SpatialKeywordQuery, exclude: frozenset[int]
    ) -> SearchOutcome:
        return _signature_scan_top_k(
            self.corpus, self.sigfile.candidates, query, exclude
        )

    def estimate_cost(
        self, query: SpatialKeywordQuery, stats: PlannerStatistics
    ) -> CostEstimate | None:
        if query.ranking is not None:
            return None
        return estimate_signature_scan(self.sigfile, query, stats)

    def insert_object(self, pointer: int, obj: SpatialObject) -> None:
        self.require_built()
        self.sigfile.add(pointer, obj.text)

    def delete_object(self, pointer: int, obj: SpatialObject) -> bool:
        self.require_built()
        from repro.errors import ObjectNotFoundError

        try:
            self.sigfile.remove(pointer)
        except ObjectNotFoundError:
            return False
        return True

    @property
    def size_mb(self) -> float:
        return self.sigfile.size_mb


class STreeIndex(SpatialKeywordIndex):
    """Extra baseline: S-Tree [Dep86] signature hierarchy, no spatial data.

    The paper's IR2-Tree grafts the indexed-descriptor idea onto spatial
    grouping; this index keeps the signature hierarchy but groups by
    signature *similarity* instead, isolating what the spatial tree
    contributes.  Query processing mirrors SIG/IIO: generate candidates,
    verify, sort by distance.
    """

    label = "STREE"

    def __init__(
        self,
        corpus: Corpus,
        signature_bytes: int,
        bits_per_word: int = 3,
        seed: int = 0,
        device: BlockDevice | None = None,
        capacity: int = 32,
    ) -> None:
        super().__init__(corpus, device)
        from repro.text.stree import STree

        self.pages = PageStore(self.device)
        self.stree = STree(
            self.pages,
            corpus.analyzer,
            HashSignatureFactory(signature_bytes, bits_per_word, seed),
            capacity=capacity,
        )

    def _build_structure(self, items: list[BulkItem], bulk: bool, fill: float) -> None:
        for item in items:
            self.stree.insert_terms(item.obj_ptr, item.terms)

    def _run(
        self, query: SpatialKeywordQuery, exclude: frozenset[int]
    ) -> SearchOutcome:
        return _signature_scan_top_k(
            self.corpus, self.stree.candidates, query, exclude
        )

    def insert_object(self, pointer: int, obj: SpatialObject) -> None:
        self.require_built()
        self.stree.insert(pointer, obj.text)

    def delete_object(self, pointer: int, obj: SpatialObject) -> bool:
        raise IndexError_(
            "the S-Tree baseline does not implement deletion; "
            "rebuild the index instead"
        )

    @property
    def size_mb(self) -> float:
        return self.pages.size_mb


def corpus_items(corpus: Corpus) -> list[BulkItem]:
    """One uncounted pass over the corpus: a build item per live object."""
    terms = corpus.analyzer.terms
    return [
        BulkItem(pointer, Rect.from_point(obj.point), terms(obj.text))
        for pointer, obj in corpus.iter_items()
    ]


#: Default strategy set for ``index="auto"``: the distance-first tree and
#: the inverted-index conjunction cover both ends of the selectivity
#: spectrum (and "ir2" keeps ranked + incremental queries available).
AUTO_DEFAULT_CANDIDATES = ("ir2", "iio")


class AutoIndex(SpatialKeywordIndex):
    """Adaptive meta-index: one structure per candidate, planner-routed.

    Builds every candidate index kind over the *same* shared corpus and
    routes each query to whichever strategy the cost model expects to be
    cheapest (see :mod:`repro.plan`).  Every answer is produced by a real
    candidate index, so the differential guarantees of the fixed kinds
    carry over unchanged — a wrong estimate costs I/O, never correctness.

    Args:
        corpus: the shared corpus.
        candidates: strategy kinds to build and route among (any of
            "ir2", "mir2", "rtree", "iio", "sig"; order is the
            deterministic cost tie-break).  Defaults to
            :data:`AUTO_DEFAULT_CANDIDATES`.
        signature_bytes / bits_per_word / seed / capacity / compression:
            forwarded to every candidate that uses them.
    """

    label = "AUTO"

    def __init__(
        self,
        corpus: Corpus,
        signature_bytes: int = 16,
        bits_per_word: int = 3,
        seed: int = 0,
        capacity: int | None = None,
        compression: str = "raw",
        candidates: Sequence[str] | None = None,
    ) -> None:
        super().__init__(corpus)
        raw = tuple(candidates) if candidates else AUTO_DEFAULT_CANDIDATES
        normalized: list[str] = []
        for kind in raw:
            name = kind.strip().lower()
            if name == "auto":
                raise QueryError("auto index cannot nest itself as a candidate")
            if name not in normalized:
                normalized.append(name)
        self.candidates = tuple(normalized)
        self._config = {
            "signature_bytes": signature_bytes,
            "bits_per_word": bits_per_word,
            "seed": seed,
            "capacity": capacity,
            "compression": compression,
        }
        self.children: dict[str, SpatialKeywordIndex] = {
            kind: make_index(
                kind,
                corpus,
                signature_bytes=signature_bytes,
                bits_per_word=bits_per_word,
                seed=seed,
                capacity=capacity,
                compression=compression,
            )
            for kind in self.candidates
        }
        self.stats = PlannerStatistics(corpus)
        self.planner = QueryPlanner(self.children, self.stats)

    # -- Construction -----------------------------------------------------------

    def _build_structure(self, items: list[BulkItem], bulk: bool, fill: float) -> None:
        """Build every candidate and the planner statistics from ``items``."""
        for child in self.children.values():
            child._build_structure(items, bulk=bulk, fill=fill)
            child.built = True
        self.stats.rebuild(items)

    # -- Planning ---------------------------------------------------------------

    def plan_for(self, query: SpatialKeywordQuery):
        """The (cached) routing decision for ``query``.

        Exposed so :class:`repro.shard.ShardedEngine` can route each
        shard's sub-query before choosing the pull strategy.
        """
        return self.planner.decide(query)

    def strategy_supports_streaming(self, strategy: str) -> bool:
        """Whether the named strategy can stream results nearest-first."""
        child = self.children.get(strategy)
        return child is not None and child.supports_incremental

    def explain(self, query: SpatialKeywordQuery) -> dict:
        """Planner breakdown for the CLI's ``repro plan explain``."""
        return self.planner.explain(query)

    def _plan(self, query: SpatialKeywordQuery):
        with qtrace.start_span("plan", category="phase") as span:
            decision = self.planner.decide(query)
            if span is not None:
                span.annotate(
                    strategy=decision.strategy,
                    query_class=decision.query_class,
                    cached=decision.cached,
                    estimated_cost_ms=round(decision.cost_ms, 4),
                )
        return decision

    def _finalize(self, decision, execution: QueryExecution) -> QueryExecution:
        actual_ms = DEFAULT_DRIVE.simulated_ms(execution.io)
        execution.algorithm = f"AUTO:{execution.algorithm}"
        plan = decision.as_dict(self.planner.drive)
        plan["actual_cost_ms"] = round(actual_ms, 4)
        execution.plan = plan
        self.planner.observe(decision, actual_ms)
        return execution

    # -- Execution --------------------------------------------------------------

    def execute(
        self, query: SpatialKeywordQuery, *, exclude: frozenset[int] = frozenset()
    ) -> QueryExecution:
        self.require_built()
        decision = self._plan(query)
        child = self.children[decision.strategy]
        return self._finalize(decision, child.execute(query, exclude=exclude))

    def execute_ranked(
        self,
        query: SpatialKeywordQuery,
        ranking: RankingCallable,
        vocabulary=None,
        exclude: frozenset[int] = frozenset(),
    ) -> QueryExecution:
        """Route a ranked query among the ranked-capable candidates."""
        self.require_built()
        planned = query if query.ranking is not None else query.with_ranking(ranking)
        decision = self._plan(planned)
        child = self.children[decision.strategy]
        execution = child.execute_ranked(
            query, ranking, vocabulary=vocabulary, exclude=exclude
        )
        return self._finalize(decision, execution)

    @property
    def supports_incremental(self) -> bool:
        return any(
            child.supports_incremental for child in self.children.values()
        )

    def result_stream(
        self,
        query: SpatialKeywordQuery,
        counters: SearchCounters | None = None,
    ) -> Iterator[SearchResult]:
        """Stream from the planned strategy when it can, else any tree.

        Streaming is only meaningful on tree candidates; when the planner
        prefers a scan strategy but the caller insists on a stream (e.g.
        ``query_incremental``), the first tree candidate serves it.
        """
        self.require_built()
        decision = self.planner.decide(query)
        strategy = decision.strategy
        if not self.strategy_supports_streaming(strategy):
            strategy = next(
                (
                    kind
                    for kind in self.candidates
                    if self.children[kind].supports_incremental
                ),
                None,
            )
        if strategy is None:
            raise QueryError(
                f"index kind {self.label!r} cannot stream results "
                "incrementally: no tree candidate available"
            )
        return self.children[strategy].result_stream(query, counters=counters)

    # -- Maintenance ------------------------------------------------------------

    def insert_object(self, pointer: int, obj: SpatialObject) -> None:
        self.require_built()
        for child in self.children.values():
            child.insert_object(pointer, obj)
        self.stats.note_insert(obj)

    def delete_object(self, pointer: int, obj: SpatialObject) -> bool:
        self.require_built()
        removed = False
        for child in self.children.values():
            removed = child.delete_object(pointer, obj) or removed
        # A delete that removed nothing must not move the statistics:
        # bumping the version would needlessly flush the plan cache, and
        # uncounting a never-present point would corrupt the density
        # grid's accounting.
        if removed:
            self.stats.note_delete(obj)
        return removed

    # -- Introspection ----------------------------------------------------------

    @property
    def size_mb(self) -> float:
        """Summed footprint: adaptivity is paid for in structure space."""
        return sum(child.size_mb for child in self.children.values())

    def _devices(self) -> list[BlockDevice]:
        devices: list[BlockDevice] = []
        for child in self.children.values():
            for device in child._devices():
                if all(device is not seen for seen in devices):
                    devices.append(device)
        return devices


def make_index(
    kind: str,
    corpus: Corpus,
    signature_bytes: int = 16,
    bits_per_word: int = 3,
    seed: int = 0,
    capacity: int | None = None,
    compression: str = "raw",
    auto_candidates: Sequence[str] | None = None,
) -> SpatialKeywordIndex:
    """Factory: ``kind`` in {"rtree", "iio", "ir2", "mir2", "sig",\n    "stree", "auto"} (case-insensitive)."""
    normalized = kind.strip().lower()
    if normalized == "rtree":
        return RTreeIndex(corpus, capacity=capacity)
    if normalized == "iio":
        return IIOIndex(corpus, compression=compression)
    if normalized == "ir2":
        return IR2Index(
            corpus, signature_bytes, bits_per_word=bits_per_word, seed=seed,
            capacity=capacity,
        )
    if normalized == "mir2":
        return MIR2Index(
            corpus, signature_bytes, bits_per_word=bits_per_word, seed=seed,
            capacity=capacity,
        )
    if normalized in ("sig", "sigfile"):
        return SignatureFileIndex(
            corpus, signature_bytes, bits_per_word=bits_per_word, seed=seed
        )
    if normalized == "stree":
        return STreeIndex(
            corpus, signature_bytes, bits_per_word=bits_per_word, seed=seed
        )
    if normalized == "auto":
        return AutoIndex(
            corpus,
            signature_bytes=signature_bytes,
            bits_per_word=bits_per_word,
            seed=seed,
            capacity=capacity,
            compression=compression,
            candidates=auto_candidates,
        )
    raise QueryError(f"unknown index kind {kind!r}")
