"""User-facing facade: :class:`SpatialKeywordEngine`.

Bundles a corpus and one index behind the small API most applications
need::

    engine = SpatialKeywordEngine(index="ir2", signature_bytes=16)
    engine.add_object(1, (25.4, -80.1), "tennis court gift shop spa internet")
    ...
    engine.build()
    execution = engine.query((30.5, 100.0), ["internet", "pool"], k=2)
    for result in execution.results:
        print(result.obj.oid, result.distance)

Lower-level pieces (trees, stores, search functions) stay importable for
research use; the engine adds nothing they cannot do.

The query path is thread-safe once the engine is built: searches only read
the tree/store structures, per-execution I/O accounting is isolated in
thread-local collectors (:func:`repro.storage.iostats.collecting_io`), and
the shared device counters are lock-protected.  Mutations
(:meth:`~SpatialKeywordEngine.add` / :meth:`~SpatialKeywordEngine.build` /
:meth:`~SpatialKeywordEngine.delete`) mutate those structures in place and
must not race a concurrent query *on the same engine instance* — use
:meth:`SpatialKeywordEngine.serve` (a :class:`repro.serve.QueryService`),
whose snapshot maintenance buffers mutations into an overlay and
folds them into a copy-on-write replacement engine
(:meth:`~SpatialKeywordEngine.clone_empty`), so served queries run safely
against immutable published versions while writes stream in.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.core.corpus import Corpus, CorpusStats
from repro.core.indexes import SpatialKeywordIndex, make_index
from repro.core.query import QueryExecution, SpatialKeywordQuery
from repro.core.ranking import RankingCallable, resolve_ranking
from repro.core.search import SearchCounters
from repro.errors import IndexError_, QueryError
from repro.model import SearchResult, SpatialObject
from repro.spatial.geometry import Rect
from repro.storage.block import DEFAULT_BLOCK_SIZE
from repro.storage.iostats import IOCounts
from repro.text.analyzer import Analyzer


class SpatialKeywordEngine:
    """A complete spatial-keyword search system over one dataset.

    Args:
        index: which structure answers queries — "ir2" (default), "mir2",
            the paper's baselines "rtree" / "iio", or the signature-file
            scan "sig".
        signature_bytes: signature length for the IR2-Tree (or the leaf
            level of the MIR2-Tree); ignored by the baselines.
        bits_per_word: signature hash bits per word.
        analyzer: custom tokenizer; the library default when omitted.
        block_size: disk block size for every structure (paper: 4096).
        seed: signature hash seed.
        capacity: tree fan-out override (derived from block size when
            omitted).
        compression: IIO posting codec, "raw" or "varint" [NMN+00];
            ignored by the other index kinds.
        auto_kinds: candidate strategies for ``index="auto"`` (the
            cost-based planner routes each query among them); ignored by
            the fixed index kinds.  Defaults to
            :data:`repro.core.indexes.AUTO_DEFAULT_CANDIDATES`.
    """

    def __init__(
        self,
        index: str = "ir2",
        signature_bytes: int = 16,
        bits_per_word: int = 3,
        analyzer: Analyzer | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        seed: int = 0,
        capacity: int | None = None,
        compression: str = "raw",
        auto_kinds: Sequence[str] | None = None,
    ) -> None:
        self.corpus = Corpus(analyzer=analyzer, block_size=block_size)
        self._index_kind = index
        # Everything needed to construct an equivalent empty engine —
        # the snapshot maintainer's copy-on-write merges rebuild into a
        # clone_empty() instead of mutating a published base in place.
        self._init_config = {
            "index": index,
            "signature_bytes": signature_bytes,
            "bits_per_word": bits_per_word,
            "analyzer": analyzer,
            "block_size": block_size,
            "seed": seed,
            "capacity": capacity,
            "compression": compression,
            "auto_kinds": tuple(auto_kinds) if auto_kinds else None,
        }
        self.index: SpatialKeywordIndex = make_index(
            index,
            self.corpus,
            signature_bytes=signature_bytes,
            bits_per_word=bits_per_word,
            seed=seed,
            capacity=capacity,
            compression=compression,
            auto_candidates=auto_kinds,
        )
        self._pointers: dict[int, int] = {}  # oid -> ObjPtr

    # -- Population -------------------------------------------------------------

    def add_object(self, oid: int, point: Sequence[float], text: str) -> None:
        """Stage one object (before :meth:`build`) or insert it live (after)."""
        self.add(SpatialObject(oid, tuple(float(c) for c in point), text))

    def add(self, obj: SpatialObject) -> None:
        """Stage or live-insert a :class:`~repro.model.SpatialObject`."""
        if obj.oid in self._pointers:
            raise QueryError(f"object id {obj.oid} already present")
        pointer = self.corpus.add(obj)
        self._pointers[obj.oid] = pointer
        if self.index.built:
            self.index.insert_object(pointer, obj)

    def add_all(self, objects: Iterable[SpatialObject]) -> None:
        """Stage or live-insert many objects."""
        for obj in objects:
            self.add(obj)

    def build(self, bulk: bool = True) -> None:
        """Construct the index over everything staged so far."""
        self.index.build(bulk=bulk)

    def delete(self, oid: int) -> bool:
        """Remove an object from the index and the corpus bookkeeping."""
        if not self.index.built:
            raise IndexError_("build() the engine before deleting objects")
        pointer = self._pointers.pop(oid, None)
        if pointer is None:
            return False
        obj = self.corpus.store.load(pointer)
        removed = self.index.delete_object(pointer, obj)
        self.corpus.store.delete(oid)
        self.corpus.vocabulary.remove_document(self.corpus.analyzer.terms(obj.text))
        return removed

    def contains(self, oid: int) -> bool:
        """Whether ``oid`` is currently live (staged or indexed)."""
        return oid in self._pointers

    def get_object(self, oid: int) -> SpatialObject | None:
        """Load one live object by id (None when absent)."""
        pointer = self._pointers.get(oid)
        if pointer is None:
            return None
        return self.corpus.store.load(pointer)

    def clone_empty(self) -> "SpatialKeywordEngine":
        """A fresh, empty engine with this engine's construction config.

        The snapshot maintainer's merges rebuild into a clone and swap
        it in atomically, leaving the original untouched for in-flight
        readers.  The clone shares the analyzer, whose only state is its
        bounded term-set memo, and the corpus's row and node-image intern
        maps (:meth:`Corpus.share_interns`: content-addressed, so what the
        clone rewrites byte-identically decodes to the values already
        held), but owns its own corpus, devices, and index structures.
        """
        config = dict(self._init_config)
        config["analyzer"] = self.corpus.analyzer
        clone = SpatialKeywordEngine(**config)
        clone.corpus.share_interns(self.corpus)
        return clone

    # -- Queries ------------------------------------------------------------------

    def search(
        self,
        query: SpatialKeywordQuery,
        *,
        vocabulary=None,
        exclude: frozenset[int] = frozenset(),
        terms: Sequence[str] | None = None,
        decision=None,
    ) -> QueryExecution:
        """Unified entry point: execute any :class:`SpatialKeywordQuery`.

        Dispatches on the query itself — a ``ranking`` function selects
        the general ranked path (Section V.C), an ``area`` anchors the
        distance-first search to a rectangle (Section III), and a plain
        point query runs the paper's default distance-first algorithm.
        :meth:`query`, :meth:`query_area`, and :meth:`query_ranked` are
        thin conveniences that construct a query and call this method.

        ``vocabulary`` overrides the corpus statistics ranked scoring
        uses (the snapshot layer passes a version-wide vocabulary so
        buffered overlays score exactly); ignored by distance-first
        queries, which never consult idf values.

        ``exclude`` names oids the answer must skip: every top-k cut
        drops them before they count toward ``k``, so the result is the
        top ``k`` among the other objects.  The snapshot layer passes the
        oids its overlay masks; an excluded object the algorithm reaches
        is still loaded and counted as inspected.

        The query's keywords are normalized once per call.  ``terms``
        hands over a normalization the caller already made (the sharded
        fan-out and the snapshot overlay analyze the query themselves);
        without it the index computes them.  ``decision`` hands an
        adaptive (``"auto"``) index the
        :class:`~repro.plan.PlanDecision` the caller took for this query
        on it (the sharded fan-out plans each shard visit once); the
        index then runs it without planning again.
        """
        if query.ranking is not None:
            return self._search_ranked(
                query, vocabulary=vocabulary, exclude=exclude, terms=terms
            )
        # Only what the caller handed over is forwarded, so a plain
        # search keeps the one-argument ``execute`` call.
        handed = {}
        if exclude:
            handed["exclude"] = exclude
        if terms is not None:
            handed["terms"] = terms
        if decision is not None:
            handed["decision"] = decision
        return self.index.execute(query, **handed)

    def search_many(
        self, queries: Sequence[SpatialKeywordQuery]
    ) -> list[QueryExecution]:
        """Execute a batch of queries under one shared-read session.

        Queries run sequentially (answers are byte-identical to N
        :meth:`search` calls), but a block any earlier query in the batch
        fetched is served from the session's byte cache instead of the
        device, so total device reads grow sublinearly with batch size
        when the queries overlap spatially.  Each execution's ``io``
        stays its own exact delta: real reads in the random/sequential
        counters, session hits in ``io.shared_reads``.
        """
        from repro.storage.sharedread import shared_read_session

        with shared_read_session():
            return [self.search(query) for query in queries]

    def query(
        self, point: Sequence[float], keywords: Sequence[str], k: int = 10
    ) -> QueryExecution:
        """Distance-first top-k spatial keyword query (the paper's default).

        Delegates to :meth:`search`.
        """
        return self.search(SpatialKeywordQuery.of(point, keywords, k))

    def stream_results(
        self,
        query: SpatialKeywordQuery,
        counters: SearchCounters | None = None,
        *,
        terms: Sequence[str] | None = None,
        decision=None,
    ) -> Iterator[SearchResult]:
        """Incremental distance-first stream for an arbitrary query target.

        The low-level form of :meth:`query_incremental`: accepts a full
        :class:`SpatialKeywordQuery` (so area targets work) and optionally
        tallies per-pull cost counters — the hooks the sharded
        scatter-gather merge needs.  ``terms`` and ``decision`` are as
        for :meth:`search`.

        Raises:
            QueryError: when the index kind is non-incremental (its
                :attr:`~repro.core.indexes.SpatialKeywordIndex.supports_incremental`
                is False).
        """
        if not self.index.supports_incremental:
            raise QueryError(
                f"index kind {self._index_kind!r} cannot stream results "
                "incrementally"
            )
        self.index.require_built()
        # Only an adaptive index takes a decision.
        handed = {} if decision is None else {"decision": decision}
        return self.index.result_stream(
            query, counters=counters, terms=terms, **handed
        )

    def query_incremental(
        self,
        point: Sequence[float],
        keywords: Sequence[str],
        counters: SearchCounters | None = None,
    ) -> Iterator[SearchResult]:
        """Lazily yield distance-first results, nearest first.

        The paper's algorithm is *incremental*: "each call to the
        IR2NearestNeighbor method returns a candidate result object".
        This exposes that property at the engine level — pull one result,
        show a page, pull more — paying index I/O only for what is
        consumed.  Supported by the tree-based indexes ("rtree", "ir2",
        "mir2"); the scan baselines ("iio", "sig", "stree") are inherently
        non-incremental (Section V.A) and raise :class:`QueryError`.

        Yields:
            :class:`~repro.model.SearchResult` objects in non-decreasing
            distance order.
        """
        return self.stream_results(
            SpatialKeywordQuery.of(point, keywords, k=1), counters=counters
        )

    def query_area(
        self,
        lo: Sequence[float],
        hi: Sequence[float],
        keywords: Sequence[str],
        k: int = 10,
    ) -> QueryExecution:
        """Distance-first query anchored to a rectangular area.

        Section III: "an area could be used instead" of the query point.
        Objects inside the area rank first (distance 0), then by distance
        to the area's nearest edge.  Delegates to :meth:`search`.

        Args:
            lo: area's low corner (e.g. southwest point).
            hi: area's high corner (e.g. northeast point).
            keywords: conjunctive query keywords.
            k: number of requested results.
        """
        area = Rect(
            tuple(float(c) for c in lo), tuple(float(c) for c in hi)
        )
        return self.search(SpatialKeywordQuery.of_area(area, keywords, k))

    def query_ranked(
        self,
        point: Sequence[float],
        keywords: Sequence[str],
        k: int = 10,
        ranking: RankingCallable | None = None,
    ) -> QueryExecution:
        """General top-k query ranked by ``f(distance, IRscore)``.

        Only available on the signature-bearing indexes ("ir2"/"mir2").
        Delegates to :meth:`search` with the ranking attached to the
        query (a default :class:`DistanceDecayRanking` when omitted).
        """
        query = SpatialKeywordQuery.of(point, keywords, k, ranking=ranking)
        return self._search_ranked(query)

    def _search_ranked(
        self,
        query: SpatialKeywordQuery,
        vocabulary=None,
        exclude: frozenset[int] = frozenset(),
        terms: Sequence[str] | None = None,
    ) -> QueryExecution:
        """Ranked dispatch shared by :meth:`search` and :meth:`query_ranked`."""
        execute_ranked = getattr(self.index, "execute_ranked", None)
        if execute_ranked is None:
            raise QueryError(
                f"index kind {self._index_kind!r} does not support ranked queries"
            )
        ranking = resolve_ranking(
            query.ranking, (obj.point for obj in self.corpus.objects())
        )
        if ranking is not query.ranking:
            query = query.with_ranking(ranking)
        return execute_ranked(
            query, ranking, vocabulary=vocabulary, exclude=exclude, terms=terms
        )

    # -- Serving ----------------------------------------------------------------

    def serve(self, workers: int = 4, **kwargs):
        """Wrap this engine in a concurrent :class:`~repro.serve.QueryService`.

        Args:
            workers: query worker threads.
            **kwargs: forwarded to :class:`repro.serve.QueryService`
                (``cache``, ``cache_capacity``, ``trace_capacity``).
        """
        from repro.serve import QueryService

        return QueryService(self, workers=workers, **kwargs)

    # -- Introspection ----------------------------------------------------------------

    @property
    def index_kind(self) -> str:
        """The index kind string this engine was constructed with."""
        return self._index_kind

    @property
    def analyzer(self):
        """The tokenizer shared by the corpus and every index over it."""
        return self.corpus.analyzer

    def objects(self) -> Iterator[SpatialObject]:
        """Yield every live object (uncounted; for workloads and stats)."""
        return self.corpus.objects()

    def __len__(self) -> int:
        return len(self.corpus)

    def corpus_stats(self) -> CorpusStats:
        """Dataset statistics in the shape of the paper's Table 1."""
        return self.corpus.stats()

    def index_size_mb(self) -> float:
        """Index structure footprint in megabytes (Table 2)."""
        return self.index.size_mb

    def io_stats(self) -> IOCounts:
        """The index and object devices' running I/O counters, merged.

        Uses the index's own device list so multi-structure kinds (the
        "auto" planner index) report every candidate's device.
        """
        io = IOCounts()
        for device in self.index._devices():
            io = io.merged_with(device.stats.snapshot())
        return io

    def reset_io(self) -> None:
        """Zero the I/O counters (e.g. after a build, before measuring)."""
        self.index.reset_io()
