"""Snapshot (copy-on-write) index maintenance for the serving layer.

Queries and mutations share one served engine without ever blocking
each other: reads are versioned snapshot reads, the memtable/LSM idea
applied to the paper's structures:

* the engine state visible to queries is an immutable published
  :class:`EngineVersion` — a built base engine plus a flat overlay of
  buffered inserts and deleted oids.  Readers grab the current version
  with one attribute read and never block on writers;
* ``add``/``delete`` append to a log-structured :class:`WriteBuffer`
  and atomically publish a new version (the overlay is consulted at
  query time: the base search skips masked oids inside its own top-k
  cut, and buffered inserts are merged into the answer);
* when the buffer reaches ``merge_threshold``, a background merge folds
  it into a *fresh* base engine (copy-on-write: the old base is never
  mutated after publication, so in-flight readers stay on a consistent
  snapshot) and publishes the rebuilt version with an empty overlay.

Two buffer epochs make merges non-blocking for writers too: the buffer
being folded is *frozen* while a new *active* buffer keeps receiving
writes; the published overlay is always the flat composition of the two.

Determinism contract: for any published version, a distance-first query
answered through :meth:`EngineVersion.search` equals the brute-force
oracle over that version's live objects — the overlay merge uses the
same conjunctive keyword filter, the same distance function, and the
same ``(distance, oid)`` tie-break as every other cut path in the
repository.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import replace
from typing import Callable, Iterator

from repro.core.query import QueryExecution, SpatialKeywordQuery
from repro.errors import QueryError, VersionRetiredError
from repro.model import SearchResult, SpatialObject, result_sort_key
from repro.obs import MetricsRegistry
from repro.persist import copy_built_engine
from repro.spatial.geometry import target_point_distance
from repro.text.analyzer import DEFAULT_ANALYZER
from repro.text.irmodel import ir_score


#: A frozen buffer at most this fraction of the base's live objects is
#: folded *incrementally* — live inserts/deletes applied to a structural
#: copy of the base — instead of a full clone_empty()+add_all+build
#: rebuild.  Above the ratio a bulk rebuild is cheaper (and produces the
#: better-packed bulk-loaded tree).
INCREMENTAL_MERGE_MAX_RATIO = 0.25


def engine_is_built(engine) -> bool:
    """Whether a (single or sharded) engine has a built index."""
    built = getattr(engine, "built", None)
    if built is not None:
        return bool(built)
    return bool(engine.index.built)


class WriteBuffer:
    """One epoch of buffered mutations (the log-structured memtable).

    Applied on top of an underlying engine state, the buffer's live set
    is ``(base - deleted - inserts.keys()) + inserts.values()``: the
    masked set is ``deleted | inserts.keys()`` (a re-inserted oid masks
    the base's stale copy), and the buffered inserts are the overlay's
    own contribution.  Each insert's term set is kept beside it in
    ``terms``: tokenized once when the write is buffered, it is what
    every overlay read tests the query keywords against.  Mutated only
    under the maintainer's mutex.
    """

    __slots__ = ("inserts", "terms", "deleted")

    def __init__(self) -> None:
        self.inserts: dict[int, SpatialObject] = {}
        self.terms: dict[int, frozenset[str]] = {}
        self.deleted: set[int] = set()

    @property
    def depth(self) -> int:
        """Buffered operations pending a merge."""
        return len(self.inserts) + len(self.deleted)

    def record_insert(
        self, obj: SpatialObject, terms: frozenset[str] | None = None
    ) -> None:
        """Buffer ``obj`` with its term set (the serving analyzer's).

        ``terms`` defaults to the terms of ``obj.text`` under
        :data:`~repro.text.analyzer.DEFAULT_ANALYZER`; the maintainer
        always passes its engine's own.
        """
        # A previously-buffered delete of the same oid stays in
        # ``deleted``: it still has to mask any base/frozen copy, and
        # the re-inserted object wins because ``inserts`` is consulted
        # first everywhere.
        if terms is None:
            terms = DEFAULT_ANALYZER.terms(obj.text)
        self.inserts[obj.oid] = obj
        self.terms[obj.oid] = terms

    def record_delete(self, oid: int, mask: bool = True) -> None:
        """Buffer a delete of ``oid``, dropping any buffered insert of it.

        ``mask`` says whether an older copy (in the base or a frozen
        buffer) may exist and must be masked; without one, deleting an
        oid only this buffer inserted leaves no trace, so an add+delete
        pair changes no version and counts toward no merge.
        """
        self.inserts.pop(oid, None)
        self.terms.pop(oid, None)
        if mask:
            self.deleted.add(oid)

    def composed_with(self, later: "WriteBuffer") -> "WriteBuffer":
        """Flatten ``self`` then ``later`` into one equivalent buffer."""
        merged = WriteBuffer()
        merged.inserts = dict(self.inserts)
        merged.terms = dict(self.terms)
        merged.deleted = set(self.deleted)
        for oid in later.deleted:
            merged.record_delete(oid)
        for oid, obj in later.inserts.items():
            merged.record_insert(obj, later.terms[oid])
        return merged


class EngineVersion:
    """One immutable published engine state: base engine + flat overlay.

    Readers treat every attribute as frozen; the maintainer constructs a
    new instance for every publication and never mutates an old one (the
    base engine itself is copy-on-write — once a version is published
    its base is only ever *read*).

    Attributes:
        version: monotonically increasing publication number.
        base: the built engine this version reads (single or sharded).
        inserts: buffered objects not yet folded into ``base``.
        insert_terms: each buffered insert's term set, by oid.
        deleted: buffered deletions (oids masked out of ``base``).
        masked: oids whose base copies must not appear in an answer —
            ``deleted`` plus every buffered insert's oid (a re-insert
            masks the base's stale copy).
    """

    __slots__ = (
        "version", "base", "inserts", "insert_terms", "deleted", "masked",
        "_vocabulary",
    )

    def __init__(
        self,
        version: int,
        base,
        inserts: dict[int, SpatialObject],
        insert_terms: dict[int, frozenset[str]],
        deleted: frozenset[int],
    ) -> None:
        self.version = version
        self.base = base
        self.inserts = inserts
        self.insert_terms = insert_terms
        self.deleted = deleted
        self.masked = deleted.union(inserts)
        # Lazily computed effective vocabulary for ranked queries on a
        # dirty snapshot; the computation is deterministic, so the
        # benign unlocked double-compute race is safe.
        self._vocabulary = None

    @property
    def buffer_depth(self) -> int:
        """Overlay operations pending a merge (0 = clean snapshot)."""
        return len(self.inserts) + len(self.deleted)

    @property
    def dirty(self) -> bool:
        return bool(self.inserts or self.deleted)

    def contains(self, oid: int) -> bool:
        """Whether ``oid`` is live in this version."""
        if oid in self.inserts:
            return True
        if oid in self.deleted:
            return False
        return self.base.contains(oid)

    def objects(self) -> Iterator[SpatialObject]:
        """Every live object of this version (the oracle's input set)."""
        masked = self.masked
        for obj in self.base.objects():
            if obj.oid not in masked:
                yield obj
        yield from self.inserts.values()

    def __len__(self) -> int:
        alive_in_base = len(self.base) - sum(
            1 for oid in self.masked if self.base.contains(oid)
        )
        return alive_in_base + len(self.inserts)

    # -- Queries ----------------------------------------------------------------

    def search(self, query: SpatialKeywordQuery) -> QueryExecution:
        """Answer ``query`` on this version; never blocks on writers.

        A clean version delegates straight to the base engine.  A dirty
        one runs the base search with :attr:`masked` as its exclusion
        set — every top-k cut inside the base skips a masked oid before
        it counts toward ``k``, so the base returns the ``k`` nearest
        *live* base objects — then merges the buffered inserts that
        contain every query keyword and re-cuts at ``k`` under the
        canonical ``(distance, oid)`` order.  That reproduces the
        brute-force oracle over :meth:`objects` exactly.  A dirty version
        normalizes the keywords once and hands the terms to the base
        search and the overlay match.  The overlay
        itself costs no I/O, so the execution's per-query I/O delta
        stays the base search's exact attribution.
        """
        if not self.dirty:
            return self.base.search(query)
        if query.ranking is not None:
            return self._search_ranked(query)
        terms = self.base.analyzer.query_terms(query.keywords)
        execution = self.base.search(query, exclude=self.masked, terms=terms)
        needed = set(terms)
        overlay = []
        for oid, terms in self.insert_terms.items():
            if needed <= terms:
                obj = self.inserts[oid]
                distance = target_point_distance(obj.point, query.target)
                overlay.append(SearchResult(obj, distance, score=-distance))
        if not overlay:
            return execution
        results = execution.results + overlay
        results.sort(key=result_sort_key)
        return replace(execution, results=results[: query.k])

    def _search_ranked(self, query: SpatialKeywordQuery) -> QueryExecution:
        """Ranked query on a dirty snapshot, without forcing a flush.

        The base search runs with this version's *effective* vocabulary
        (base statistics minus masked documents plus buffered inserts) so
        every base survivor's idf — and therefore its score — is exactly
        what a flushed engine would compute, and with :attr:`masked` as
        its exclusion set, so the ranked stream is pulled until ``k``
        live base results are in hand.  Buffered inserts are scored
        through the same :func:`~repro.text.irmodel.ir_score` the index
        scorer uses, zero-IR overlays are dropped (as the index traversal
        drops zero-IR candidates), and the
        merged list is re-cut at ``k`` under the canonical ranked order
        ``(-score, distance, oid)``.
        """
        ranking = query.ranking
        analyzer = self.base.analyzer
        terms = analyzer.query_terms(query.keywords)
        vocabulary = self._effective_vocabulary()
        execution = self.base.search(
            query, vocabulary=vocabulary, exclude=self.masked, terms=terms
        )
        results = list(execution.results)
        for oid in sorted(self.inserts):
            obj = self.inserts[oid]
            relevance = ir_score(obj.text, terms, vocabulary, analyzer)
            if relevance == 0.0:
                continue
            distance = target_point_distance(obj.point, query.target)
            results.append(
                SearchResult(
                    obj,
                    distance,
                    score=ranking(distance, relevance),
                    ir_score=relevance,
                )
            )
        results.sort(key=lambda r: (-r.score, r.distance, r.obj.oid))
        return replace(execution, results=results[: query.k])

    def _effective_vocabulary(self):
        """This version's corpus statistics: base ⊖ masked ⊕ inserts.

        Exactly the vocabulary the base would hold after folding the
        overlay, so dirty-snapshot ranked scores are byte-identical to
        post-flush scores.  Computed once per version and memoized.
        """
        vocabulary = self._vocabulary
        if vocabulary is None:
            analyzer = self.base.analyzer
            base_vocab = getattr(self.base, "_global_vocabulary", None)
            vocabulary = (
                base_vocab() if base_vocab is not None
                else self.base.corpus.vocabulary
            ).copy()
            for oid in sorted(self.masked):
                obj = self.base.get_object(oid)
                if obj is not None:
                    vocabulary.remove_document(analyzer.terms(obj.text))
            for oid in sorted(self.inserts):
                vocabulary.add_document(self.insert_terms[oid])
            self._vocabulary = vocabulary
        return vocabulary


class SnapshotMaintainer:
    """Owns the write buffer, the merge loop, and version publication.

    One maintainer fronts one base engine.  All mutations go through
    :meth:`add` / :meth:`delete` / :meth:`rebuild`; every effective
    mutation publishes a new :class:`EngineVersion` atomically (readers
    see either the old complete version or the new complete one, never a
    torn intermediate).  Reads go through :attr:`current` — a single
    attribute load, no lock shared with writers.

    Args:
        engine: the (possibly not yet built) engine to front.
        merge_threshold: buffered operations that trigger a background
            merge (``None`` disables automatic merging; ``flush`` and
            ``rebuild`` still fold).
        metrics: registry receiving ``engine.version`` and
            ``maintenance.*`` gauges/counters/histograms.
        tracer: optional :class:`repro.obs.trace.QueryTracer`; merges
            emit a ``merge`` span tree with fold counts and duration.
        version_window: published versions retained for answer-at-version
            reads (:meth:`version_at`), the current one included.  Every
            retained version stays fully readable — its base engine is
            copy-on-write and its overlay immutable — so the window
            bounds the extra memory old bases can pin after merges.
    """

    def __init__(
        self,
        engine,
        merge_threshold: int | None = 64,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        version_window: int = 8,
    ) -> None:
        if merge_threshold is not None and merge_threshold < 1:
            raise QueryError(
                f"merge_threshold must be >= 1 or None, got {merge_threshold}"
            )
        if version_window < 1:
            raise QueryError(
                f"version_window must be >= 1, got {version_window}"
            )
        self.merge_threshold = merge_threshold
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        #: Called with the freshly built base after every merge swap —
        #: the service re-attaches planner metrics to the new engine.
        self.on_base_swap: Callable | None = None
        #: Test hook: called between building the merged base and
        #: publishing it (a slow merge must never block readers).
        self.merge_hook: Callable[[], None] | None = None
        self._mutex = threading.Lock()  # buffers + publication
        self._merge_lock = threading.Lock()  # one merge at a time
        self._base = engine
        self._active = WriteBuffer()
        self._frozen: WriteBuffer | None = None
        self._merge_pending = False
        self._merge_thread: threading.Thread | None = None
        self._current = EngineVersion(0, engine, {}, {}, frozenset())
        self.version_window = version_window
        # Recently published versions, newest last (answer-at-version
        # window).  Appends happen under ``_mutex``; readers copy under
        # it too, so iteration never races an eviction.
        self._retained: deque[EngineVersion] = deque(maxlen=version_window)
        self._retained.append(self._current)
        self.merges = 0
        self.incremental_merges = 0
        self.merge_failures = 0
        self._publish_gauges(self._current)

    # -- Read side --------------------------------------------------------------

    @property
    def current(self) -> EngineVersion:
        """The published version; one atomic attribute read, lock-free."""
        return self._current

    @property
    def base(self):
        """The current base engine (changes only at merge publication)."""
        return self._base

    def retained_versions(self) -> list[int]:
        """Version numbers answerable via :meth:`version_at`, oldest first."""
        with self._mutex:
            return [version.version for version in self._retained]

    def version_at(self, version: int) -> EngineVersion:
        """The retained :class:`EngineVersion` numbered ``version``.

        Raises :class:`~repro.errors.VersionRetiredError` when the
        requested version has aged out of the retention window (or was
        never published).  Retained versions are immutable and their
        bases copy-on-write, so the returned version answers queries
        exactly as it did when it was current.
        """
        with self._mutex:
            for retained in reversed(self._retained):
                if retained.version == version:
                    return retained
            oldest = self._retained[0].version if self._retained else None
            newest = self._retained[-1].version if self._retained else None
        raise VersionRetiredError(version, oldest, newest)

    # -- Publication ------------------------------------------------------------

    def _publish_locked(self) -> EngineVersion:
        """Compose the epochs and publish a new version (mutex held)."""
        if self._frozen is not None:
            overlay = self._frozen.composed_with(self._active)
        else:
            overlay = self._active
        version = EngineVersion(
            self._current.version + 1,
            self._base,
            dict(overlay.inserts),
            dict(overlay.terms),
            frozenset(overlay.deleted),
        )
        self._current = version
        self._retained.append(version)
        return version

    def _publish_gauges(self, version: EngineVersion) -> None:
        self.metrics.gauge("engine.version").set(version.version)
        self.metrics.gauge("maintenance.buffer_depth").set(
            version.buffer_depth
        )

    # -- Write side -------------------------------------------------------------

    def add(self, obj: SpatialObject) -> EngineVersion:
        """Buffer one insert; returns the version it published.

        Never blocks readers.  Before the base is built there are no
        snapshots to protect, so staged adds go straight to the engine
        (matching the direct engine surface); afterwards they land in
        the active buffer.
        """
        with self._mutex:
            if not engine_is_built(self._base):
                self._base.add(obj)
                version = self._publish_locked()
            else:
                if self._current.contains(obj.oid):
                    raise QueryError(f"object id {obj.oid} already present")
                self._active.record_insert(
                    obj, self._base.analyzer.terms(obj.text)
                )
                version = self._publish_locked()
        self._publish_gauges(version)
        self._maybe_schedule_merge()
        return version

    def delete(self, oid: int) -> EngineVersion | None:
        """Buffer one delete; returns the version it published.

        ``None`` (and no effect at all) when ``oid`` is not live — a
        no-op delete publishes nothing, so the result cache and planner
        statistics are left untouched."""
        with self._mutex:
            if not engine_is_built(self._base):
                # Matches the direct engine surface: raises IndexError_.
                self._base.delete(oid)
                return None
            if not self._current.contains(oid):
                return None
            frozen = self._frozen
            self._active.record_delete(
                oid,
                mask=self._base.contains(oid)
                or (frozen is not None and oid in frozen.inserts),
            )
            version = self._publish_locked()
        self._publish_gauges(version)
        self._maybe_schedule_merge()
        return version

    def rebuild(self, bulk: bool = True) -> None:
        """(Re)build the index, folding the buffer (``service.build()``).

        The first build (base not yet built) runs in place — no reader
        can have a snapshot of an unbuilt index.  Later rebuilds are
        copy-on-write like any merge: the current base keeps serving
        in-flight readers while a fresh engine is built and swapped in.
        """
        with self._merge_lock:
            if not engine_is_built(self._base):
                self._base.build(bulk=bulk)
                with self._mutex:
                    version = self._publish_locked()
                self._publish_gauges(version)
                return
            with self._mutex:
                self._frozen = self._active
                self._active = WriteBuffer()
            self._fold_frozen(bulk=bulk, reason="rebuild")

    def flush(self, reason: str = "flush") -> EngineVersion:
        """Fold everything buffered; returns the resulting clean version.

        Waits for any in-flight background merge, then merges until the
        overlay is empty (a concurrent writer can dirty the new version
        again immediately — callers get *a* clean version, not an
        exclusive one).
        """
        while True:
            with self._merge_lock:
                with self._mutex:
                    if self._active.depth == 0:
                        return self._current
                    self._frozen = self._active
                    self._active = WriteBuffer()
                self._fold_frozen(reason=reason)

    # -- Merge internals --------------------------------------------------------

    def _maybe_schedule_merge(self) -> None:
        if self.merge_threshold is None:
            return
        with self._mutex:
            if self._merge_pending or self._active.depth < self.merge_threshold:
                return
            self._merge_pending = True
        thread = threading.Thread(
            target=self._background_merge, name="repro-merge", daemon=True
        )
        self._merge_thread = thread
        thread.start()

    def _background_merge(self) -> None:
        try:
            with self._merge_lock:
                with self._mutex:
                    if self._active.depth == 0:
                        return
                    self._frozen = self._active
                    self._active = WriteBuffer()
                self._fold_frozen(reason="threshold")
        except Exception:
            # Failure already accounted by _fold_frozen; a background
            # merge has no caller to re-raise to.
            pass
        finally:
            with self._mutex:
                self._merge_pending = False

    def _fold_frozen(
        self, bulk: bool = True, reason: str = "threshold"
    ) -> None:
        """Fold the frozen epoch into a fresh base and publish it.

        Caller holds ``_merge_lock`` and has moved the active buffer
        into ``_frozen``.  The old base is never touched: the new base
        is either a structural *copy* of the old base with the frozen
        overlay applied through live ``insert_object``/``delete`` calls
        (when the buffer is small relative to the base — see
        :data:`INCREMENTAL_MERGE_MAX_RATIO`) or a :meth:`clone_empty`
        rebuilt from the old base's live objects plus the frozen
        overlay.  Either way the replacement is swapped in atomically.
        On failure the frozen epoch is recomposed under the (newer)
        active buffer so no buffered write is ever lost.
        """
        frozen = self._frozen
        assert frozen is not None
        started = time.perf_counter()
        trace = (
            self.tracer.begin("merge", start=started)
            if self.tracer is not None
            else None
        )
        root = trace.root if trace is not None else None
        if root is not None:
            root.category = "maintenance"
        mode = "rebuild"
        try:
            masked = set(frozen.deleted) | set(frozen.inserts)
            rebuilt = None
            base_live = len(self._base)
            if frozen.depth <= max(1, int(base_live * INCREMENTAL_MERGE_MAX_RATIO)):
                rebuilt = copy_built_engine(self._base)
            if rebuilt is not None:
                mode = "incremental"
                for oid in sorted(masked):
                    if rebuilt.contains(oid):
                        rebuilt.delete(oid)
                for oid in sorted(frozen.inserts):
                    rebuilt.add(frozen.inserts[oid])
            else:
                rebuilt = self._base.clone_empty()
                rebuilt.add_all(
                    obj for obj in self._base.objects() if obj.oid not in masked
                )
                rebuilt.add_all(frozen.inserts.values())
                rebuilt.build(bulk=bulk)
            if self.merge_hook is not None:
                self.merge_hook()
        except Exception:
            with self._mutex:
                self._active = frozen.composed_with(self._active)
                self._frozen = None
                version = self._publish_locked()
            self.merge_failures += 1
            self.metrics.counter("maintenance.merge_failures").inc()
            self._publish_gauges(version)
            if root is not None:
                root.annotate(reason=reason, failed=True)
                root.finish()
                self.tracer.commit(
                    trace, (time.perf_counter() - started) * 1000.0
                )
            raise
        with self._mutex:
            self._base = rebuilt
            self._frozen = None
            version = self._publish_locked()
        self.merges += 1
        duration_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.counter("maintenance.merges").inc()
        if mode == "incremental":
            self.incremental_merges += 1
            self.metrics.counter("maintenance.incremental_merges").inc()
        self.metrics.histogram("maintenance.merge_ms").observe(duration_ms)
        self._publish_gauges(version)
        if self.on_base_swap is not None:
            self.on_base_swap(rebuilt)
        if root is not None:
            root.annotate(
                reason=reason,
                mode=mode,
                folded_inserts=len(frozen.inserts),
                folded_deletes=len(frozen.deleted),
                version=version.version,
            )
            root.finish()
            self.tracer.commit(trace, duration_ms)
