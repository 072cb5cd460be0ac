"""Disk access accounting.

The paper's evaluation (Section VI) compares algorithms primarily by the
number of *disk block accesses*, split into **random** and **sequential**
accesses (the thick bars and thin lines of Figures 9b-14b), observing that
"the execution time is primarily proportional to the random access numbers".

Two classes hold that accounting:

* :class:`IOStats` is the running counter.  Every
  :class:`~repro.storage.block.BlockDevice` owns one and reports each
  block write and each counted read to it; a read is one extent of
  ``count`` contiguous blocks, recorded by :meth:`IOStats.record_reads`
  in one update.  An access to block ``b`` is classified *sequential*
  when it immediately follows an access to block ``b - 1`` on the same
  device (the head does not move), and *random* otherwise.  Multi-block
  node reads are therefore 1 random + (n-1) sequential accesses, which is
  exactly the mechanism that makes the MIR2-Tree trade sequential
  accesses for random ones in the paper's figures.  An extent is tallied
  exactly as its blocks read one at a time in order would be.
* :class:`IOCounts` is the one value every reader gets: a frozen copy
  (:meth:`IOStats.snapshot`) with the totals, the per-category views,
  :meth:`IOCounts.diff` and :meth:`IOCounts.merged_with`.

Counters are additionally broken down by a free-form *category* string
("node", "object", "postings", ...) so experiments can report object
accesses (Figures 11b and 14b) separately from index-node accesses.

Concurrency
-----------

Counter updates are read-modify-write sequences, so every mutation of a
device's :class:`IOStats` is protected by its lock: devices shared
between threads (the serving layer in :mod:`repro.serve` dispatches
queries across a pool) never lose counts.  Per-*execution* accounting
cannot come from snapshot/diff of a shared device under concurrency —
another thread's accesses would land inside the window — so
:func:`collecting_io` installs a **thread-local collector**: every
access the *current thread* records on any device is also tallied (with
its already-decided random/sequential classification) into a private
:class:`IOStats`, giving each query its own isolated I/O delta
regardless of what other threads do.  Only the thread that opened a
collector ever tallies it, so collectors are tallied without a lock.

One thread-local scope
----------------------

Everything a counted access must consult on its own thread lives in one
:class:`IOScope` per thread (:func:`current_scope`): the active
collectors, the active shared-read session
(:mod:`repro.storage.sharedread`) and the trace span stack
(:mod:`repro.obs.trace`).  Each recorded access reads the scope once.
While the span stack is non-empty, the access is also recorded as
instant events on its innermost span (``span.event(name, **attrs)``),
at exactly the code points the counters tally, which is what lets
span-tree event counts reconcile exactly with per-query
:func:`collecting_io` deltas.  The storage layer never imports the
tracing package; the event names below are re-exported by
:mod:`repro.obs.trace`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Sequence

#: Instant-event names of counted accesses on a traced thread.  A block
#: event carries ``block``, ``category`` and ``pattern``; an extent read
#: emits one per block.  A shared-read hit (a block served by an active
#: :class:`~repro.storage.sharedread.SharedReadSession`) is its own event
#: so block events still reconcile exactly with the random/sequential
#: read counters: a hit touches neither the device nor the head.
EVT_BLOCK_READ = "block-read"
EVT_BLOCK_WRITE = "block-write"
EVT_SHARED_READ = "shared-read"
EVT_OBJECT_LOAD = "object-load"

#: Access-pattern labels on block events.
PATTERN_RANDOM = "random"
PATTERN_SEQUENTIAL = "sequential"


class IOScope:
    """What the calling thread's counted I/O reports to.

    Attributes:
        collectors: the active :func:`collecting_io` collectors,
            outermost first.
        session: the active :class:`~repro.storage.sharedread.
            SharedReadSession`, or ``None``.
        spans: the :mod:`repro.obs.trace` span stack, innermost last.
    """

    __slots__ = ("collectors", "session", "spans")

    def __init__(self) -> None:
        self.collectors: list[IOStats] = []
        self.session = None
        self.spans: list = []


class _ThreadScope(threading.local):
    """Holds each thread's :class:`IOScope`, created on first use."""

    def __init__(self) -> None:
        self.scope = IOScope()


_thread = _ThreadScope()


def current_scope() -> IOScope:
    """The calling thread's :class:`IOScope`."""
    return _thread.scope


@contextmanager
def fresh_scope() -> Iterator[IOScope]:
    """Give the calling thread an empty :class:`IOScope` while the block runs.

    Work a component runs on its caller's thread that a pool thread
    would otherwise run (a synchronous service read) then reports to no
    collector, shared-read session or span of the caller's; the
    caller's scope is put back on exit.
    """
    outer = _thread.scope
    scope = _thread.scope = IOScope()
    try:
        yield scope
    finally:
        _thread.scope = outer


@contextmanager
def collecting_io() -> Iterator["IOStats"]:
    """Collect every I/O event the current thread records, on any device.

    Usage::

        with collecting_io() as io:
            run_query()
        print(io.random_reads)  # this thread's accesses only

    Collectors nest (each active collector on the thread receives every
    event) and are invisible to other threads, which is what makes
    per-query accounting exact under concurrent execution.
    """
    collector = IOStats()
    collectors = _thread.scope.collectors
    collectors.append(collector)
    try:
        yield collector
    finally:
        # IOStats has no value equality, so this removes this collector
        # even when a nested one saw the same events.
        collectors.remove(collector)


class IOStats:
    """Running disk-access counter of one block device or collector.

    Attributes:
        random_reads, sequential_reads, random_writes, sequential_writes:
            block accesses, split by whether the head had to seek.
        objects_loaded: number of *logical objects* materialized from the
            object store (not blocks); Figures 11b/14b report this metric.
        shared_reads: block reads satisfied by a batch's
            :class:`~repro.storage.sharedread.SharedReadSession` instead of
            the device.  These cost no I/O (they are *not* part of
            ``total_reads`` and do not move the head); the counter exists so
            per-query attribution under batched execution stays exact:
            ``reads + shared_reads`` is what the query would have cost run
            alone.
        by_category: category -> ``[random_reads, seq_reads,
            random_writes, seq_writes]``, keyed by the category string
            passed to the ``record_*`` methods, in first-access order.

    Read the counts through :meth:`snapshot`, which returns a frozen
    :class:`IOCounts`.
    """

    __slots__ = (
        "random_reads",
        "sequential_reads",
        "random_writes",
        "sequential_writes",
        "objects_loaded",
        "shared_reads",
        "by_category",
        "_last_block",
        "_lock",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def record_read(self, block_id: int, category: str = "data") -> bool:
        """Record a read of ``block_id``; return True if it was sequential."""
        return self.record_reads(block_id, 1, category)

    def record_reads(
        self,
        start: int,
        count: int = 1,
        category: str = "data",
        scope: IOScope | None = None,
    ) -> bool:
        """Record a read of the ``count`` blocks from ``start`` (``count >= 1``).

        The first block is classified by head position, the other
        ``count - 1`` are sequential, and the head ends on the last block:
        exactly what ``count`` single-block reads in order would record,
        in one locked update of this object and one update of each of the
        thread's collectors.  ``scope`` is the calling thread's
        :class:`IOScope` when the caller already holds it (a device read
        looks it up once for its session and its charge).  Returns True
        if the first block was sequential.
        """
        with self._lock:
            is_seq = self._last_block is not None and start == self._last_block + 1
            self._last_block = start + count - 1
            self._tally_reads(is_seq, count, category)
        if scope is None:
            scope = _thread.scope
        for collector in scope.collectors:
            if collector is not self:
                collector._tally_reads(is_seq, count, category)
        if scope.spans:
            _block_events(scope.spans[-1], EVT_BLOCK_READ, start, count, category, is_seq)
        return is_seq

    def record_write(self, block_id: int, category: str = "data") -> bool:
        """Record a write of ``block_id``; return True if it was sequential."""
        with self._lock:
            is_seq = self._last_block is not None and block_id == self._last_block + 1
            self._last_block = block_id
            self._tally_write(is_seq, category)
        scope = _thread.scope
        for collector in scope.collectors:
            if collector is not self:
                collector._tally_write(is_seq, category)
        if scope.spans:
            _block_events(scope.spans[-1], EVT_BLOCK_WRITE, block_id, 1, category, is_seq)
        return is_seq

    def record_object_load(self, count: int = 1) -> None:
        """Record that ``count`` logical objects were materialized."""
        with self._lock:
            self.objects_loaded += count
        scope = _thread.scope
        for collector in scope.collectors:
            if collector is not self:
                collector.objects_loaded += count
        if scope.spans:
            scope.spans[-1].event(EVT_OBJECT_LOAD, count=count)

    def record_shared_read(
        self, block_id: int, category: str = "data", scope: IOScope | None = None
    ) -> None:
        """Record a read satisfied by a shared-read session (zero I/O).

        Deliberately does *not* touch the random/sequential counters or the
        head position: the device was never asked for the block, so serial
        and batched runs of the remaining (real) accesses classify
        identically.  ``scope`` is as for :meth:`record_reads`.
        """
        with self._lock:
            self.shared_reads += 1
        if scope is None:
            scope = _thread.scope
        for collector in scope.collectors:
            if collector is not self:
                collector.shared_reads += 1
        if scope.spans:
            scope.spans[-1].event(EVT_SHARED_READ, block=block_id, category=category)

    def _tally_reads(self, first_seq: bool, count: int, category: str) -> None:
        """Apply ``count`` contiguous reads, the first pre-classified
        (caller holds the lock)."""
        random = 0 if first_seq else 1
        sequential = count - random
        self.random_reads += random
        self.sequential_reads += sequential
        counts = self.by_category.get(category)
        if counts is None:
            counts = self.by_category[category] = [0, 0, 0, 0]
        counts[0] += random
        counts[1] += sequential

    def _tally_write(self, is_seq: bool, category: str) -> None:
        """Apply one pre-classified write (caller holds the lock)."""
        counts = self.by_category.get(category)
        if counts is None:
            counts = self.by_category[category] = [0, 0, 0, 0]
        if is_seq:
            self.sequential_writes += 1
            counts[3] += 1
        else:
            self.random_writes += 1
            counts[2] += 1

    def reset(self) -> None:
        """Zero every counter (head position is also forgotten)."""
        with self._lock:
            self.random_reads = 0
            self.sequential_reads = 0
            self.random_writes = 0
            self.sequential_writes = 0
            self.objects_loaded = 0
            self.shared_reads = 0
            self.by_category = {}
            self._last_block = None

    def snapshot(self) -> "IOCounts":
        """Return the counters as a frozen, lock-free :class:`IOCounts`."""
        with self._lock:
            return IOCounts(
                self.random_reads,
                self.sequential_reads,
                self.random_writes,
                self.sequential_writes,
                self.objects_loaded,
                self.shared_reads,
                _flat_categories(self.by_category),
            )


def _block_events(
    span, name: str, start: int, count: int, category: str, first_seq: bool
) -> None:
    """One ``name`` event per block of an access of ``count`` blocks.

    The first block carries the access's classification; the rest of an
    extent are sequential.
    """
    span.event(
        name,
        block=start,
        category=category,
        pattern=PATTERN_SEQUENTIAL if first_seq else PATTERN_RANDOM,
    )
    for block in range(start + 1, start + count):
        span.event(name, block=block, category=category, pattern=PATTERN_SEQUENTIAL)


def _flat_categories(by_category: dict) -> tuple:
    """``{category: 4 counts}`` as one flat ``(category, *counts, ...)`` tuple."""
    return tuple(
        value for category, counts in by_category.items() for value in (category, *counts)
    )


class IOCounts:
    """A frozen record of I/O counts: one execution's, or a counter's so far.

    The one I/O value every reader gets:
    :attr:`QueryExecution.io <repro.core.query.QueryExecution.io>`, an
    engine's ``io_stats()`` and :meth:`IOStats.snapshot`.  Plain integers
    in slots, no lock and no per-category dict of lists, so a server or
    benchmark that retains many executions pays under a third of the
    memory per record.

    The per-category counts are one flat tuple of ``(category,
    random_reads, sequential_reads, random_writes, sequential_writes)``
    runs, in first-access order.
    """

    __slots__ = (
        "random_reads",
        "sequential_reads",
        "random_writes",
        "sequential_writes",
        "objects_loaded",
        "shared_reads",
        "_categories",
    )

    def __init__(
        self,
        random_reads: int = 0,
        sequential_reads: int = 0,
        random_writes: int = 0,
        sequential_writes: int = 0,
        objects_loaded: int = 0,
        shared_reads: int = 0,
        categories: tuple = (),
    ) -> None:
        self.random_reads = random_reads
        self.sequential_reads = sequential_reads
        self.random_writes = random_writes
        self.sequential_writes = sequential_writes
        self.objects_loaded = objects_loaded
        self.shared_reads = shared_reads
        self._categories = categories

    def __repr__(self) -> str:
        return f"IOCounts({self.summary()}, by_category={self.by_category})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IOCounts):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def random_accesses(self) -> int:
        """Accesses that required a head seek (reads plus writes)."""
        return self.random_reads + self.random_writes

    @property
    def sequential_accesses(self) -> int:
        """Accesses contiguous with the previous one (reads plus writes)."""
        return self.sequential_reads + self.sequential_writes

    @property
    def total_reads(self) -> int:
        return self.random_reads + self.sequential_reads

    @property
    def total_writes(self) -> int:
        return self.random_writes + self.sequential_writes

    @property
    def total_accesses(self) -> int:
        return self.total_reads + self.total_writes

    @property
    def by_category(self) -> dict[str, tuple[int, int, int, int]]:
        """Category -> ``(random_reads, seq_reads, random_writes, seq_writes)``."""
        flat = self._categories
        return {flat[i]: flat[i + 1 : i + 5] for i in range(0, len(flat), 5)}

    def _slots_of(self, category: str) -> tuple[int, ...] | None:
        flat = self._categories
        for i in range(0, len(flat), 5):
            if flat[i] == category:
                return flat[i + 1 : i + 5]
        return None

    def category_reads(self, category: str) -> int:
        """Total reads (random + sequential) recorded under ``category``."""
        counts = self._slots_of(category)
        return 0 if counts is None else counts[0] + counts[1]

    def category_random_reads(self, category: str) -> int:
        """Random reads recorded under ``category``."""
        counts = self._slots_of(category)
        return 0 if counts is None else counts[0]

    def merged_with(self, other: "IOCounts") -> "IOCounts":
        """Return the element-wise sum of two records.

        Used to aggregate accesses across several devices (tree file,
        object file, postings file) or shards into one figure.
        """
        return IOCounts.sum_of((self, other))

    @staticmethod
    def sum_of(records: Sequence["IOCounts"]) -> "IOCounts":
        """The element-wise sum of ``records`` in one pass.

        Categories come in first-appearance order; a single record is
        its own sum and is returned as is (records are frozen).
        """
        if len(records) == 1:
            return records[0]
        fields = [0, 0, 0, 0, 0, 0]
        categories: dict[str, list[int]] = {}
        for record in records:
            fields[0] += record.random_reads
            fields[1] += record.sequential_reads
            fields[2] += record.random_writes
            fields[3] += record.sequential_writes
            fields[4] += record.objects_loaded
            fields[5] += record.shared_reads
            flat = record._categories
            for i in range(0, len(flat), 5):
                counts = categories.get(flat[i])
                if counts is None:
                    categories[flat[i]] = list(flat[i + 1 : i + 5])
                else:
                    for j in range(4):
                        counts[j] += flat[i + 1 + j]
        return IOCounts(*fields, _flat_categories(categories))

    def diff(self, earlier: "IOCounts") -> "IOCounts":
        """Return the counts recorded since ``earlier``, an older snapshot
        of the same counter (categories in this record's order)."""
        categories = {k: list(v) for k, v in self.by_category.items()}
        for key, counts in earlier.by_category.items():
            combined = categories.setdefault(key, [0, 0, 0, 0])
            for i, value in enumerate(counts):
                combined[i] -= value
        return IOCounts(
            self.random_reads - earlier.random_reads,
            self.sequential_reads - earlier.sequential_reads,
            self.random_writes - earlier.random_writes,
            self.sequential_writes - earlier.sequential_writes,
            self.objects_loaded - earlier.objects_loaded,
            self.shared_reads - earlier.shared_reads,
            _flat_categories(categories),
        )

    def summary(self) -> str:
        """One-line human-readable summary of the counters."""
        text = (
            f"random: {self.random_reads}r/{self.random_writes}w, "
            f"sequential: {self.sequential_reads}r/{self.sequential_writes}w, "
            f"objects: {self.objects_loaded}"
        )
        if self.shared_reads:
            text += f", shared: {self.shared_reads}"
        return text
