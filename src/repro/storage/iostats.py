"""Disk access accounting.

The paper's evaluation (Section VI) compares algorithms primarily by the
number of *disk block accesses*, split into **random** and **sequential**
accesses (the thick bars and thin lines of Figures 9b-14b), observing that
"the execution time is primarily proportional to the random access numbers".

:class:`IOStats` is the single source of truth for that accounting.  Every
:class:`~repro.storage.block.BlockDevice` owns one and reports each block
read/write to it.  An access to block ``b`` is classified *sequential* when
it immediately follows an access to block ``b - 1`` on the same device (the
head does not move), and *random* otherwise.  Multi-block node reads are
therefore 1 random + (n-1) sequential accesses, which is exactly the
mechanism that makes the MIR2-Tree trade sequential accesses for random ones
in the paper's figures.

Counters are additionally broken down by a free-form *category* string
("node", "object", "postings", ...) so experiments can report object
accesses (Figures 11b and 14b) separately from index-node accesses.

Concurrency
-----------

Counter updates are read-modify-write sequences, so every mutation is
protected by a per-``IOStats`` lock: devices shared between threads (the
serving layer in :mod:`repro.serve` dispatches queries across a pool)
never lose counts.  Per-*execution* accounting cannot come from
snapshot/diff of a shared device under concurrency — another thread's
accesses would land inside the window — so :func:`collecting_io` installs
a **thread-local collector**: every access the *current thread* records on
any device is also tallied (with its already-decided random/sequential
classification) into a private :class:`IOStats`, giving each query its own
isolated I/O delta regardless of what other threads do.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: Optional tracing bridge, installed by :mod:`repro.obs.trace` when it is
#: imported.  The storage layer must stay import-cycle-free with the
#: observability package, so instead of importing it we expose two module
#: globals that default to ``None`` (a single cheap check per access).
#: When set, every classified block access is forwarded as
#: ``sink(op, block_id, category, is_sequential)`` and every logical
#: object load as ``sink(count)``, firing at exactly the code points the
#: counters tally — which is what lets span-tree event counts reconcile
#: exactly with per-query :func:`collecting_io` deltas.
_TRACE_BLOCK_SINK = None
_TRACE_OBJECT_SINK = None
#: Fired as ``sink(block_id, category)`` for every *shared-read hit*: a
#: block served from an active :class:`~repro.storage.sharedread.
#: SharedReadSession` instead of the device.  Kept distinct from the block
#: sink so trace-event block counts still reconcile exactly with the
#: random/sequential read counters (shared hits touch neither the device
#: nor the head position).
_TRACE_SHARED_SINK = None

#: Thread-local stack of active per-execution collectors.
_collectors = threading.local()


def _collector_stack() -> list["IOStats"]:
    stack = getattr(_collectors, "stack", None)
    if stack is None:
        stack = _collectors.stack = []
    return stack


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
    stack = _collector_stack()
    stack.append(collector)
    try:
        yield collector
    finally:
        # Remove by identity, not equality: IOStats is a dataclass whose
        # generated __eq__ compares counter values, and nested collectors
        # that saw the same events are equal — list.remove() would delete
        # the wrong (usually the outer) one.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is collector:
                del stack[i]
                break


@dataclass(slots=True)
class AccessCounts:
    """Read/write counters for one access pattern (random or sequential)."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        """Total accesses (reads plus writes)."""
        return self.reads + self.writes

    def copy(self) -> "AccessCounts":
        """Return an independent copy of these counters."""
        return AccessCounts(self.reads, self.writes)


@dataclass(slots=True)
class IOStats:
    """Running disk-access statistics for one block device.

    Attributes:
        random: counts of accesses that required a head seek.
        sequential: counts of accesses contiguous with the previous one.
        by_category: per-category (random_reads, seq_reads, random_writes,
            seq_writes) 4-tuples, keyed by the category string passed to
            :meth:`record_read` / :meth:`record_write`.
        objects_loaded: number of *logical objects* materialized from the
            object store (not blocks); Figures 11b/14b report this metric.
        shared_reads: block reads satisfied by a batch's
            :class:`~repro.storage.sharedread.SharedReadSession` instead of
            the device.  These cost no I/O (they are *not* part of
            ``total_reads`` and do not move the head); the counter exists so
            per-query attribution under batched execution stays exact:
            ``reads + shared_reads`` is what the query would have cost run
            alone.
    """

    random: AccessCounts = field(default_factory=AccessCounts)
    sequential: AccessCounts = field(default_factory=AccessCounts)
    by_category: dict = field(default_factory=dict)
    objects_loaded: int = 0
    shared_reads: int = 0
    _last_block: int | None = field(default=None, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record_read(self, block_id: int, category: str = "data") -> bool:
        """Record a read of ``block_id``; return True if it was sequential."""
        with self._lock:
            is_seq = self._classify(block_id)
            self._tally_read(is_seq, category)
        for collector in _collector_stack():
            if collector is not self:
                with collector._lock:
                    collector._tally_read(is_seq, category)
        if _TRACE_BLOCK_SINK is not None:
            _TRACE_BLOCK_SINK("read", block_id, category, is_seq)
        return is_seq

    def record_write(self, block_id: int, category: str = "data") -> bool:
        """Record a write of ``block_id``; return True if it was sequential."""
        with self._lock:
            is_seq = self._classify(block_id)
            self._tally_write(is_seq, category)
        for collector in _collector_stack():
            if collector is not self:
                with collector._lock:
                    collector._tally_write(is_seq, category)
        if _TRACE_BLOCK_SINK is not None:
            _TRACE_BLOCK_SINK("write", block_id, category, is_seq)
        return is_seq

    def record_object_load(self, count: int = 1) -> None:
        """Record that ``count`` logical objects were materialized."""
        with self._lock:
            self.objects_loaded += count
        for collector in _collector_stack():
            if collector is not self:
                with collector._lock:
                    collector.objects_loaded += count
        if _TRACE_OBJECT_SINK is not None:
            _TRACE_OBJECT_SINK(count)

    def record_shared_read(self, block_id: int, category: str = "data") -> None:
        """Record a read satisfied by a shared-read session (zero I/O).

        Deliberately does *not* touch the random/sequential counters or the
        head position: the device was never asked for the block, so serial
        and batched runs of the remaining (real) accesses classify
        identically.
        """
        with self._lock:
            self.shared_reads += 1
        for collector in _collector_stack():
            if collector is not self:
                with collector._lock:
                    collector.shared_reads += 1
        if _TRACE_SHARED_SINK is not None:
            _TRACE_SHARED_SINK(block_id, category)

    def _tally_read(self, is_seq: bool, category: str) -> None:
        """Apply one pre-classified read (caller holds the lock)."""
        if is_seq:
            self.sequential.reads += 1
        else:
            self.random.reads += 1
        self._bump(category, 1 if is_seq else 0)

    def _tally_write(self, is_seq: bool, category: str) -> None:
        """Apply one pre-classified write (caller holds the lock)."""
        if is_seq:
            self.sequential.writes += 1
        else:
            self.random.writes += 1
        self._bump(category, 3 if is_seq else 2)

    def _classify(self, block_id: int) -> bool:
        """Classify the access and advance the head position."""
        is_seq = self._last_block is not None and block_id == self._last_block + 1
        self._last_block = block_id
        return is_seq

    def _bump(self, category: str, slot: int) -> None:
        counts = self.by_category.setdefault(category, [0, 0, 0, 0])
        counts[slot] += 1

    # -- Aggregate views ---------------------------------------------------

    @property
    def random_reads(self) -> int:
        return self.random.reads

    @property
    def sequential_reads(self) -> int:
        return self.sequential.reads

    @property
    def random_writes(self) -> int:
        return self.random.writes

    @property
    def sequential_writes(self) -> int:
        return self.sequential.writes

    @property
    def total_reads(self) -> int:
        return self.random.reads + self.sequential.reads

    @property
    def total_writes(self) -> int:
        return self.random.writes + self.sequential.writes

    @property
    def total_accesses(self) -> int:
        return self.random.total + self.sequential.total

    def category_reads(self, category: str) -> int:
        """Total reads (random + sequential) recorded under ``category``."""
        counts = self.by_category.get(category)
        if counts is None:
            return 0
        return counts[0] + counts[1]

    def category_random_reads(self, category: str) -> int:
        """Random reads recorded under ``category``."""
        counts = self.by_category.get(category)
        if counts is None:
            return 0
        return counts[0]

    # -- Lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter (head position is also forgotten)."""
        with self._lock:
            self.random = AccessCounts()
            self.sequential = AccessCounts()
            self.by_category = {}
            self.objects_loaded = 0
            self.shared_reads = 0
            self._last_block = None

    def counts(self) -> "IOCounts":
        """Return the counters as a frozen, lock-free :class:`IOCounts`."""
        with self._lock:
            return IOCounts(
                self.random.reads,
                self.sequential.reads,
                self.random.writes,
                self.sequential.writes,
                self.objects_loaded,
                self.shared_reads,
                _flat_categories(self.by_category),
            )

    def snapshot(self) -> "IOStats":
        """Return a frozen, internally consistent copy of the counters."""
        with self._lock:
            snap = IOStats(
                random=self.random.copy(),
                sequential=self.sequential.copy(),
                by_category={k: list(v) for k, v in self.by_category.items()},
                objects_loaded=self.objects_loaded,
                shared_reads=self.shared_reads,
            )
        return snap

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Return the counter delta between ``self`` and an earlier snapshot."""
        categories: dict = {}
        for key, now in self.by_category.items():
            before = earlier.by_category.get(key, [0, 0, 0, 0])
            categories[key] = [n - b for n, b in zip(now, before)]
        for key, before in earlier.by_category.items():
            if key not in categories:
                categories[key] = [-b for b in before]
        return IOStats(
            random=AccessCounts(
                self.random.reads - earlier.random.reads,
                self.random.writes - earlier.random.writes,
            ),
            sequential=AccessCounts(
                self.sequential.reads - earlier.sequential.reads,
                self.sequential.writes - earlier.sequential.writes,
            ),
            by_category=categories,
            objects_loaded=self.objects_loaded - earlier.objects_loaded,
            shared_reads=self.shared_reads - earlier.shared_reads,
        )

    def merged_with(self, other: "IOStats") -> "IOStats":
        """Return the element-wise sum of two stats objects.

        Used to aggregate accesses across several devices (tree file,
        object file, postings file) into one per-query figure.
        """
        return IOStats(
            random=AccessCounts(
                self.random.reads + other.random.reads,
                self.random.writes + other.random.writes,
            ),
            sequential=AccessCounts(
                self.sequential.reads + other.sequential.reads,
                self.sequential.writes + other.sequential.writes,
            ),
            by_category=_summed_categories(self, other),
            objects_loaded=self.objects_loaded + other.objects_loaded,
            shared_reads=self.shared_reads + other.shared_reads,
        )

    def summary(self) -> str:
        """One-line human-readable summary of the counters."""
        return self.counts().summary()


def _summed_categories(a: "IOStats | IOCounts", b: "IOStats | IOCounts") -> dict:
    """Element-wise sum of two ``by_category`` maps, as lists."""
    categories = {k: list(v) for k, v in a.by_category.items()}
    for key, counts in b.by_category.items():
        merged = categories.setdefault(key, [0, 0, 0, 0])
        for i, value in enumerate(counts):
            merged[i] += value
    return categories


def _flat_categories(by_category: dict) -> tuple:
    """``{category: 4 counts}`` as one flat ``(category, *counts, ...)`` tuple."""
    return tuple(
        value for category, counts in by_category.items() for value in (category, *counts)
    )


class IOCounts:
    """The I/O counts of one finished execution, frozen.

    :attr:`QueryExecution.io <repro.core.query.QueryExecution.io>` keeps
    one of these rather than the live :class:`IOStats` collector: plain
    integers in slots, no lock and no per-category dict of lists, so a
    server or benchmark that retains many executions pays under a third
    of the memory per record.  It reads like an :class:`IOStats`
    (``random_reads``, ``total_reads``, ``random.total``,
    ``category_reads("node")``, ``by_category``, :meth:`merged_with`).

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
    def random(self) -> AccessCounts:
        return AccessCounts(self.random_reads, self.random_writes)

    @property
    def sequential(self) -> AccessCounts:
        return AccessCounts(self.sequential_reads, self.sequential_writes)

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

    def merged_with(self, other: "IOCounts | IOStats") -> "IOCounts":
        """Return the element-wise sum of two records (either class)."""
        return IOCounts(
            self.random_reads + other.random_reads,
            self.sequential_reads + other.sequential_reads,
            self.random_writes + other.random_writes,
            self.sequential_writes + other.sequential_writes,
            self.objects_loaded + other.objects_loaded,
            self.shared_reads + other.shared_reads,
            _flat_categories(_summed_categories(self, other)),
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
