"""Shared-read sessions: the one block cache over every device.

A :class:`SharedReadSession` is a read-through byte cache that
:meth:`~repro.storage.block.BlockDevice.read_block` consults while the
session is active on the calling thread.  The first read of a block pays
the real device read; every later read of the same block inside the
session is served from the session and recorded as a ``shared_read`` on
:class:`~repro.storage.iostats.IOStats` instead of a random/sequential
access.  ``io.total_reads + io.shared_reads`` is therefore what the work
would have cost with no session, and the sum of per-query
``total_reads`` still equals the device totals.

The cache has two uses, told apart only by its bound:

* **Batch groups** (unbounded, ``capacity_blocks=None``).  The batch
  front-end in :mod:`repro.serve` executes a *group* of queries under
  one session, so concurrent queries that descend the same hot upper
  tree nodes and postings blocks share the reads.  An unbounded session
  never evicts.
* **A buffer pool** (``capacity_blocks=N``).  Each device keeps at most
  ``N`` blocks and evicts the least recently read first.  The paper
  counts cold-cache accesses, so this is an optional extension (DESIGN
  S4), measured by ablation A3 (``benchmarks/bench_ablation_cache.py``).
  The bound is per device, so object-store blocks never compete with
  tree blocks.

The active session is the ``session`` slot of the calling thread's
:class:`~repro.storage.iostats.IOScope`, the same per-thread scope that
holds the :func:`~repro.storage.iostats.collecting_io` collectors and the
trace span stack, so sessions are invisible to unrelated threads.
:func:`activate_session` sets it and restores the outer session on exit.
The sharded engine's fan-out workers re-activate the dispatching thread's
session explicitly (the same pattern used for trace-span propagation),
so a batch shares reads across shard workers too.

Correctness notes:

* A batch group reads one pinned, published engine version whose base
  is never mutated after publication (merges build a copy-on-write
  replacement engine on its own devices; see
  :mod:`repro.serve.maintenance`), so the cached bytes cannot go stale
  mid-batch.  A counted write drops the written block from the active
  session (:meth:`SharedReadSession.invalidate`) for devices that see a
  write anyway.
* Only scheduler batches open a session.  A query runs alone without
  one: it re-reads some blocks itself, and a session would turn those
  repeats into ``shared_reads``, breaking the cold-cache accounting of
  a standalone query.
* Serving a hit does **not** advance the device's head position, so the
  random/sequential classification of the remaining real accesses is
  identical to a run without the session.
* A multi-block read walks its blocks in block order
  (:meth:`SharedReadSession.lookup`).  Each locked lookup returns the
  cached blocks up to the first miss and the end of the run of misses
  after them; that run is charged, read and stored
  (:meth:`SharedReadSession.store_extent`, which may evict) before the
  next lookup.  That is the charge and the eviction order the blocks
  would get read one at a time, so ``real + shared == standalone`` and
  the random/sequential split hold for extents too.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.storage.iostats import current_scope


def current_session() -> Optional["SharedReadSession"]:
    """Return the active session on this thread, if any."""
    return current_scope().session


@contextmanager
def activate_session(session: Optional["SharedReadSession"]) -> Iterator[None]:
    """Make ``session`` the current thread's active session.

    The session active before is restored on exit.  Accepts ``None`` as
    a no-op so call sites can unconditionally wrap work in ``with
    activate_session(maybe_session):`` (the shard fan-out workers do
    exactly this with the dispatcher's session).
    """
    if session is None:
        yield
        return
    scope = current_scope()
    outer = scope.session
    scope.session = session
    try:
        yield
    finally:
        scope.session = outer


@contextmanager
def shared_read_session() -> Iterator["SharedReadSession"]:
    """Create a fresh unbounded session and activate it on the current thread."""
    session = SharedReadSession()
    with activate_session(session):
        yield session


class SharedReadSession:
    """A read-through block cache layered over every device.

    Blocks are kept in one recency-ordered map per device, keyed by
    ``id(device)`` (block ids are only meaningful per device).
    Thread-safe: shard fan-out workers of one batch, or any threads that
    activate the same session, share it concurrently.

    Args:
        capacity_blocks: blocks kept per device, least recently read
            evicted first; ``None`` (the default) keeps every block.
    """

    def __init__(self, capacity_blocks: int | None = None) -> None:
        if capacity_blocks is not None and capacity_blocks < 1:
            raise ValueError("a bounded session keeps at least 1 block per device")
        self.capacity_blocks = capacity_blocks
        self._lock = threading.Lock()
        self._devices: dict[int, OrderedDict[int, bytes]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, device: object, start: int, stop: int) -> tuple[list[bytes], int]:
        """Walk ``device``'s blocks from ``start`` toward ``stop`` in one
        locked pass.

        Returns the cached bytes of the blocks from ``start`` up to the
        first miss, each counting one hit and becoming the most recently
        read, and the end of the run of misses that follows them (at
        most ``stop``).
        """
        with self._lock:
            blocks = self._devices.get(id(device))
            if blocks is None:
                return [], stop
            found = []
            block = start
            while block < stop:
                data = blocks.get(block)
                if data is None:
                    break
                blocks.move_to_end(block)
                found.append(data)
                block += 1
            while block < stop and block not in blocks:
                block += 1
            self.hits += len(found)
        return found, block

    def store_extent(
        self, device: object, start: int, data: bytes, block_size: int
    ) -> None:
        """Remember each block of the extent a real device read returned
        from ``start``, in block order; each block counts one miss and
        may evict the device's least recently read block."""
        count = len(data) // block_size
        capacity = self.capacity_blocks
        with self._lock:
            blocks = self._devices.get(id(device))
            if blocks is None:
                blocks = self._devices[id(device)] = OrderedDict()
            self.misses += count
            for i in range(count):
                block = start + i
                blocks[block] = data[i * block_size : (i + 1) * block_size]
                blocks.move_to_end(block)
                if capacity is not None and len(blocks) > capacity:
                    blocks.popitem(last=False)

    def invalidate(self, device: object, block_id: int) -> None:
        """Drop a cached block after a write (see module docs)."""
        with self._lock:
            blocks = self._devices.get(id(device))
            if blocks is not None:
                blocks.pop(block_id, None)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(blocks) for blocks in self._devices.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SharedReadSession(blocks={len(self)}, "
            f"capacity_blocks={self.capacity_blocks}, "
            f"hits={self.hits}, misses={self.misses})"
        )
