"""Shared-read sessions: one block read serves a whole batch of queries.

Under heavy traffic many concurrent queries descend the same hot upper
tree nodes and postings blocks.  The batch front-end in
:mod:`repro.serve` executes a *group* of queries under one
:class:`SharedReadSession`: the first query to touch a block pays the
real device read; every later read of the same block inside the session
is served from the session's byte cache and recorded as a
``shared_read`` on :class:`~repro.storage.iostats.IOStats` instead of a
random/sequential access.  Total device reads therefore grow
sublinearly with batch size while per-query attribution stays exact —
``io.total_reads + io.shared_reads`` is what the query would have cost
run alone, and the sum of per-query ``total_reads`` still equals the
device totals.

The active session is the ``session`` slot of the calling thread's
:class:`~repro.storage.iostats.IOScope`, the same per-thread scope that
holds the :func:`~repro.storage.iostats.collecting_io` collectors and the
trace span stack, so sessions are invisible to unrelated threads.
:func:`activate_session` sets it and restores the outer session on exit.
The sharded engine's fan-out workers re-activate the dispatching thread's
session explicitly (the same pattern used for trace-span propagation),
so a batch shares reads across shard workers too.

Correctness notes:

* A session covers one batch group, and a group reads one pinned,
  published engine version whose base is never mutated after
  publication (merges build a copy-on-write replacement engine on its
  own devices; see :mod:`repro.serve.maintenance`), so the cached bytes
  cannot go stale mid-batch; :meth:`SharedReadSession.invalidate`
  exists as a defensive hook for devices that see a write anyway.
* Only scheduler batches open a session.  A query runs alone without
  one: it re-reads some blocks itself, and a session would turn those
  repeats into ``shared_reads``, breaking the cold-cache accounting of
  a standalone query.
* Serving a hit does **not** advance the device's head position, so the
  random/sequential classification of the remaining real accesses is
  identical to a serial run — byte-identical answers *and* comparable
  counters.
* A multi-block read looks up all of its blocks in one pass
  (:meth:`SharedReadSession.lookup_extent`).  Hits are charged one by
  one as shared reads; each maximal run of misses is charged, read and
  stored (:meth:`SharedReadSession.store_extent`) as one extent.  That
  is the charge the blocks would get read one at a time, so
  ``real + shared == standalone`` and the random/sequential split hold
  for extents too.
"""

from __future__ import annotations

import threading
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
    """Create a fresh session and activate it on the current thread."""
    session = SharedReadSession()
    with activate_session(session):
        yield session


class SharedReadSession:
    """A per-batch read-through byte cache layered over every device.

    Keyed by ``(id(device), block_id)`` — block ids are only meaningful
    per device.  Thread-safe: shard fan-out workers of the same batch
    share one session concurrently.  The device identity key holds no
    reference cycle risk here because sessions are short-lived (one
    batch) and always referenced alongside the engine that owns the
    devices.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._blocks: dict[tuple[int, int], bytes] = {}
        self.hits = 0
        self.misses = 0

    def lookup_extent(
        self, device: object, start: int, count: int
    ) -> list[bytes | None]:
        """Cached bytes of each of the ``count`` blocks from ``start`` on
        ``device``, in one locked pass; ``None`` marks a block the session
        lacks.  Each block found counts one hit."""
        key = id(device)
        blocks = self._blocks
        with self._lock:
            found = [blocks.get((key, block)) for block in range(start, start + count)]
            self.hits += count - found.count(None)
        return found

    def store_extent(
        self, device: object, start: int, data: bytes, block_size: int
    ) -> None:
        """Remember each block of the extent a real device read returned
        from ``start``; each block counts one miss."""
        key = id(device)
        count = len(data) // block_size
        with self._lock:
            self.misses += count
            for i in range(count):
                self._blocks[(key, start + i)] = data[
                    i * block_size : (i + 1) * block_size
                ]

    def invalidate(self, device: object, block_id: int) -> None:
        """Drop a cached block after a write (defensive; see module docs)."""
        with self._lock:
            self._blocks.pop((id(device), block_id), None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SharedReadSession(blocks={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
