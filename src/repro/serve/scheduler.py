"""Batch scheduling for the serving layer: group, coalesce, share work.

Under heavy traffic many in-flight queries are duplicates or near
neighbours of each other.  :class:`BatchScheduler` is the admission path
:class:`repro.serve.QueryService` uses when batching is enabled:

* **window grouping** — submissions arriving within ``window_ms`` of the
  first one are collected into one group; the group flushes when the
  window expires, when it reaches ``max_batch`` members, or immediately
  when a whole batch is handed over via :meth:`submit_group` (the
  deterministic ``submit_many`` path);
* **coalescing** — a submission whose semantic identity (the result
  cache's key: point, area, keywords, k, ranking) matches a member
  already waiting in the open group rides along as a *follower*: one
  execution answers both, and each follower receives its own copies of
  the results so no two callers alias one answer;
* **shared work** — the service runs every flushed group through one
  shared-read session (:mod:`repro.storage.sharedread`), so a block any
  member reads is read from the device once per group.

The scheduler itself only groups; execution, futures, tracing, and
accounting stay in the service.  Flushes hand a :class:`BatchGroup` to
the ``dispatch`` callable (the service submits it to its worker pool).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.query import SpatialKeywordQuery
from repro.errors import ServiceError
from repro.serve.resultcache import QueryResultCache

if TYPE_CHECKING:
    from repro.serve.maintenance import EngineVersion


@dataclass(frozen=True)
class BatchConfig:
    """Tuning knobs for the batch front-end.

    Attributes:
        window_ms: how long the first submission of a group waits for
            company before the group flushes (0 flushes every submission
            immediately in its own group — batching off in all but name).
        max_batch: maximum members per group; a full group flushes
            without waiting for the window.
        max_pending: admission bound — maximum submissions admitted but
            not yet completed before the service sheds new ones with
            :class:`~repro.errors.ServiceOverloadError`.  ``None``
            disables shedding.
        coalesce: merge duplicate in-flight (query, k) pairs within a
            group onto one execution.
    """

    window_ms: float = 2.0
    max_batch: int = 16
    max_pending: int | None = None
    coalesce: bool = True

    def __post_init__(self) -> None:
        if self.window_ms < 0:
            raise ServiceError("batch window_ms must be >= 0")
        if self.max_batch < 1:
            raise ServiceError("batch max_batch must be >= 1")
        if self.max_pending is not None and self.max_pending < 1:
            raise ServiceError("batch max_pending must be >= 1 (or None)")


class BatchMember:
    """One query waiting in (or executing with) a batch group.

    ``followers`` holds coalesced duplicates: submissions with the same
    semantic identity admitted while this member was waiting.  They do
    not execute; the service resolves each follower's future with its
    own copy of this member's answer.
    """

    __slots__ = ("query", "future", "query_id", "submitted_at", "followers")

    def __init__(
        self, query: SpatialKeywordQuery, future, query_id: int,
        submitted_at: float,
    ) -> None:
        self.query = query
        self.future = future
        self.query_id = query_id
        self.submitted_at = submitted_at
        self.followers: list[BatchMember] = []


class BatchGroup:
    """A set of members executed together on one pinned engine version.

    ``batch_id`` numbers the groups the scheduler flushes; it is None
    for a read the service runs alone (a direct submission with
    batching off, or an ``at_version`` read).  ``version`` is the
    :class:`~repro.serve.maintenance.EngineVersion` the group must read
    — set only for ``at_version`` reads; otherwise the executing service
    pins the current published version at pickup, so every member
    answers from the same immutable snapshot even while writers publish
    newer versions mid-batch.
    """

    __slots__ = ("batch_id", "members", "version")

    def __init__(
        self,
        batch_id: int | None,
        members: list[BatchMember],
        version: "EngineVersion | None" = None,
    ) -> None:
        self.batch_id = batch_id
        self.members = members
        self.version = version

    def __len__(self) -> int:
        """Total submissions in the group, followers included."""
        return sum(1 + len(m.followers) for m in self.members)


class BatchScheduler:
    """Groups submissions into :class:`BatchGroup`\\ s and dispatches them.

    Args:
        config: grouping and coalescing knobs.
        dispatch: called with each flushed :class:`BatchGroup`; must not
            block (the service submits the group to its worker pool).
    """

    def __init__(
        self, config: BatchConfig, dispatch: Callable[[BatchGroup], None]
    ) -> None:
        self.config = config
        self._dispatch = dispatch
        self._lock = threading.Lock()
        self._members: list[BatchMember] = []
        self._by_key: dict = {}
        self._timer: threading.Timer | None = None
        self._batch_seq = itertools.count()
        self._closed = False
        self.coalesced = 0
        self.batches = 0

    # -- Admission --------------------------------------------------------------

    def submit(self, member: BatchMember) -> None:
        """Admit one submission into the open window group."""
        group = None
        with self._lock:
            if self._closed:
                raise ServiceError("cannot submit to a closed BatchScheduler")
            if self.config.coalesce:
                key = QueryResultCache.key_of(member.query)
                leader = self._by_key.get(key)
                if leader is not None:
                    leader.followers.append(member)
                    self.coalesced += 1
                    return
                self._by_key[key] = member
            self._members.append(member)
            if len(self._members) >= self.config.max_batch:
                group = self._take_locked()
            elif self._timer is None:
                timer = threading.Timer(
                    self.config.window_ms / 1000.0, self._flush_window
                )
                timer.daemon = True
                self._timer = timer
                timer.start()
        if group is not None:
            self._dispatch(group)

    def submit_group(self, members: Sequence[BatchMember]) -> None:
        """Admit an explicit batch; flush immediately (deterministic).

        Any window group already open flushes first, as its own group —
        an explicit batch never merges with ambient traffic, so a caller
        of ``submit_many`` always knows exactly which queries share one
        session.  The batch is chunked by ``max_batch``; duplicates
        coalesce within each chunk.
        """
        groups: list[BatchGroup] = []
        with self._lock:
            if self._closed:
                raise ServiceError("cannot submit to a closed BatchScheduler")
            if self._members:
                groups.append(self._take_locked())
            chunk: list[BatchMember] = []
            by_key: dict = {}
            for member in members:
                if self.config.coalesce:
                    key = QueryResultCache.key_of(member.query)
                    leader = by_key.get(key)
                    if leader is not None:
                        leader.followers.append(member)
                        self.coalesced += 1
                        continue
                    by_key[key] = member
                chunk.append(member)
                if len(chunk) >= self.config.max_batch:
                    groups.append(self._make_group(chunk))
                    chunk, by_key = [], {}
            if chunk:
                groups.append(self._make_group(chunk))
        for group in groups:
            self._dispatch(group)

    # -- Flushing ---------------------------------------------------------------

    def _make_group(self, members: list[BatchMember]) -> BatchGroup:
        self.batches += 1
        return BatchGroup(next(self._batch_seq), members)

    def _take_locked(self) -> BatchGroup:
        """Detach the open window group (caller holds the lock)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        group = self._make_group(self._members)
        self._members = []
        self._by_key = {}
        return group

    def _flush_window(self) -> None:
        """Timer body: the window expired, flush whatever gathered."""
        with self._lock:
            self._timer = None
            group = self._take_locked() if self._members else None
        if group is not None:
            self._dispatch(group)

    def flush(self) -> None:
        """Flush the open window group now (tests and close)."""
        with self._lock:
            group = self._take_locked() if self._members else None
        if group is not None:
            self._dispatch(group)

    @property
    def pending(self) -> int:
        """Submissions waiting in the open window group (followers too)."""
        with self._lock:
            return sum(1 + len(m.followers) for m in self._members)

    def close(self) -> None:
        """Flush any open group and refuse further submissions."""
        with self._lock:
            self._closed = True
            group = self._take_locked() if self._members else None
        if group is not None:
            self._dispatch(group)
