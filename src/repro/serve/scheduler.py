"""Batch scheduling for the serving layer: group, coalesce, share work.

Under heavy traffic many in-flight queries are duplicates or near
neighbours of each other.  :class:`BatchScheduler` is the admission path
:class:`repro.serve.QueryService` uses when batching is enabled:

* **work-conserving grouping** — the scheduler counts the groups in
  flight (dispatched, not yet finished).  While fewer than ``workers``
  are in flight a submission is dispatched at once; only while every
  worker is busy do submissions collect into one open group.  The open
  group is sealed when it reaches ``max_batch`` members, when a
  submission arrives ``window_ms`` or more after its first member (a
  lazy check at admission — there is no timer), or when a finishing
  group's :meth:`~BatchScheduler.done` hands it to the freed worker.  A
  whole batch handed over via :meth:`~BatchScheduler.submit_group` (the
  deterministic ``submit_many`` path) is dispatched immediately;
* **coalescing** — a submission whose semantic identity (the result
  cache's key: point, area, keywords, k, ranking) matches a member
  already waiting in the open group rides along as a *follower*: one
  execution answers both, and each follower receives its own copies of
  the results so no two callers alias one answer;
* **shared work** — the service runs every dispatched group through one
  shared-read session (:mod:`repro.storage.sharedread`), so a block any
  member reads is read from the device once per group.

The scheduler itself only groups; execution, futures, tracing, and
accounting stay in the service.  Each dispatch hands a
:class:`BatchGroup` to the ``dispatch`` callable (the service submits it
to its worker pool), and the service calls :meth:`~BatchScheduler.done`
once per group when it finishes.
"""

from __future__ import annotations

import itertools
import threading
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
        window_ms: how long a group may stay open while every worker is
            busy: a submission arriving ``window_ms`` or more after the
            open group's first member seals that group and opens a
            fresh one.  No submission ever waits for it while a worker
            is free.  0 gives groups of one (plus coalesced
            duplicates).
        max_batch: maximum members per group; a full group is sealed
            and dispatched to the pool's queue.
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

    ``batch_id`` numbers the groups the scheduler dispatches; it is None
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

    Work-conserving: a submission waits in the open group only while
    ``workers`` scheduler groups are already in flight, so at low load
    every query is dispatched the moment it arrives.

    Args:
        config: grouping and coalescing knobs.
        dispatch: called with each sealed :class:`BatchGroup`; must not
            block (the service submits the group to its worker pool).
        workers: the worker threads executing dispatched groups (the
            service's pool size).

    The caller must invoke :meth:`done` exactly once for every group
    passed to ``dispatch`` — when it finishes, raises, or fails to
    dispatch — so the in-flight count stays exact.
    """

    def __init__(
        self,
        config: BatchConfig,
        dispatch: Callable[[BatchGroup], None],
        workers: int = 1,
    ) -> None:
        self.config = config
        self._dispatch = dispatch
        self._workers = workers
        self._window_s = config.window_ms / 1000.0
        self._lock = threading.Lock()
        self._members: list[BatchMember] = []
        self._by_key: dict = {}
        self._in_flight = 0
        self._batch_seq = itertools.count()
        self._closed = False

    # -- Admission --------------------------------------------------------------

    def submit(self, member: BatchMember) -> None:
        """Admit one submission: dispatch it now, or join the open group."""
        sealed: list[BatchGroup] = []
        with self._lock:
            if self._closed:
                raise ServiceError("cannot submit to a closed BatchScheduler")
            key = None
            if self.config.coalesce:
                key = QueryResultCache.key_of(member.query)
                leader = self._by_key.get(key)
                if leader is not None:
                    leader.followers.append(member)
                    return
            if self._members and (
                member.submitted_at - self._members[0].submitted_at
                >= self._window_s
            ):
                # The open group aged past the window while every worker
                # stayed busy: seal it and start a fresh one.
                sealed.append(self._seal_locked())
            if key is not None:
                self._by_key[key] = member
            self._members.append(member)
            if (
                self._in_flight < self._workers
                or len(self._members) >= self.config.max_batch
            ):
                sealed.append(self._seal_locked())
        for group in sealed:
            self._dispatch(group)

    def submit_group(self, members: Sequence[BatchMember]) -> None:
        """Admit an explicit batch; dispatch it immediately (deterministic).

        Any group already open is dispatched first, as its own group —
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
                groups.append(self._seal_locked())
            chunk: list[BatchMember] = []
            by_key: dict = {}
            for member in members:
                if self.config.coalesce:
                    key = QueryResultCache.key_of(member.query)
                    leader = by_key.get(key)
                    if leader is not None:
                        leader.followers.append(member)
                        continue
                    by_key[key] = member
                chunk.append(member)
                if len(chunk) >= self.config.max_batch:
                    groups.append(self._new_group_locked(chunk))
                    chunk, by_key = [], {}
            if chunk:
                groups.append(self._new_group_locked(chunk))
        for group in groups:
            self._dispatch(group)

    # -- Completion -------------------------------------------------------------

    def done(self) -> None:
        """One dispatched group finished: hand the open group to its worker."""
        with self._lock:
            self._in_flight -= 1
            group = (
                self._seal_locked()
                if self._members and self._in_flight < self._workers
                else None
            )
        if group is not None:
            self._dispatch(group)

    def close(self) -> None:
        """Dispatch any open group and refuse further submissions."""
        with self._lock:
            self._closed = True
            group = self._seal_locked() if self._members else None
        if group is not None:
            self._dispatch(group)

    # -- Sealing ----------------------------------------------------------------

    def _new_group_locked(self, members: list[BatchMember]) -> BatchGroup:
        """Number a group and count it in flight (caller holds the lock)."""
        self._in_flight += 1
        return BatchGroup(next(self._batch_seq), members)

    def _seal_locked(self) -> BatchGroup:
        """Detach the open group for dispatch (caller holds the lock)."""
        group = self._new_group_locked(self._members)
        self._members = []
        self._by_key = {}
        return group
