"""Deterministic fault injection for the storage layer.

Durability claims are worthless untested: this module makes the failure
modes a disk can actually exhibit — read/write errors, torn (partial)
writes, silent bit flips — reproducible on demand, so the recovery paths
in :mod:`repro.persist`, :class:`repro.shard.ShardedEngine`, and
:mod:`repro.serve` are exercised by real tests instead of hand-waving.

* :class:`FaultPlan` is a seedable schedule of faults: scripted ordinals
  ("fail the 3rd read"), probabilistic rates, transient vs. permanent
  errors, and a total failure budget ("fail twice, then recover").
* :class:`FaultInjectingDevice` wraps any
  :class:`~repro.storage.block.BlockDevice` and applies a plan to every
  block access, sharing the wrapped device's :class:`IOStats` so the
  paper's access accounting is unchanged.
* :func:`inject_engine_faults` installs such wrappers across all of one
  engine's devices (object file + index structure) in place.
* :func:`retry_transient` is the bounded exponential-backoff retry loop
  the query layers use for :class:`~repro.errors.TransientDeviceError`.
* :class:`SimulatedCrash` / :class:`CrashTimer` simulate a process kill
  at a chosen fault point inside :func:`repro.persist.save_engine`
  (``SimulatedCrash`` derives from :class:`BaseException` so ordinary
  cleanup handlers do not run — exactly like a real crash).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable

from repro.errors import DeviceFaultError, TransientDeviceError
from repro.storage.block import BlockDevice


class SimulatedCrash(BaseException):
    """A process kill simulated at a named fault point.

    Deliberately **not** a :class:`~repro.errors.ReproError` — and not
    even an :class:`Exception` — so that neither library error handling
    nor best-effort cleanup code intercepts it: whatever state is on disk
    when it fires is exactly what a power loss would have left.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at fault point {point!r}")
        self.point = point


class CrashTimer:
    """Fault-point hook that records points and optionally crashes.

    Pass an instance to :func:`repro.persist.saving_fault_hook`.  With
    ``crash_at=None`` it only records the sequence of fault-point labels
    (use one dry run to enumerate them); with ``crash_at=i`` it raises
    :class:`SimulatedCrash` when the ``i``-th point (0-based) is reached.
    """

    def __init__(self, crash_at: int | None = None) -> None:
        self.crash_at = crash_at
        self.points: list[str] = []

    def __call__(self, point: str) -> None:
        index = len(self.points)
        self.points.append(point)
        if self.crash_at is not None and index == self.crash_at:
            raise SimulatedCrash(point)


class FaultPlan:
    """A deterministic, seedable schedule of device faults.

    One plan may be shared by several :class:`FaultInjectingDevice`
    wrappers (e.g. an engine's object and index devices), in which case
    the read/write ordinals count across all of them — "the 5th block
    access anywhere" is a well-defined fault site.

    Args:
        seed: RNG seed for the probabilistic fault draws.
        read_error_rate: probability that any read raises.
        write_error_rate: probability that any write raises.
        bitflip_rate: probability that a read's payload comes back with
            one random bit flipped (silently — no exception).
        fail_read_at: 0-based read ordinals that raise (scripted faults).
        fail_write_at: 0-based write ordinals that raise.
        torn_write_at: 0-based write ordinals that persist only the first
            half of the block and then raise — a torn sector.
        transient: raise :class:`TransientDeviceError` (retryable)
            instead of the permanent :class:`DeviceFaultError`.
        max_failures: stop raising after this many injected failures
            (``None`` = unlimited); models a fault that clears.
    """

    def __init__(
        self,
        seed: int = 0,
        read_error_rate: float = 0.0,
        write_error_rate: float = 0.0,
        bitflip_rate: float = 0.0,
        fail_read_at: tuple[int, ...] | frozenset[int] = (),
        fail_write_at: tuple[int, ...] | frozenset[int] = (),
        torn_write_at: tuple[int, ...] | frozenset[int] = (),
        transient: bool = False,
        max_failures: int | None = None,
    ) -> None:
        self.read_error_rate = read_error_rate
        self.write_error_rate = write_error_rate
        self.bitflip_rate = bitflip_rate
        self.fail_read_at = frozenset(fail_read_at)
        self.fail_write_at = frozenset(fail_write_at)
        self.torn_write_at = frozenset(torn_write_at)
        self.transient = transient
        self.max_failures = max_failures
        self.reads_seen = 0
        self.writes_seen = 0
        self.failures_injected = 0
        self.bitflips_injected = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def disarm(self) -> None:
        """Stop injecting anything further (the fault 'clears')."""
        with self._lock:
            self.read_error_rate = 0.0
            self.write_error_rate = 0.0
            self.bitflip_rate = 0.0
            self.fail_read_at = frozenset()
            self.fail_write_at = frozenset()
            self.torn_write_at = frozenset()

    def _error(self, message: str) -> DeviceFaultError:
        self.failures_injected += 1
        cls = TransientDeviceError if self.transient else DeviceFaultError
        return cls(message)

    def _budget_left(self) -> bool:
        return self.max_failures is None or self.failures_injected < self.max_failures

    def on_read(self, name: str, block_id: int) -> bool:
        """Decide one read's fate; returns True when the payload should
        come back bit-flipped.  Raises to fail the read."""
        with self._lock:
            ordinal = self.reads_seen
            self.reads_seen += 1
            fail = ordinal in self.fail_read_at or (
                self.read_error_rate > 0.0
                and self._rng.random() < self.read_error_rate
            )
            if fail and self._budget_left():
                raise self._error(
                    f"injected read fault on {name} block {block_id} "
                    f"(read #{ordinal})"
                )
            return (
                self.bitflip_rate > 0.0
                and self._rng.random() < self.bitflip_rate
            )

    def on_write(self, name: str, block_id: int) -> bool:
        """Decide one write's fate; returns True for a torn write (the
        caller persists a partial block, then raises via
        :meth:`torn_error`).  Raises directly for a clean write fault."""
        with self._lock:
            ordinal = self.writes_seen
            self.writes_seen += 1
            if ordinal in self.torn_write_at and self._budget_left():
                return True
            fail = ordinal in self.fail_write_at or (
                self.write_error_rate > 0.0
                and self._rng.random() < self.write_error_rate
            )
            if fail and self._budget_left():
                raise self._error(
                    f"injected write fault on {name} block {block_id} "
                    f"(write #{ordinal})"
                )
            return False

    def torn_error(self, name: str, block_id: int) -> DeviceFaultError:
        with self._lock:
            return self._error(
                f"injected torn write on {name} block {block_id}"
            )

    def flip_bit(self, data: bytes) -> bytes:
        """Flip one RNG-chosen bit of ``data`` (silent corruption)."""
        with self._lock:
            self.bitflips_injected += 1
            position = self._rng.randrange(len(data) * 8)
        corrupted = bytearray(data)
        corrupted[position // 8] ^= 1 << (position % 8)
        return bytes(corrupted)


class FaultInjectingDevice(BlockDevice):
    """A block device that fails, tears, and corrupts on schedule.

    Wraps any :class:`BlockDevice`; every counted access consults the
    :class:`FaultPlan` before (writes) or after (reads) delegating to the
    wrapped device.  The wrapper shares the inner device's
    :class:`~repro.storage.iostats.IOStats`, and only the inner device
    records accesses — accounting is identical to running unwrapped.

    Args:
        inner: the device actually holding the blocks.
        plan: the fault schedule; constructed from ``plan_kwargs`` when
            omitted.
        **plan_kwargs: forwarded to :class:`FaultPlan` when ``plan`` is
            omitted.
    """

    def __init__(
        self, inner: BlockDevice, plan: FaultPlan | None = None, **plan_kwargs
    ) -> None:
        super().__init__(
            inner.block_size, inner.stats, name=f"faulty({inner.name})"
        )
        self.inner = inner
        self.plan = plan if plan is not None else FaultPlan(**plan_kwargs)

    @property
    def num_blocks(self) -> int:
        return self.inner.num_blocks

    # Raw hooks delegate uncounted (iter_blocks and friends); the counted
    # read/write paths below are overridden wholesale so the inner device
    # alone does the accounting.
    def _read_raw(self, block_id: int) -> bytes:
        return self.inner._read_raw(block_id)

    def _write_raw(self, block_id: int, data: bytes) -> None:
        self.inner._write_raw(block_id, data)

    def _grow_to(self, num_blocks: int) -> None:
        self.inner._grow_to(num_blocks)

    def truncate(self, num_blocks: int) -> None:
        self.inner.truncate(num_blocks)

    def read_block(
        self, block_id: int, category: str = "data", count: int = 1
    ) -> bytes:
        """Read block by block, in order, each consulting the plan first.

        A fault at block *i* of an extent leaves exactly the blocks before
        *i* charged, and a bit flip lands inside the flipped block.  An
        extent out of range raises before the plan sees any of it.
        """
        self._check_extent(block_id, count)
        pieces = []
        for block in range(block_id, block_id + count):
            flip = self.plan.on_read(self.name, block)
            data = self.inner.read_block(block, category)
            if flip:
                data = self.plan.flip_bit(data)
            pieces.append(data)
        return b"".join(pieces)

    def write_block(self, block_id: int, data: bytes, category: str = "data") -> None:
        torn = self.plan.on_write(self.name, block_id)
        if torn:
            # Persist only the first half of the payload — the sector
            # boundary a power loss actually tears at — then fail.
            self.inner.write_block(block_id, data[: self.block_size // 2], category)
            raise self.plan.torn_error(self.name, block_id)
        self.inner.write_block(block_id, data, category)


def inject_engine_faults(
    engine, plan: FaultPlan | None = None, **plan_kwargs
) -> FaultPlan:
    """Install fault-injecting wrappers over one engine's devices.

    Wraps both the object-file device and the index device of a single
    :class:`~repro.core.engine.SpatialKeywordEngine` **in place** (every
    structure holding a device reference is repointed), sharing one
    :class:`FaultPlan` so access ordinals count across the whole engine.
    For a :class:`~repro.shard.ShardedEngine`, call this per shard —
    per-shard plans are what degradation tests need anyway.

    Returns the (shared) plan, so tests can inspect counters or
    :meth:`~FaultPlan.disarm` it.
    """
    plan = plan if plan is not None else FaultPlan(**plan_kwargs)
    corpus = engine.corpus
    wrapped_objects = FaultInjectingDevice(corpus.device, plan)
    corpus.device = wrapped_objects
    corpus.store.device = wrapped_objects
    index = engine.index
    inner_index = index.device
    wrapped_index = FaultInjectingDevice(inner_index, plan)
    index.device = wrapped_index
    # Repoint every sub-structure that kept its own reference to the
    # index device (page store, inverted index, signature file).
    for attr in ("pages", "index", "sigfile"):
        sub = getattr(index, attr, None)
        if sub is not None and getattr(sub, "device", None) is inner_index:
            sub.device = wrapped_index
    return plan


def retry_transient(
    fn: Callable,
    retries: int = 2,
    backoff_s: float = 0.005,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Callable[[int, TransientDeviceError], None] | None = None,
):
    """Call ``fn``, retrying :class:`TransientDeviceError` with backoff.

    Args:
        fn: zero-argument callable to run.
        retries: maximum number of *re*-tries after the first attempt.
        backoff_s: initial sleep; doubles per retry (bounded overall by
            ``backoff_s * (2**retries - 1)``).
        sleep: injection point for tests (defaults to :func:`time.sleep`).
        on_retry: observer called as ``on_retry(attempt, error)`` once per
            retry actually taken (not for the final, re-raised failure) —
            the metrics layer counts retries through this hook.

    Permanent :class:`~repro.errors.DeviceFaultError` and every other
    exception propagate immediately; the last transient error propagates
    once the retry budget is exhausted.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except TransientDeviceError as exc:
            if attempt >= retries:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(backoff_s * (2 ** attempt))
            attempt += 1
