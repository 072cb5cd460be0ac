"""Hierarchical query tracing: span trees with I/O event attribution.

The flat per-query :class:`repro.serve.tracing.TraceSpan` says *that* a
query cost 400 block reads; this module says *why*.  A :class:`Trace` is
a tree of :class:`Span` objects — one root per query, one child per
shard fan-out, one per engine search, one per search phase — and each
span carries instant :class:`SpanEvent` records for the fine-grained
work the paper's evaluation (Section VI) argues about: node reads
annotated with their tree level, entries pruned by the signature test,
object verifications with their false-positive outcome, and every block
access tagged random/sequential (cross-checkable against
:class:`repro.storage.iostats.IOCounts`).

Context propagation is thread-local: the span stack is the ``spans`` list
of the thread's :class:`~repro.storage.iostats.IOScope`, beside its I/O
collectors and shared-read session.  :func:`start_span` opens a child of
the current span, :func:`activate` re-parents a worker thread onto a
span created elsewhere (the service's query root), and :func:`add_event`
attaches an instant event to whatever span is current.  Every hook is a
no-op returning immediately when no trace is active on the thread, so
instrumented hot paths stay cheap with tracing off.  The storage layer
records its block-read, block-write, shared-read and object-load events
straight onto the innermost span of that stack, and only while it is
non-empty (see :mod:`repro.storage.iostats`).

Traces export two ways:

* :func:`chrome_trace_events` — Chrome trace-event JSON (``ph``/``ts``/
  ``dur``/``pid``/``tid``), loadable in Perfetto / ``chrome://tracing``;
  :func:`validate_chrome_events` asserts the schema and strict
  parent/child interval nesting;
* :func:`repro.obs.tracereport.render_trace` — the ``repro trace`` text
  tree ("level 1: 14 nodes visited, 9 entries pruned by signature").

:class:`QueryTracer` is the sampling policy the serving layer wires in:
every-Nth query is sampled, and — when a slow-query threshold is set —
every query is traced but only sampled or slow ones are *retained*, so
slow queries always link to a span tree by trace ID.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator

from repro.storage import iostats as _iostats

# The storage layer records its own events (block reads and writes,
# shared-read hits, object loads) on the innermost span of the thread's
# scope; their names live beside the counters they reconcile with.
from repro.storage.iostats import (
    EVT_BLOCK_READ,
    EVT_BLOCK_WRITE,
    EVT_OBJECT_LOAD,
    EVT_SHARED_READ,
    PATTERN_RANDOM,
    PATTERN_SEQUENTIAL,
)

#: Instant-event names emitted by the instrumented index layers.
EVT_NODE_READ = "node-read"
EVT_SIG_PRUNE = "signature-prune"
EVT_OBJECT_VERIFY = "object-verify"


@dataclass
class SpanEvent:
    """One instant event inside a span (a point, not an interval)."""

    name: str
    ts: float
    attrs: dict

    def to_dict(self, origin: float = 0.0) -> dict:
        return {
            "name": self.name,
            "ts_ms": (self.ts - origin) * 1000.0,
            "attrs": dict(self.attrs),
        }


class Span:
    """One node of a trace's span tree.

    Spans are created through :meth:`Trace.new_span` (or the
    :func:`start_span` context manager) and must be finished exactly
    once.  Events and annotations are appended by the thread the span is
    active on; the containing :class:`Trace` serializes span creation.

    Attributes:
        trace: owning trace.
        span_id: id unique within the trace (root is 1).
        parent_id: parent span id (None for the root).
        name: human-readable label ("query", "shard-2", "traverse", ...).
        category: coarse group ("query", "shard", "engine", "phase",
            "service") — the Chrome export's ``cat`` field.
        tid: OS thread id the span ran on (Chrome's lane).
        start: perf-counter start time.
        end: perf-counter end time (None while open).
        attrs: JSON-safe annotations.
        events: instant events recorded while the span was current.
    """

    __slots__ = (
        "trace", "span_id", "parent_id", "name", "category", "tid",
        "start", "end", "attrs", "events",
    )

    def __init__(
        self,
        trace: "Trace",
        span_id: int,
        parent_id: int | None,
        name: str,
        category: str = "",
        start: float | None = None,
        end: float | None = None,
        tid: int | None = None,
        attrs: dict | None = None,
    ) -> None:
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.tid = tid if tid is not None else threading.get_ident()
        self.start = start if start is not None else time.perf_counter()
        self.end = end
        self.attrs = dict(attrs or {})
        self.events: list[SpanEvent] = []

    def event(self, name: str, **attrs) -> None:
        """Record one instant event on this span."""
        self.events.append(SpanEvent(name, time.perf_counter(), attrs))

    def annotate(self, **attrs) -> None:
        """Merge annotations into the span's attributes."""
        self.attrs.update(attrs)

    def finish(self, end: float | None = None) -> None:
        """Close the span (idempotent; keeps the first end time)."""
        if self.end is None:
            self.end = end if end is not None else time.perf_counter()

    @property
    def duration_ms(self) -> float:
        """Span duration in milliseconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start) * 1000.0

    def to_dict(self, origin: float = 0.0) -> dict:
        """JSON-serializable view with times relative to ``origin``."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_ms": (self.start - origin) * 1000.0,
            "duration_ms": self.duration_ms,
            "tid": self.tid,
            "attrs": dict(self.attrs),
            "events": [event.to_dict(origin) for event in self.events],
        }


class Trace:
    """One query's span tree: the root span plus all of its descendants.

    Span creation is thread-safe (threads that activate the same span
    may open children of it concurrently); each individual span is then
    owned by the thread it is active on.
    """

    def __init__(self, trace_id: str | None = None, sampled: bool = True) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.sampled = sampled
        self.slow = False
        self._lock = threading.Lock()
        self._next_id = 1
        self.spans: list[Span] = []

    def new_span(
        self,
        name: str,
        category: str = "",
        parent: Span | None = None,
        start: float | None = None,
        end: float | None = None,
        tid: int | None = None,
        **attrs,
    ) -> Span:
        """Create (and register) a new span.

        Passing ``end`` creates an already-finished span — used to
        synthesize phase intervals from flat timestamps after the fact.
        """
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(
                self,
                span_id,
                parent.span_id if parent is not None else None,
                name,
                category=category,
                start=start,
                end=end,
                tid=tid,
                attrs=attrs,
            )
            self.spans.append(span)
        return span

    @property
    def root(self) -> Span | None:
        """The first span created (the query's root), or None when empty."""
        return self.spans[0] if self.spans else None

    @property
    def duration_ms(self) -> float:
        """Root span duration (0.0 for an empty or unfinished trace)."""
        root = self.root
        return root.duration_ms if root is not None else 0.0

    def children_of(self, span: Span) -> list[Span]:
        """Direct children of ``span``, in start order."""
        kids = [s for s in self.spans if s.parent_id == span.span_id]
        kids.sort(key=lambda s: (s.start, s.span_id))
        return kids

    def find(self, name: str) -> list[Span]:
        """Every span with the given name."""
        return [s for s in self.spans if s.name == name]

    def iter_events(self, name: str | None = None) -> Iterator[tuple[Span, SpanEvent]]:
        """Yield ``(span, event)`` pairs, optionally filtered by name."""
        for span in self.spans:
            for event in span.events:
                if name is None or event.name == name:
                    yield span, event

    def as_dict(self) -> dict:
        """JSON-serializable payload (times relative to the root start)."""
        root = self.root
        origin = root.start if root is not None else 0.0
        return {
            "trace_id": self.trace_id,
            "sampled": self.sampled,
            "slow": self.slow,
            "duration_ms": self.duration_ms,
            "spans": [span.to_dict(origin) for span in self.spans],
        }


# -- Thread-local context propagation -------------------------------------------

def _stack() -> list[Span]:
    """This thread's span stack: the ``spans`` of its I/O scope."""
    return _iostats.current_scope().spans


def current_span() -> Span | None:
    """The span active on this thread, or None (the fast path)."""
    stack = _iostats.current_scope().spans
    return stack[-1] if stack else None


#: The one context an untraced :func:`start_span` or ``activate(None)``
#: returns: entering it yields None and exiting it does nothing, so an
#: untraced call builds no generator context of its own.
_UNTRACED = nullcontext()


def activate(span: Span | None) -> AbstractContextManager[Span | None]:
    """Make ``span`` current on this thread without finishing it on exit.

    The cross-thread propagation primitive: a service worker activates
    the root span created on the submitting thread, then opens its own
    children under it.  ``activate(None)`` is a no-op, so call sites
    stay branch-free.
    """
    if span is None:
        return _UNTRACED
    return _activated(span)


@contextmanager
def _activated(span: Span) -> Iterator[Span]:
    stack = _stack()
    stack.append(span)
    try:
        yield span
    finally:
        stack.pop()


def start_span(
    name: str, category: str = "", **attrs
) -> AbstractContextManager[Span | None]:
    """Open a child of the current span; no-op (yields None) if untraced."""
    parent = current_span()
    if parent is None:
        return _UNTRACED
    return _child_span(parent, name, category, attrs)


@contextmanager
def _child_span(parent: Span, name: str, category: str, attrs: dict) -> Iterator[Span]:
    span = parent.trace.new_span(name, category=category, parent=parent, **attrs)
    stack = _stack()
    stack.append(span)
    try:
        yield span
    finally:
        stack.pop()
        span.finish()


def add_event(name: str, **attrs) -> None:
    """Record an instant event on the current span (no-op if untraced)."""
    span = current_span()
    if span is not None:
        span.event(name, **attrs)


@contextmanager
def trace_query(name: str = "query", trace: Trace | None = None, **attrs) -> Iterator[Trace]:
    """Run a block under a fresh root span; yields the :class:`Trace`.

    The direct-engine entry point (the ``repro trace`` CLI)::

        with trace_query("query", k=10) as trace:
            execution = engine.search(query)
        print(render_trace(trace))
    """
    trace = trace if trace is not None else Trace()
    root = trace.new_span(name, category="query", **attrs)
    stack = _stack()
    stack.append(root)
    try:
        yield trace
    finally:
        stack.pop()
        root.finish()


# -- Chrome trace-event export ---------------------------------------------------

def chrome_trace_events(traces, origin: float | None = None) -> list[dict]:
    """Flatten traces into Chrome trace-event JSON objects.

    All spans share one monotonic clock, so a single ``origin`` (the
    earliest span start by default) keeps concurrent queries correctly
    interleaved per thread lane instead of stacking every trace at t=0.

    Complete spans become ``ph: "X"`` events; instant span events become
    ``ph: "i"`` thread-scoped instants.  ``args`` carries the trace and
    span ids plus every annotation, so the tree is reconstructible from
    the file alone.
    """
    traces = list(traces)
    pid = os.getpid()
    spans = [span for trace in traces for span in trace.spans]
    if origin is None:
        origin = min((span.start for span in spans), default=0.0)
    events: list[dict] = []
    for trace in traces:
        for span in trace.spans:
            end = span.end if span.end is not None else span.start
            args = {
                "trace_id": trace.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
            }
            args.update(span.attrs)
            events.append({
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": max(0.0, end - span.start) * 1e6,
                "pid": pid,
                "tid": span.tid,
                "args": args,
            })
            for event in span.events:
                events.append({
                    "name": event.name,
                    "cat": span.category or "span",
                    "ph": "i",
                    "s": "t",
                    "ts": (event.ts - origin) * 1e6,
                    "pid": pid,
                    "tid": span.tid,
                    "args": dict(
                        event.attrs,
                        trace_id=trace.trace_id,
                        span_id=span.span_id,
                    ),
                })
    return events


#: Fields every Chrome trace event must carry.
_REQUIRED_FIELDS = ("name", "ph", "ts", "pid", "tid")

#: Interval-comparison slack in microseconds (float conversion noise).
_EPS_US = 1e-6


def validate_chrome_events(events: list[dict]) -> None:
    """Assert trace-event schema and strict parent/child nesting.

    Raises ``ValueError`` naming the first offending event when:

    * an event misses a required field (``name``/``ph``/``ts``/``pid``/
      ``tid``; ``dur`` for complete events, ``s`` for instants);
    * two complete events on the same thread lane partially overlap
      (intervals must be nested or disjoint — Chrome renders anything
      else as garbage);
    * a span's interval escapes its parent's, or its ``parent_id``
      dangles.

    Used by the schema test suite and the CI perf-smoke job.
    """
    if not isinstance(events, list) or not events:
        raise ValueError("trace-event payload must be a non-empty list")
    complete_by_lane: dict = {}
    spans_by_id: dict = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        for fname in _REQUIRED_FIELDS:
            if fname not in event:
                raise ValueError(f"event {i} ({event.get('name')!r}) missing {fname!r}")
        ph = event["ph"]
        if ph == "X":
            if "dur" not in event or event["dur"] < 0:
                raise ValueError(
                    f"complete event {i} ({event['name']!r}) needs dur >= 0"
                )
            complete_by_lane.setdefault(
                (event["pid"], event["tid"]), []
            ).append(event)
            args = event.get("args") or {}
            if "span_id" in args:
                spans_by_id[(args.get("trace_id"), args["span_id"])] = event
        elif ph == "i":
            if "s" not in event:
                raise ValueError(f"instant event {i} ({event['name']!r}) missing 's'")
        else:
            raise ValueError(f"event {i} has unsupported phase {ph!r}")
    for lane, lane_events in complete_by_lane.items():
        lane_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[tuple[float, float, str]] = []
        for event in lane_events:
            start = event["ts"]
            end = start + event["dur"]
            while stack and stack[-1][1] <= start + _EPS_US:
                stack.pop()
            if stack and end > stack[-1][1] + _EPS_US:
                raise ValueError(
                    f"span {event['name']!r} [{start:.1f}, {end:.1f}] on tid "
                    f"{lane[1]} partially overlaps {stack[-1][2]!r} "
                    f"(ends {stack[-1][1]:.1f})"
                )
            stack.append((start, end, event["name"]))
    for (trace_id, _), event in spans_by_id.items():
        args = event["args"]
        parent_id = args.get("parent_id")
        if parent_id is None:
            continue
        parent = spans_by_id.get((trace_id, parent_id))
        if parent is None:
            raise ValueError(
                f"span {event['name']!r} references missing parent {parent_id}"
            )
        start, end = event["ts"], event["ts"] + event["dur"]
        pstart, pend = parent["ts"], parent["ts"] + parent["dur"]
        if start + _EPS_US < pstart or end > pend + _EPS_US:
            raise ValueError(
                f"span {event['name']!r} [{start:.1f}, {end:.1f}] escapes "
                f"parent {parent['name']!r} [{pstart:.1f}, {pend:.1f}]"
            )


def atomic_write_json(path: str, payload: dict) -> None:
    """Write JSON via tmp-file + fsync + rename (the persist protocol).

    A reader never observes a truncated file: either the old content or
    the complete new one.
    """
    nonce = uuid.uuid4().hex[:8]
    tmp = f"{path}.tmp-{nonce}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - error-path cleanup
            try:
                os.remove(tmp)
            except OSError:
                pass


def dump_chrome_trace(path: str, traces, extra: dict | None = None) -> None:
    """Write traces as one Chrome trace-event JSON file (atomically)."""
    payload = {
        "traceEvents": chrome_trace_events(traces),
        "displayTimeUnit": "ms",
        "otherData": dict(extra or {}),
    }
    atomic_write_json(path, payload)


# -- Sampling policy -------------------------------------------------------------

class QueryTracer:
    """Decides which queries get a span tree and which trees are kept.

    Two dials:

    * ``sample_every`` — every Nth query (the first of each stride) is
      *sampled*: traced and retained unconditionally.  0 disables
      periodic sampling.
    * ``slow_query_ms`` — when set, **every** query is traced, but a
      non-sampled trace is retained only if its root latency reaches the
      threshold.  This is what lets the slow-query log always link to a
      span tree; the cost is span bookkeeping on every query, so leave
      it None for maximum-throughput deployments and rely on sampling.

    Retained traces live in a bounded buffer; when it overflows, the
    oldest *non-slow* trace is evicted first, so slow-query evidence
    survives a flood of routine samples.  :class:`repro.serve.QueryService`
    fills ``slow_query_ms`` from its own ``--slow-query-ms`` threshold
    when the tracer is attached without one.
    """

    def __init__(
        self,
        sample_every: int = 16,
        slow_query_ms: float | None = None,
        capacity: int = 64,
    ) -> None:
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0 (0 disables sampling)")
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        if slow_query_ms is not None and slow_query_ms < 0:
            raise ValueError("slow_query_ms must be >= 0 (or None)")
        self.sample_every = sample_every
        self.slow_query_ms = slow_query_ms
        self.capacity = capacity
        self._lock = threading.Lock()
        self._seen = 0
        self._kept: list[Trace] = []
        self._dropped = 0

    def begin(self, name: str = "query", start: float | None = None, **attrs) -> Trace | None:
        """Start a trace for the next query, or return None (untraced).

        The root span is created on the calling thread (the query
        worker); the caller activates it, runs the query, finishes it,
        and hands the trace back through :meth:`commit`.
        """
        with self._lock:
            seen = self._seen
            self._seen += 1
        sampled = self.sample_every > 0 and seen % self.sample_every == 0
        if not sampled and self.slow_query_ms is None:
            return None
        trace = Trace(sampled=sampled)
        trace.new_span(name, category="query", start=start, **attrs)
        return trace

    def commit(self, trace: Trace, total_ms: float) -> bool:
        """Retention decision for a finished trace; True when kept."""
        slow = self.slow_query_ms is not None and total_ms >= self.slow_query_ms
        if not trace.sampled and not slow:
            return False
        trace.slow = slow
        with self._lock:
            self._kept.append(trace)
            if len(self._kept) > self.capacity:
                for i, kept in enumerate(self._kept):
                    if not kept.slow:
                        del self._kept[i]
                        break
                else:
                    del self._kept[0]
                self._dropped += 1
        return True

    def traces(self) -> list[Trace]:
        """Snapshot of the retained traces, oldest first."""
        with self._lock:
            return list(self._kept)

    def get(self, trace_id: str) -> Trace | None:
        """Look one retained trace up by id."""
        with self._lock:
            for trace in self._kept:
                if trace.trace_id == trace_id:
                    return trace
        return None

    @property
    def seen(self) -> int:
        """Queries offered to the tracer over its lifetime."""
        with self._lock:
            return self._seen

    @property
    def dropped(self) -> int:
        """Retained traces later evicted by the capacity bound."""
        with self._lock:
            return self._dropped

    def chrome_events(self) -> list[dict]:
        """Chrome trace events across every retained trace."""
        return chrome_trace_events(self.traces())

    def dump_chrome(self, path: str, extra: dict | None = None) -> None:
        """Write the retained traces as one Chrome trace-event file."""
        meta = {
            "sample_every": self.sample_every,
            "slow_query_ms": self.slow_query_ms,
            "queries_seen": self.seen,
            "traces_retained": len(self.traces()),
            "traces_dropped": self.dropped,
        }
        meta.update(extra or {})
        dump_chrome_trace(path, self.traces(), extra=meta)
