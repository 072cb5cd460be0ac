"""Span tracer for the traced run, applied from outside the program.

:meth:`Tracer.install` replaces the public callables of each ``repro``
layer with timing wrappers — on the class for methods, and at every
import site for module functions (``repro.spatial.rtree`` imports
``decode_node`` by name, so that binding is replaced too).
:meth:`Tracer.uninstall` puts the originals back.

A span joins its request through the query object passed in: the client
registers every query before sending it, a wrapped call that receives a
registered query opens a span of that request, and calls nested under it
on the same thread inherit the request.  Calls that start on another
thread (a shard fan-out worker) hang under the request's innermost open
span on the thread that started it.  ``TopKMerger.offer`` receives no
query, so a merger joins the request that constructed it.

Spans stay in memory; :func:`analyse` turns them into per-layer self time
(a span's duration minus the part of it its children cover),
:func:`reconcile_engine` checks the request joins against the service's
own timing, and :func:`write_spans` writes the spans out when the run
ends.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: Wrapped callables: (layer, module, qualified name, how the call joins
#: its request).  "query": by its query argument; "inner": by the
#: calling thread's open span; "merger": by the TopKMerger it is called
#: on; "write": a write acknowledgement, outside any read request.
TARGETS = (
    ("maintenance", "repro.serve.maintenance", "EngineVersion.search", "query"),
    ("maintenance", "repro.serve.maintenance", "SnapshotMaintainer.add", "write"),
    ("maintenance", "repro.serve.maintenance", "SnapshotMaintainer.delete", "write"),
    ("shard", "repro.shard.engine", "ShardedEngine.search", "query"),
    ("shard", "repro.shard.merge", "TopKMerger.offer", "merger"),
    ("plan", "repro.plan.planner", "QueryPlanner.decide", "query"),
    ("plan", "repro.plan.planner", "QueryPlanner.observe", "inner"),
    ("core", "repro.core.indexes", "SpatialKeywordIndex.execute", "query"),
    ("core", "repro.core.indexes", "AutoIndex.execute", "query"),
    ("core", "repro.core.indexes", "_RankedTreeIndex.execute_ranked", "query"),
    ("core", "repro.core.indexes", "AutoIndex.execute_ranked", "query"),
    ("core", "repro.core.engine", "SpatialKeywordEngine.stream_results", "query"),
    ("storage", "repro.storage.block", "BlockDevice.read_block", "inner"),
    ("storage", "repro.storage.serialization", "decode_node", "inner"),
    ("storage", "repro.storage.objectstore", "ObjectStore.load", "inner"),
    ("text", "repro.text.inverted_index", "InvertedIndex.postings", "inner"),
    ("text", "repro.text.inverted_index", "InvertedIndex.retrieve_conjunction", "inner"),
    ("text", "repro.text.analyzer", "Analyzer.contains_all", "inner"),
)

#: The call a service worker makes into the pinned engine version for
#: every request that is not answered from the result cache.
ENGINE_ENTRY = "EngineVersion.search"

#: Cache dispositions of a request that calls the engine itself.
ENGINE_CALLED = ("miss", "bypass")

#: Pulling one result from a wrapped stream is core traversal work.
STREAM_NEXT = "SpatialKeywordEngine.stream_results.next"

#: Request id of write acknowledgements (read requests count from 1).
WRITE = 0


class _Local(threading.local):
    def __init__(self) -> None:
        self.stack: list[tuple[int, int]] = []  # (span id, request id)


class Tracer:
    """Wraps the layers, registers requests, and keeps spans in memory."""

    def __init__(self) -> None:
        self.names = [target[2] for target in TARGETS] + [STREAM_NEXT]
        self.layers = [target[0] for target in TARGETS] + ["core"]
        self.spans: list[tuple] = []  # (sid, rid, parent, name, start, end)
        self.decisions: list[tuple[int, str, bool]] = []  # rid, strategy, cached
        self.cost_errors: list[tuple[int, float]] = []  # rid, |est - actual| / actual
        self._ids = itertools.count(WRITE + 1)
        self._local = _Local()
        self._queries: dict[int, tuple[object, int]] = {}
        self._mergers: dict[int, tuple[object, int]] = {}
        self._origin: dict[int, list] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- Requests ---------------------------------------------------------------

    def register(self, query) -> int:
        """A request id for ``query``, which is also its root span id."""
        rid = next(self._ids)
        self._queries[id(query)] = (query, rid)
        return rid

    def _rid_of(self, obj, table) -> int | None:
        entry = table.get(id(obj))
        return entry[1] if entry is not None else None

    def _parent(self, rid: int, stack: list) -> int:
        if stack and stack[-1][1] == rid:
            return stack[-1][0]
        origin = self._origin.get(rid)
        if origin is None:
            if not stack:
                self._origin[rid] = stack
            return rid
        try:
            sid, owner = origin[-1]
        except IndexError:
            return rid
        return sid if owner == rid else rid

    # -- Wrapping -----------------------------------------------------------------

    def install(self) -> None:
        for number, (_, module_name, qualname, join) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            *owner_path, attr = qualname.split(".")
            if owner_path:
                owner = getattr(module, owner_path[0])
                original = owner.__dict__[attr]
                self._replace(owner, attr, original, self._wrap(original, number, join))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(original, number, join)
                for name, loaded in list(sys.modules.items()):
                    if name.startswith("repro") and getattr(loaded, attr, None) is original:
                        self._replace(loaded, attr, original, wrapper)
        merger_class = importlib.import_module("repro.shard.merge").TopKMerger
        init = merger_class.__dict__["__init__"]
        self._replace(merger_class, "__init__", init, self._wrap_merger_init(init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_merger_init(self, init):
        local, mergers = self._local, self._mergers

        def __init__(merger, *args, **kwargs):
            init(merger, *args, **kwargs)
            stack = local.stack
            if stack:
                mergers[id(merger)] = (merger, stack[-1][1])

        return __init__

    def _wrap(self, fn, number: int, join: str):
        local, spans, ids = self._local, self.spans, self._ids
        queries, mergers = self._queries, self._mergers
        parent_of, rid_of = self._parent, self._rid_of
        name = TARGETS[number][2]
        stream = name == "SpatialKeywordEngine.stream_results"
        decide = name == "QueryPlanner.decide"
        observe = name == "QueryPlanner.observe"

        def wrapper(*args, **kwargs):
            stack = local.stack
            if join == "inner":
                if not stack:
                    return fn(*args, **kwargs)  # set-up or a background merge
                parent, rid = stack[-1]
            elif join == "write":
                parent = rid = WRITE
            else:
                table = mergers if join == "merger" else queries
                key = args[0] if join == "merger" else (
                    args[1] if len(args) > 1 else kwargs.get("query")
                )
                rid = rid_of(key, table)
                if rid is None:
                    if not stack:
                        return fn(*args, **kwargs)
                    parent, rid = stack[-1]
                else:
                    parent = parent_of(rid, stack)
            sid = next(ids)
            stack.append((sid, rid))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, rid, parent, number, start, end))
            if rid != WRITE:
                if decide:
                    self.decisions.append((rid, result.strategy, bool(result.cached)))
                elif observe:
                    decision, actual = args[1], args[2]
                    if actual > 0:
                        self.cost_errors.append(
                            (rid, abs(decision.cost_ms - actual) / actual)
                        )
                elif stream:
                    return _TracedStream(self, result, rid)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper


class _TracedStream:
    """A result stream whose every pull is a core span of its request."""

    __slots__ = ("_tracer", "_iterator", "_rid")
    number = len(TARGETS)

    def __init__(self, tracer: Tracer, iterator, rid: int) -> None:
        self._tracer = tracer
        self._iterator = iterator
        self._rid = rid

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        stack = tracer._local.stack
        parent = tracer._parent(self._rid, stack)
        sid = next(tracer._ids)
        stack.append((sid, self._rid))
        start = perf_counter()
        try:
            return next(self._iterator)
        finally:
            end = perf_counter()
            stack.pop()
            tracer.spans.append((sid, self._rid, parent, self.number, start, end))


# -- Analysis ---------------------------------------------------------------------


def _union(intervals) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def _self_and_overlap(start: float, end: float, children) -> tuple[float, float]:
    """Self time within [start, end] and the children's parallel overlap."""
    if not children:
        return end - start, 0.0
    clipped = [
        (max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)
    ]
    covered = _union(clipped)
    overlap = sum(e - s for s, e in children) - _union(children)
    return (end - start) - covered, overlap


def analyse(tracer: Tracer, roots: dict[int, tuple[float, float]]) -> dict:
    """Per-request and per-span self time of the traced read requests.

    ``roots`` maps each analysed read's request id to its client span
    (due or send time to completion); spans of other requests are left
    out.  Returns self-time totals (ms) by layer and by wrapped name,
    call counts by name, each request's serve self time and
    :data:`ENGINE_ENTRY` spans (start, end) directly under its root, the
    summed parallel overlap, the summed client time, and the duration of
    every write acknowledgement.
    """
    children = defaultdict(list)
    for span in tracer.spans:
        children[span[2]].append((span[4], span[5]))
    by_layer = defaultdict(float)
    by_name = defaultdict(float)
    calls = defaultdict(int)
    overlap_total = 0.0
    write_ms = []
    entries = defaultdict(list)
    for sid, rid, parent, number, start, end in tracer.spans:
        if rid == WRITE:
            if parent == WRITE:
                write_ms.append((end - start) * 1000.0)
            continue
        if rid not in roots:
            continue
        self_s, overlap = _self_and_overlap(start, end, children.get(sid, ()))
        name = tracer.names[number]
        if parent == rid and name == ENGINE_ENTRY:
            entries[rid].append((start, end))
        by_layer[tracer.layers[number]] += self_s * 1000.0
        by_name[name] += self_s * 1000.0
        calls[name] += 1
        overlap_total += overlap
    serve_self = {}
    client_total = 0.0
    for rid, (start, end) in roots.items():
        self_s, overlap = _self_and_overlap(start, end, children.get(rid, ()))
        serve_self[rid] = self_s * 1000.0
        by_layer["serve"] += self_s * 1000.0
        overlap_total += overlap
        client_total += (end - start) * 1000.0
    return {
        "by_layer": dict(by_layer),
        "by_name": dict(by_name),
        "calls": dict(calls),
        "serve_self_ms": serve_self,
        "engine_entries": dict(entries),
        "overlap_ms": overlap_total * 1000.0,
        "client_ms": client_total,
        "write_ms": write_ms,
    }


def reconcile_engine(service_spans: dict, entries: dict) -> dict:
    """Check the traced engine calls against the service's own timing.

    ``service_spans`` maps each analysed request id to the service's
    :class:`~repro.serve.tracing.TraceSpan` of that request, and
    ``entries`` to its :data:`ENGINE_ENTRY` spans (from :func:`analyse`).
    A request that called the engine must have exactly one entry span,
    and a cache hit or coalesced request none; ``mismatched`` counts the
    requests that break this.  The service stamps ``search_done_at`` as
    the engine call returns, so the traced call must end there; an
    unbatched request pins its version (``lock_acquired_at``) just
    before the call, so the traced call must start there, while a batch
    member's ``lock_acquired_at`` is its group's and only bounds the
    start from below.  ``error_s`` sums the misses between the two
    clocks and ``engine_s`` the traced calls' durations.  A span joined
    to the wrong request, or a request whose engine call was not traced,
    shows in one or the other.
    """
    mismatched = checked = 0
    error_s = engine_s = 0.0
    for rid, span in service_spans.items():
        calls = entries.get(rid, ())
        if span.cache not in ENGINE_CALLED:
            mismatched += len(calls) > 0
            continue
        if len(calls) != 1:
            mismatched += 1
            continue
        checked += 1
        (start, end), = calls
        engine_s += end - start
        error_s += abs(span.search_done_at - end)
        if span.batch_id is None:
            error_s += abs(start - span.lock_acquired_at)
        else:
            error_s += max(0.0, span.lock_acquired_at - start)
    return {"checked": checked, "mismatched": mismatched,
            "error_s": error_s, "engine_s": engine_s}


def write_spans(tracer: Tracer, roots: dict, path) -> None:
    """Write every span (and each request's client span) as gzipped JSON."""
    payload = {
        "names": tracer.names,
        "layers": tracer.layers,
        "fields": ["sid", "rid", "parent", "name", "start", "end"],
        "requests": [[rid, start, end] for rid, (start, end) in roots.items()],
        "spans": tracer.spans,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
