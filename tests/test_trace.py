"""Hierarchical tracing: span trees, event attribution, Chrome export.

The load-bearing suites are the cross-check invariants (the PR's
acceptance oracle): for every index kind and shard count, the instant
events recorded on a query's span tree must reconcile *exactly* with the
execution's independently-collected counters — object-verification
events against ``SearchCounters.false_positives``, block-read events
against the ``IOStats`` random/sequential split — and every Chrome
trace-event export must pass schema and strict-nesting validation.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.obs import trace as qtrace
from repro.obs.trace import (
    EVT_BLOCK_READ,
    EVT_NODE_READ,
    EVT_OBJECT_VERIFY,
    PATTERN_SEQUENTIAL,
    QueryTracer,
    Trace,
    chrome_trace_events,
    dump_chrome_trace,
    trace_query,
    validate_chrome_events,
)
from repro.obs.tracereport import render_trace, summarize_events
from repro.serve import QueryService
from repro.serve.tracing import TraceLog, TraceSpan
from repro.shard import ShardedEngine

KINDS = ("ir2", "mir2", "rtree", "iio", "sig")
SHARD_COUNTS = (1, 2, 5)


def corpus_objects(n_objects=120, seed=23):
    config = DatasetConfig(
        name=f"trace-{n_objects}-{seed}",
        n_objects=n_objects,
        vocabulary_size=200,
        avg_unique_words=8,
        clusters=4,
        seed=seed,
    )
    return SpatialTextDatasetGenerator(config).generate()


def build_engine(objects, kind, n_shards):
    if n_shards == 1:
        engine = SpatialKeywordEngine(index=kind, signature_bytes=4)
    else:
        engine = ShardedEngine(n_shards=n_shards, index=kind, signature_bytes=4)
    for obj in objects:
        engine.add(obj)
    engine.build()
    return engine


def pick_query(objects, k=8):
    # Keywords taken from a real object so the query selects something.
    words = objects[13].text.split()
    return SpatialKeywordQuery.of(objects[13].point, words[:2], k)


def block_read_counts(trace):
    random = sequential = node_blocks = 0
    for _, event in trace.iter_events(EVT_BLOCK_READ):
        if event.attrs["pattern"] == PATTERN_SEQUENTIAL:
            sequential += 1
        else:
            random += 1
        if event.attrs["category"] == "node":
            node_blocks += 1
    return random, sequential, node_blocks


# ---------------------------------------------------------------------------
# Span tree / context propagation core


class TestSpanTree:
    def test_trace_query_builds_root(self):
        with trace_query("query", k=3) as trace:
            assert qtrace.current_span() is trace.root
            with qtrace.start_span("child", category="phase") as child:
                assert child is not None
                assert qtrace.current_span() is child
                qtrace.add_event("ping", value=1)
        assert qtrace.current_span() is None
        root = trace.root
        assert root.name == "query"
        assert root.attrs["k"] == 3
        assert root.end is not None
        (child,) = trace.children_of(root)
        assert child.parent_id == root.span_id
        assert child.events[0].name == "ping"
        assert child.events[0].attrs == {"value": 1}

    def test_untraced_thread_is_noop(self):
        assert qtrace.current_span() is None
        with qtrace.start_span("orphan") as span:
            assert span is None
        qtrace.add_event("nothing")  # must not raise
        with qtrace.activate(None):
            assert qtrace.current_span() is None

    def test_activate_propagates_across_threads(self):
        with trace_query("query") as trace:
            root = trace.root
            seen = {}

            def worker():
                assert qtrace.current_span() is None
                span = trace.new_span("shard-0", category="shard", parent=root)
                with qtrace.activate(span):
                    qtrace.add_event("block-read", block=1)
                    seen["current"] = qtrace.current_span()
                span.finish()

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        shard = trace.find("shard-0")[0]
        assert seen["current"] is shard
        assert shard.parent_id == trace.root.span_id
        assert shard.events[0].name == "block-read"

    def test_span_ids_unique_under_concurrency(self):
        trace = Trace()
        root = trace.new_span("query")
        spans = []

        def spawn():
            for _ in range(50):
                spans.append(trace.new_span("s", parent=root))

        threads = [threading.Thread(target=spawn) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ids = [span.span_id for span in spans]
        assert len(set(ids)) == len(ids)


# ---------------------------------------------------------------------------
# Sampling / retention policy


class TestQueryTracer:
    def test_every_nth_sampling(self):
        tracer = QueryTracer(sample_every=3)
        decisions = [tracer.begin() is not None for _ in range(9)]
        assert decisions == [True, False, False] * 3
        assert tracer.seen == 9

    def test_slow_threshold_traces_everything_retains_selectively(self):
        tracer = QueryTracer(sample_every=0, slow_query_ms=50.0)
        fast = tracer.begin()
        slow = tracer.begin()
        assert fast is not None and slow is not None  # both traced
        assert not tracer.commit(fast, total_ms=10.0)
        assert tracer.commit(slow, total_ms=80.0)
        assert [t.trace_id for t in tracer.traces()] == [slow.trace_id]
        assert slow.slow

    def test_sampling_off_without_slow_threshold(self):
        tracer = QueryTracer(sample_every=0, slow_query_ms=None)
        assert tracer.begin() is None

    def test_eviction_prefers_non_slow(self):
        tracer = QueryTracer(sample_every=1, slow_query_ms=50.0, capacity=2)
        slow = tracer.begin()
        tracer.commit(slow, total_ms=99.0)
        for _ in range(3):
            fast = tracer.begin()
            tracer.commit(fast, total_ms=1.0)
        kept = tracer.traces()
        assert len(kept) == 2
        assert kept[0].trace_id == slow.trace_id  # slow pinned
        assert tracer.dropped == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QueryTracer(sample_every=-1)
        with pytest.raises(ValueError):
            QueryTracer(capacity=0)
        with pytest.raises(ValueError):
            QueryTracer(slow_query_ms=-1.0)


# ---------------------------------------------------------------------------
# The cross-check invariants (satellite: false-positive / IOStats attribution)


class TestEventAttributionInvariants:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_events_reconcile_with_counters(self, kind, n_shards):
        objects = corpus_objects()
        engine = build_engine(objects, kind, n_shards)
        query = pick_query(objects)
        with trace_query("query") as trace:
            execution = engine.search(query)

        verifies = [e for _, e in trace.iter_events(EVT_OBJECT_VERIFY)]
        false_pos = sum(1 for e in verifies if e.attrs["false_positive"])
        assert len(verifies) == execution.objects_inspected
        assert false_pos == execution.false_positive_candidates

        random, sequential, node_blocks = block_read_counts(trace)
        assert random == execution.io.random_reads
        assert sequential == execution.io.sequential_reads
        assert node_blocks == execution.io.category_reads("node")
        assert node_blocks == execution.nodes_visited

        loads = sum(
            e.attrs["count"]
            for _, e in trace.iter_events(qtrace.EVT_OBJECT_LOAD)
        )
        assert loads == execution.io.objects_loaded

    @pytest.mark.parametrize("kind", ("ir2", "mir2"))
    @pytest.mark.parametrize("n_shards", (1, 2))
    def test_ranked_queries_reconcile(self, kind, n_shards):
        objects = corpus_objects(seed=31)
        engine = build_engine(objects, kind, n_shards)
        words = objects[7].text.split()
        with trace_query("query") as trace:
            execution = engine.query_ranked(objects[7].point, words[:2], k=5)

        verifies = [e for _, e in trace.iter_events(EVT_OBJECT_VERIFY)]
        false_pos = sum(1 for e in verifies if e.attrs["false_positive"])
        assert len(verifies) == execution.objects_inspected
        assert false_pos == execution.false_positive_candidates
        random, sequential, _ = block_read_counts(trace)
        assert random == execution.io.random_reads
        assert sequential == execution.io.sequential_reads

    def test_signature_false_positives_are_traced(self):
        # signature_bytes=4 over a 200-word vocabulary saturates the
        # signatures, so a selective query must see false positives —
        # and every one of them must carry a traced verification event.
        objects = corpus_objects(n_objects=200, seed=5)
        engine = build_engine(objects, "ir2", 1)
        query = pick_query(objects, k=6)
        with trace_query("query") as trace:
            execution = engine.search(query)
        assert execution.false_positive_candidates > 0
        false_pos = sum(
            1
            for _, e in trace.iter_events(EVT_OBJECT_VERIFY)
            if e.attrs["false_positive"]
        )
        assert false_pos == execution.false_positive_candidates

    def test_node_reads_carry_tree_levels(self):
        objects = corpus_objects()
        engine = build_engine(objects, "ir2", 1)
        with trace_query("query") as trace:
            engine.search(pick_query(objects))
        node_reads = [e for _, e in trace.iter_events(EVT_NODE_READ)]
        assert node_reads, "tree traversal must record node reads"
        levels = {e.attrs["level"] for e in node_reads}
        assert 0 in levels  # at least one leaf was opened
        summary = summarize_events(trace.spans)
        assert sum(b["nodes"] for b in summary["levels"].values()) == len(
            node_reads
        )

    def test_untraced_execution_records_no_events(self):
        objects = corpus_objects()
        engine = build_engine(objects, "ir2", 1)
        execution = engine.search(pick_query(objects))
        assert execution.results is not None
        assert qtrace.current_span() is None


# ---------------------------------------------------------------------------
# Chrome trace-event export (satellite: schema + nesting validation)


class TestChromeExport:
    def _traced_service_run(self, tmp_path, n_shards=2, workers=3):
        objects = corpus_objects(seed=17)
        engine = build_engine(objects, "ir2", n_shards)
        tracer = QueryTracer(sample_every=1)
        queries = [pick_query(objects, k=4) for _ in range(6)]
        queries += [
            SpatialKeywordQuery.of(obj.point, obj.text.split()[:1], 4)
            for obj in objects[:6]
        ]
        with QueryService(
            engine, workers=workers, cache=False, tracer=tracer
        ) as service:
            service.run_batch(queries)
            path = os.fspath(tmp_path / "chrome.json")
            service.export_chrome_trace(path)
        return tracer, path

    def test_export_passes_schema_and_nesting_validation(self, tmp_path):
        tracer, path = self._traced_service_run(tmp_path)
        events = tracer.chrome_events()
        validate_chrome_events(events)  # must not raise
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        validate_chrome_events(payload["traceEvents"])
        assert payload["otherData"]["queries_seen"] == 12
        assert payload["otherData"]["traces_retained"] == len(tracer.traces())

    def test_required_fields_present_on_every_event(self, tmp_path):
        tracer, _ = self._traced_service_run(tmp_path, n_shards=1, workers=2)
        for event in tracer.chrome_events():
            for field in ("name", "ph", "ts", "pid", "tid"):
                assert field in event
            if event["ph"] == "X":
                assert event["dur"] >= 0
            else:
                assert event["ph"] == "i"
                assert event["s"] == "t"

    def test_children_nest_inside_parents(self):
        with trace_query("query") as trace:
            with qtrace.start_span("child"):
                with qtrace.start_span("grandchild"):
                    time.sleep(0.001)
        events = chrome_trace_events([trace])
        validate_chrome_events(events)
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        for name in ("child", "grandchild"):
            child, parent = by_name[name], by_name["query"]
            assert child["ts"] >= parent["ts"] - 1e-6
            assert (
                child["ts"] + child["dur"]
                <= parent["ts"] + parent["dur"] + 1e-6
            )

    def test_validator_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing 'tid'"):
            validate_chrome_events(
                [{"name": "x", "ph": "X", "ts": 0.0, "pid": 1, "dur": 1.0}]
            )
        with pytest.raises(ValueError, match="needs dur"):
            validate_chrome_events(
                [{"name": "x", "ph": "X", "ts": 0.0, "pid": 1, "tid": 1}]
            )
        with pytest.raises(ValueError, match="missing 's'"):
            validate_chrome_events(
                [{"name": "x", "ph": "i", "ts": 0.0, "pid": 1, "tid": 1}]
            )
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_chrome_events(
                [{"name": "x", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1}]
            )
        with pytest.raises(ValueError):
            validate_chrome_events([])

    def test_validator_rejects_partial_overlap(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "X", "ts": 5.0, "dur": 10.0, "pid": 1, "tid": 1},
        ]
        with pytest.raises(ValueError, match="partially overlaps"):
            validate_chrome_events(events)
        # The same intervals on different lanes are fine.
        events[1]["tid"] = 2
        validate_chrome_events(events)

    def test_validator_rejects_child_escaping_parent(self):
        events = [
            {
                "name": "parent", "ph": "X", "ts": 0.0, "dur": 10.0,
                "pid": 1, "tid": 1,
                "args": {"trace_id": "t", "span_id": 1, "parent_id": None},
            },
            {
                "name": "child", "ph": "X", "ts": 8.0, "dur": 10.0,
                "pid": 1, "tid": 2,
                "args": {"trace_id": "t", "span_id": 2, "parent_id": 1},
            },
        ]
        with pytest.raises(ValueError, match="escapes"):
            validate_chrome_events(events)
        with pytest.raises(ValueError, match="missing parent"):
            validate_chrome_events(
                [dict(events[1], args={"trace_id": "t", "span_id": 2,
                                       "parent_id": 9})]
            )

    def test_dump_is_atomic(self, tmp_path):
        with trace_query("query") as trace:
            pass
        path = os.fspath(tmp_path / "out.json")
        dump_chrome_trace(path, [trace])
        leftovers = [n for n in os.listdir(tmp_path) if ".tmp-" in n]
        assert leftovers == []
        with open(path, encoding="utf-8") as fh:
            validate_chrome_events(json.load(fh)["traceEvents"])


# ---------------------------------------------------------------------------
# Service integration: trace IDs, slow-log linkage, flat-span view


class TestServiceTracing:
    def test_trace_id_links_flat_span_and_slow_log(self):
        objects = corpus_objects(seed=29)
        engine = build_engine(objects, "ir2", 2)
        tracer = QueryTracer(sample_every=1)
        # Threshold 0: every query is "slow", so every slow-log entry
        # must link to a retained span tree.
        with QueryService(
            engine, workers=2, cache=False, slow_query_ms=0.0, tracer=tracer
        ) as service:
            executions = service.run_batch(
                [pick_query(objects, k=4) for _ in range(4)]
            )
            slow_rows = [span.as_dict() for span in service.slow_queries()]
        retained = {trace.trace_id for trace in tracer.traces()}
        for execution in executions:
            assert execution.trace.trace_id in retained
            retained_trace = tracer.get(execution.trace.trace_id)
            assert retained_trace is not None and retained_trace.slow
        assert slow_rows, "slow log must have admitted the queries"
        for row in slow_rows:
            assert row["trace_id"] in retained

    def test_unsampled_queries_have_no_trace_id(self):
        objects = corpus_objects(seed=29)
        engine = build_engine(objects, "ir2", 1)
        tracer = QueryTracer(sample_every=100, slow_query_ms=None)
        with QueryService(
            engine, workers=1, cache=False,
            slow_query_ms=10_000.0, tracer=tracer,
        ) as service:
            first = service.search(pick_query(objects))
            second = service.search(pick_query(objects))
        assert first.trace.trace_id is not None  # query 0 sampled
        assert second.trace.trace_id is None
        assert len(tracer.traces()) == 1

    def test_tracer_inherits_service_slow_threshold(self):
        objects = corpus_objects(seed=29)
        engine = build_engine(objects, "ir2", 1)
        tracer = QueryTracer(sample_every=0)  # no threshold of its own
        with QueryService(
            engine, workers=1, cache=False, slow_query_ms=0.0, tracer=tracer
        ) as service:
            execution = service.search(pick_query(objects))
        assert tracer.slow_query_ms == 0.0
        assert execution.trace.trace_id is not None

    def test_shard_spans_cover_fanout(self):
        objects = corpus_objects(seed=41)
        engine = build_engine(objects, "ir2", 3)
        tracer = QueryTracer(sample_every=1)
        with QueryService(
            engine, workers=1, cache=False, tracer=tracer
        ) as service:
            execution = service.search(pick_query(objects))
        trace = tracer.get(execution.trace.trace_id)
        shard_spans = [s for s in trace.spans if s.category == "shard"]
        assert len(shard_spans) == 3
        assert {s.attrs["shard"] for s in shard_spans} == {0, 1, 2}
        pruned = sum(1 for s in shard_spans if s.attrs.get("pruned"))
        searched = [r for r in execution.shards if not r["pruned"]]
        assert pruned == 3 - len(searched)
        for span in shard_spans:
            assert span.parent_id == trace.root.span_id
        report = render_trace(trace)
        assert "shard-0" in report and "totals:" in report

    def test_service_without_tracer_unchanged(self):
        objects = corpus_objects(seed=29)
        engine = build_engine(objects, "ir2", 1)
        with QueryService(engine, workers=1) as service:
            execution = service.search(pick_query(objects))
            assert execution.trace.trace_id is None
            assert service.traces() == []
            with pytest.raises(Exception):
                service.export_chrome_trace("/tmp/never-written.json")


# ---------------------------------------------------------------------------
# Flat TraceSpan semantics (satellites: search_ms fix, atomic dump)


class TestFlatSpanSatellites:
    def _span(self):
        return TraceSpan(
            query_id=1,
            submitted_at=1.0,
            started_at=2.0,
            lock_acquired_at=3.0,
            search_done_at=7.0,
            finished_at=8.0,
        )

    def test_search_ms_excludes_lock_wait_and_merge(self):
        span = self._span()
        assert span.search_ms == pytest.approx(4000.0)  # lock→search_done
        assert span.work_ms == pytest.approx(6000.0)  # started→finished
        assert span.lock_wait_ms == pytest.approx(1000.0)
        assert span.merge_ms == pytest.approx(1000.0)
        assert span.total_ms == pytest.approx(7000.0)

    def test_search_ms_zero_without_engine_timestamps(self):
        span = TraceSpan(query_id=1, started_at=1.0, finished_at=2.0)
        assert span.search_ms == 0.0
        assert span.work_ms == pytest.approx(1000.0)

    def test_as_dict_keeps_flat_keys_and_adds_new_ones(self):
        payload = self._span().as_dict()
        for key in (
            "query_id", "algorithm", "keywords", "k", "cache",
            "queue_wait_ms", "lock_wait_ms", "engine_ms", "merge_ms",
            "search_ms", "total_ms", "random_reads", "sequential_reads",
            "objects_loaded", "num_results", "retries", "worker", "error",
        ):
            assert key in payload
        assert payload["engine_ms"] == payload["search_ms"]
        assert payload["work_ms"] == pytest.approx(6000.0)
        assert payload["trace_id"] is None

    def test_emit_phases_synthesizes_service_spans(self):
        span = self._span()
        trace = Trace()
        trace.new_span("query", start=span.started_at)
        trace.root.finish(span.finished_at)
        span.emit_phases(trace)
        names = [s.name for s in trace.spans]
        assert names == ["query", "lock-wait", "finalize"]
        lock_wait = trace.find("lock-wait")[0]
        assert lock_wait.start == 2.0 and lock_wait.end == 3.0
        finalize = trace.find("finalize")[0]
        assert finalize.start == 7.0 and finalize.end == 8.0
        validate_chrome_events(chrome_trace_events([trace]))

    def test_dump_json_atomic_and_reports_dropped(self, tmp_path):
        log = TraceLog(capacity=2)
        for i in range(5):
            log.append(TraceSpan(query_id=i))
        path = os.fspath(tmp_path / "trace.json")
        log.dump_json(path, extra={"service": {"queries": 5}})
        leftovers = [n for n in os.listdir(tmp_path) if ".tmp-" in n]
        assert leftovers == []
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["dropped"] == 3
        assert len(payload["spans"]) == 2
        assert payload["service"] == {"queries": 5}
