"""One thread-local I/O scope: collectors, shared-read session and spans.

Every counted access consults the calling thread's
:class:`repro.storage.iostats.IOScope` once: it tallies the scope's
``collectors``, serves from its ``session`` and forwards trace events
only while its ``spans`` stack is non-empty.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import trace as qtrace
from repro.obs.trace import EVT_BLOCK_READ, PATTERN_RANDOM, PATTERN_SEQUENTIAL
from repro.storage import InMemoryBlockDevice, iostats
from repro.storage.iostats import collecting_io, current_scope
from repro.storage.sharedread import SharedReadSession, activate_session, current_session


def device_of(blocks: int) -> InMemoryBlockDevice:
    device = InMemoryBlockDevice(block_size=8)
    device.write_extent(0, bytes(8 * blocks))
    device.stats.reset()
    return device


class TestCollectors:
    def test_nested_collectors_each_see_every_event_once(self):
        device = device_of(6)
        with collecting_io() as outer:
            device.read_extent(0, 2)
            with collecting_io() as middle:
                with collecting_io() as inner:
                    device.read_extent(2, 3)
                    device.stats.record_object_load(2)
                device.read_block(5)
            device.write_block(0, b"w")
        assert (inner.random_reads, inner.sequential_reads) == (0, 3)
        assert inner.objects_loaded == 2
        assert (middle.random_reads, middle.sequential_reads) == (0, 4)
        assert (outer.random_reads, outer.sequential_reads) == (1, 5)
        assert outer.total_writes == 1 and middle.total_writes == 0
        assert outer.objects_loaded == 2
        assert device.stats.total_reads == outer.total_reads

    def test_equal_collectors_are_removed_by_identity(self):
        scope = current_scope()
        with collecting_io() as outer:
            with collecting_io() as inner:
                assert inner == outer  # equal counters, distinct objects
                assert scope.collectors[-2:] == [outer, inner]
            assert scope.collectors[-1] is outer
        assert all(collector is not outer for collector in scope.collectors)

    def test_an_exception_inside_propagates_and_unwinds(self):
        device = device_of(2)
        scope = current_scope()
        before = list(scope.collectors)
        with pytest.raises(RuntimeError, match="boom"):
            with collecting_io() as io:
                device.read_extent(0, 2)
                raise RuntimeError("boom")
        assert io.total_reads == 2
        assert scope.collectors == before

    def test_another_threads_collector_never_sees_this_thread(self):
        device = device_of(4)
        ready, finish = threading.Event(), threading.Event()
        seen = {}

        def other():
            with collecting_io() as io:
                ready.set()
                finish.wait(10)
            seen["reads"] = io.total_reads

        thread = threading.Thread(target=other)
        thread.start()
        ready.wait(10)
        with collecting_io() as mine:
            device.read_extent(0, 4)
        finish.set()
        thread.join(10)
        assert not thread.is_alive()
        assert mine.total_reads == 4
        assert seen["reads"] == 0


class TestSessions:
    def test_nested_sessions_restore_the_outer_one(self):
        outer, inner = SharedReadSession(), SharedReadSession()
        assert current_session() is None
        with activate_session(outer):
            with activate_session(inner):
                assert current_session() is inner
                with activate_session(None):
                    assert current_session() is inner
            assert current_session() is outer
        assert current_session() is None

    def test_a_session_is_restored_after_an_exception(self):
        session = SharedReadSession()
        with pytest.raises(KeyError):
            with activate_session(session):
                raise KeyError("x")
        assert current_session() is None


class TestTraceSinks:
    def test_an_untraced_read_never_calls_the_block_sink(self, monkeypatch):
        calls = []
        monkeypatch.setattr(iostats, "_TRACE_BLOCK_SINK", lambda *args: calls.append(args))
        monkeypatch.setattr(iostats, "_TRACE_OBJECT_SINK", lambda *args: calls.append(args))
        monkeypatch.setattr(iostats, "_TRACE_SHARED_SINK", lambda *args: calls.append(args))
        device = device_of(3)
        device.read_extent(0, 3)
        device.write_block(1, b"x")
        device.stats.record_object_load()
        session = SharedReadSession()
        with activate_session(session):
            device.read_block(0)
            device.read_block(0)  # a shared hit
        assert session.hits == 1
        assert calls == []

    def test_a_traced_read_emits_one_event_per_block(self):
        device = device_of(4)
        with qtrace.trace_query("scope") as trace:
            assert current_scope().spans == [trace.root]
            device.read_extent(1, 3, "node")
        assert current_scope().spans == []
        events = [
            (event.attrs["block"], event.attrs["pattern"])
            for _, event in trace.iter_events(EVT_BLOCK_READ)
        ]
        assert events == [
            (1, PATTERN_RANDOM),
            (2, PATTERN_SEQUENTIAL),
            (3, PATTERN_SEQUENTIAL),
        ]

    def test_spans_are_per_thread(self):
        seen = {}

        def probe():
            seen["span"] = qtrace.current_span()
            seen["spans"] = list(current_scope().spans)

        with qtrace.trace_query("main"):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(10)
        assert not thread.is_alive()
        assert seen == {"span": None, "spans": []}
