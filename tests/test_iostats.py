"""Unit tests for random/sequential disk-access accounting."""

from __future__ import annotations

from repro.storage.iostats import IOCounts, IOStats


class TestClassification:
    def test_first_access_is_random(self):
        stats = IOStats()
        assert stats.record_read(5) is False
        assert stats.random_reads == 1
        assert stats.sequential_reads == 0

    def test_next_block_is_sequential(self):
        stats = IOStats()
        stats.record_read(5)
        assert stats.record_read(6) is True
        assert stats.sequential_reads == 1

    def test_same_block_again_is_random(self):
        """Re-reading the same block is not head-contiguous."""
        stats = IOStats()
        stats.record_read(5)
        assert stats.record_read(5) is False
        assert stats.random_reads == 2

    def test_backward_jump_is_random(self):
        stats = IOStats()
        stats.record_read(5)
        assert stats.record_read(4) is False

    def test_write_advances_head_for_reads(self):
        stats = IOStats()
        stats.record_write(9)
        assert stats.record_read(10) is True

    def test_extent_pattern(self):
        """A 4-block extent = 1 random + 3 sequential."""
        stats = IOStats()
        for block in range(10, 14):
            stats.record_read(block)
        assert stats.random_reads == 1
        assert stats.sequential_reads == 3


class TestCategories:
    def test_category_reads_split(self):
        stats = IOStats()
        stats.record_read(1, "node")
        stats.record_read(2, "node")
        stats.record_read(9, "object")
        counts = stats.snapshot()
        assert counts.category_reads("node") == 2
        assert counts.category_reads("object") == 1
        assert counts.category_reads("missing") == 0

    def test_category_random_reads(self):
        stats = IOStats()
        stats.record_read(1, "node")  # random
        stats.record_read(2, "node")  # sequential
        assert stats.snapshot().category_random_reads("node") == 1

    def test_object_loads(self):
        stats = IOStats()
        stats.record_object_load()
        stats.record_object_load(3)
        assert stats.objects_loaded == 4


class TestAggregates:
    def test_totals(self):
        stats = IOStats()
        stats.record_read(0)
        stats.record_read(1)
        stats.record_write(7)
        counts = stats.snapshot()
        assert counts.total_reads == 2
        assert counts.total_writes == 1
        assert counts.total_accesses == 3

    def test_access_totals_count_reads_and_writes(self):
        counts = IOCounts(random_reads=3, sequential_reads=4, random_writes=2,
                          sequential_writes=1)
        assert counts.random_accesses == 5
        assert counts.sequential_accesses == 5

    def test_summary_mentions_counts(self):
        stats = IOStats()
        stats.record_read(0)
        assert "random: 1r/0w" in stats.snapshot().summary()


class TestSnapshotDiffMerge:
    def test_snapshot_is_independent(self):
        stats = IOStats()
        stats.record_read(0)
        snap = stats.snapshot()
        stats.record_read(5)
        assert snap.random_reads == 1
        assert stats.random_reads == 2

    def test_diff(self):
        stats = IOStats()
        stats.record_read(0, "node")
        snap = stats.snapshot()
        stats.record_read(1, "node")
        stats.record_read(9, "object")
        stats.record_object_load()
        delta = stats.snapshot().diff(snap)
        assert delta.sequential_reads == 1
        assert delta.random_reads == 1
        assert delta.category_reads("node") == 1
        assert delta.category_reads("object") == 1
        assert delta.objects_loaded == 1

    def test_diff_with_category_only_in_earlier(self):
        stats = IOStats()
        stats.record_read(0, "tmp")
        snap = stats.snapshot()
        fresh = IOStats()
        delta = fresh.snapshot().diff(snap)
        assert delta.category_reads("tmp") == -1

    def test_merged_with(self):
        a = IOStats()
        a.record_read(0, "node")
        b = IOStats()
        b.record_read(0, "object")
        b.record_read(1, "object")
        merged = a.snapshot().merged_with(b.snapshot())
        assert merged.total_reads == 3
        assert merged.category_reads("node") == 1
        assert merged.category_reads("object") == 2

    def test_reset(self):
        stats = IOStats()
        stats.record_read(3)
        stats.record_object_load()
        stats.reset()
        assert stats.snapshot() == IOCounts()
        assert stats.objects_loaded == 0
        # Head position forgotten: next access is random even at block 4.
        assert stats.record_read(4) is False


class TestConcurrency:
    """Regression: counter increments are read-modify-write sequences and
    used to race; the per-stats lock must lose no counts under contention."""

    def test_no_lost_counts_under_contention(self):
        import threading

        stats = IOStats()
        n_threads, ops_each = 8, 2000

        def hammer(seed: int):
            for i in range(ops_each):
                stats.record_read(seed * ops_each + i, "node")
                if i % 4 == 0:
                    stats.record_write(seed, "node")
                if i % 8 == 0:
                    stats.record_object_load()

        threads = [
            threading.Thread(target=hammer, args=(s,)) for s in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counts = stats.snapshot()
        assert counts.total_reads == n_threads * ops_each
        assert counts.total_writes == n_threads * (ops_each // 4)
        assert counts.objects_loaded == n_threads * (ops_each // 8)
        # Per-category tallies balance the aggregate counters exactly.
        assert counts.category_reads("node") == counts.total_reads

    def test_concurrent_snapshots_are_internally_consistent(self):
        import threading

        stats = IOStats()
        stop = threading.Event()
        failures = []

        def writer():
            block = 0
            while not stop.is_set():
                stats.record_read(block, "node")
                block += 1

        def snapshotter():
            for _ in range(300):
                snap = stats.snapshot()
                if snap.category_reads("node") != snap.total_reads:
                    failures.append("snapshot tore between counters")
                    return

        w = threading.Thread(target=writer)
        s = threading.Thread(target=snapshotter)
        w.start()
        s.start()
        s.join()
        stop.set()
        w.join()
        assert not failures


class TestCollectingIO:
    """Thread-local per-execution collectors (the serving layer's isolation)."""

    def test_collector_sees_this_threads_events(self):
        from repro.storage.iostats import collecting_io

        device_stats = IOStats()
        device_stats.record_read(0)  # before the window: not collected
        with collecting_io() as io:
            device_stats.record_read(10, "node")
            device_stats.record_read(11, "node")
            device_stats.record_object_load(2)
        device_stats.record_read(99)  # after the window: not collected
        counts = io.snapshot()
        assert counts.total_reads == 2
        assert counts.random_reads == 1 and counts.sequential_reads == 1
        assert counts.category_reads("node") == 2
        assert counts.objects_loaded == 2
        assert device_stats.snapshot().total_reads == 4

    def test_collectors_nest(self):
        from repro.storage.iostats import collecting_io

        stats = IOStats()
        with collecting_io() as outer:
            stats.record_read(0)
            with collecting_io() as inner:
                stats.record_read(5)
            stats.record_read(9)
        assert inner.snapshot().total_reads == 1
        assert outer.snapshot().total_reads == 3

    def test_collectors_nest_with_equal_counters(self):
        # Regression: with no I/O between the two entries, inner and outer
        # hold equal counter values at the inner exit; teardown must remove
        # the *inner* collector (by identity), not whichever compares equal.
        from repro.storage.iostats import collecting_io

        stats = IOStats()
        with collecting_io() as outer:
            with collecting_io() as inner:
                stats.record_read(0)
            # The outer collector must still be installed here.
            stats.record_read(10)
        assert inner.snapshot().total_reads == 1
        assert outer.snapshot().total_reads == 2

    def test_sequential_exported_collectors_stay_isolated(self):
        # Regression: two back-to-back collecting_io() windows must each see
        # only their own window's I/O, even though the first collector's
        # counters may equal the second's at teardown time.
        from repro.storage.iostats import collecting_io

        stats = IOStats()
        with collecting_io() as first:
            stats.record_read(0)
            stats.record_read(1)
        with collecting_io() as second:
            stats.record_read(100)
        assert first.snapshot().total_reads == 2
        assert second.snapshot().total_reads == 1

    def test_collector_spans_multiple_devices(self):
        from repro.storage.iostats import collecting_io

        a, b = IOStats(), IOStats()
        with collecting_io() as io:
            a.record_read(0)
            b.record_read(0)
            b.record_write(1)
        assert io.snapshot().total_reads == 2
        assert io.snapshot().total_writes == 1

    def test_collector_is_invisible_to_other_threads(self):
        import threading
        from repro.storage.iostats import collecting_io

        shared = IOStats()
        ready = threading.Barrier(2)
        collected: dict[str, int] = {}

        def worker(name: str, base_block: int):
            with collecting_io() as io:
                ready.wait()
                for i in range(500):
                    shared.record_read(base_block + i)
            collected[name] = io.snapshot().total_reads

        threads = [
            threading.Thread(target=worker, args=("a", 0)),
            threading.Thread(target=worker, args=("b", 100_000)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Each thread's collector saw exactly its own 500 reads, while the
        # shared device counted all 1000.
        assert collected == {"a": 500, "b": 500}
        assert shared.snapshot().total_reads == 1000


class TestIOCounts:
    """The frozen record a counter's snapshot returns."""

    def _stats(self):
        stats = IOStats()
        stats.record_read(0, "node")
        stats.record_read(1, "node")
        stats.record_read(9, "object")
        stats.record_write(20, "object")
        stats.record_object_load(2)
        stats.record_shared_read(4, "node")
        return stats

    def test_counts_match_the_collector(self):
        stats = self._stats()
        counts = stats.snapshot()
        for name in (
            "random_reads", "sequential_reads", "random_writes",
            "sequential_writes", "objects_loaded", "shared_reads",
        ):
            assert getattr(counts, name) == getattr(stats, name), name
        assert (counts.total_reads, counts.total_writes, counts.total_accesses) \
            == (3, 1, 4)
        assert counts.by_category == {
            key: tuple(value) for key, value in stats.by_category.items()
        }
        assert counts.category_reads("node") == 2
        assert counts.category_random_reads("object") == 1
        assert counts.category_reads("missing") == 0
        assert counts.summary() == (
            "random: 2r/1w, sequential: 1r/0w, objects: 2, shared: 1"
        )

    def test_frozen_against_later_events(self):
        stats = self._stats()
        counts = stats.snapshot()
        stats.record_read(30, "node")
        assert counts.total_reads == 3
        assert not hasattr(counts, "__dict__")

    def test_merged_with_sums_records(self):
        a = self._stats().snapshot()
        b = IOStats()
        b.record_read(7, "postings")
        b = b.snapshot()
        merged = a.merged_with(b).merged_with(b)
        assert merged.total_reads == 5
        assert merged.category_reads("postings") == 2
        assert merged.objects_loaded == 2
        assert merged.shared_reads == 1
        assert list(merged.by_category) == ["node", "object", "postings"]
        # A diff undoes a merge, category for category.
        assert merged.diff(b).diff(b).by_category == {
            **a.by_category, "postings": (0, 0, 0, 0)
        }

    def test_query_execution_carries_io_counts(self):
        from repro.core.query import QueryExecution, SpatialKeywordQuery

        query = SpatialKeywordQuery.of((0.0, 0.0), ("pool",), 1)
        counts = self._stats().snapshot()
        execution = QueryExecution(query=query, results=[], io=counts)
        assert execution.io is counts
        assert execution.io.total_reads == 3
        assert QueryExecution(query=query, results=[]).io == IOCounts()
