"""Content-addressed interns: decode and analyze once, fail as uncached.

:class:`repro.storage.intern.Intern` backs four maps: object rows
(``ObjectStore.intern``), node images (``RTree.read_decoded`` through
``Corpus.node_intern``), term sets (``Analyzer.terms``) and token counts
(``Analyzer.document_length``).  A hit must
never hide a fault: corrupted bytes are a different key and decode, or
fail, exactly as they would with no map, and the node-id check runs on
every read.  The maps are bounded, count their drops, and stay
consistent when several threads read and evict at once.
"""

from __future__ import annotations

import random
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.core.ranking import DistanceDecayRanking
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.errors import SerializationError, TreeInvariantError
from repro.obs import MetricsRegistry, export_engine
from repro.spatial import Rect
from repro.spatial import rtree as rtree_module
from repro.storage import FaultPlan, Intern, objectstore
from repro.storage.faults import inject_engine_faults
from repro.storage.objectstore import decode_row
from repro.storage.serialization import decode_node
from repro.text import analyzer as analyzer_module
from repro.text.analyzer import DEFAULT_STOPWORDS, Analyzer


def make_objects(n=300):
    config = DatasetConfig(
        name="interns",
        n_objects=n,
        vocabulary_size=80,
        avg_unique_words=5.0,
        clusters=4,
        cluster_std=10.0,
        extent=((0.0, 100.0), (0.0, 100.0)),
        seed=11,
    )
    return SpatialTextDatasetGenerator(config).generate()


def make_engine(objects=None):
    engine = SpatialKeywordEngine(index="ir2", signature_bytes=8, capacity=8)
    engine.add_all(objects if objects is not None else make_objects())
    engine.build()
    return engine


def make_queries(objects, analyzer, count=24, seed=3):
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        terms = sorted(analyzer.terms(rng.choice(objects).text))
        keywords = rng.sample(terms, min(len(terms), 2))
        point = (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
        queries.append(SpatialKeywordQuery.of(point, keywords, k=5))
    return queries


def node_ids(tree):
    return [node.node_id for node in tree.iter_nodes()]


def entries_of(decoded):
    """``(level, sig_len, entries)`` of a decoded node image."""
    return decoded.level, decoded.sig_len, decoded.entries


def outcome(fn):
    """``("ok", value)`` or ``("raised", exception type)`` of ``fn()``."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return "raised", type(exc)


class TestIntern:
    def test_get_add_and_first_writer_wins(self):
        intern = Intern()
        assert intern.get("a") is None
        first = intern.add("a", [1], capacity=4)
        assert intern.add("a", [1], capacity=4) is first
        assert intern.get("a") is first
        assert len(intern) == 1 and intern.dropped == 0

    def test_eviction_drops_the_oldest_and_counts_it(self):
        intern = Intern()
        for key in range(5):
            intern.add(key, str(key), capacity=3)
        assert len(intern) == 3
        assert intern.dropped == 2
        assert [intern.get(key) for key in range(5)] == [None, None, "2", "3", "4"]

    def test_a_lowered_bound_is_enforced_on_the_next_add(self):
        intern = Intern()
        for key in range(6):
            intern.add(key, key, capacity=10)
        intern.add("new", 0, capacity=2)
        assert len(intern) == 2
        assert intern.dropped == 5
        assert intern.get("new") == 0 and intern.get(5) == 5


class TestNodeIntern:
    def test_engine_trees_share_the_corpus_map_and_repeat_reads_hit(self):
        engine = make_engine()
        tree = engine.index.tree
        assert tree.node_intern is engine.corpus.node_intern
        ids = node_ids(tree)
        first = [tree.read_decoded(node_id) for node_id in ids]
        stats = tree.pages.device.stats
        stats.reset()
        second = [tree.read_decoded(node_id) for node_id in ids]
        # Every read is charged again; the decoded entries are shared.
        assert stats.snapshot().total_reads == sum(
            tree.pages.extent_of(node_id)[1] for node_id in ids
        )
        assert all(a is b for a, b in zip(first, second))

    def test_copies_and_rebuilds_keep_the_map(self):
        from repro.persist import copy_built_engine

        engine = make_engine()
        for clone in (copy_built_engine(engine), engine.clone_empty()):
            assert clone.corpus.node_intern is engine.corpus.node_intern
        copy = copy_built_engine(engine)
        assert copy.index.tree.node_intern is engine.corpus.node_intern

    def test_edited_image_fails_after_its_clean_twin_was_interned(self):
        engine = make_engine()
        tree = engine.index.tree
        device = tree.pages.device
        node_id = node_ids(tree)[-1]
        clean = tree.read_decoded(node_id)
        start, _length = tree.pages.extent_of(node_id)
        block = device._read_raw(start)
        edits = {
            "magic": (b"XX" + block[2:], SerializationError),
            "node id": (
                block[:6] + struct.pack("<I", node_id + 1000) + block[10:],
                TreeInvariantError,
            ),
        }
        for edited, error in edits.values():
            device.write_block(start, edited)
            with pytest.raises(error):
                tree.read_decoded(node_id)
            device.write_block(start, block)
            assert tree.read_decoded(node_id) is clean

    def test_another_nodes_interned_image_still_fails_the_id_check(self, monkeypatch):
        engine = make_engine()
        tree = engine.index.tree
        asked, other = node_ids(tree)[:2]
        tree.read_decoded(other)  # the image that will be returned is interned
        read = tree.pages.read
        monkeypatch.setattr(
            tree.pages, "read", lambda node_id: read(other if node_id == asked else node_id)
        )
        with pytest.raises(TreeInvariantError, match="node id mismatch"):
            tree.read_decoded(asked)

    def test_bitflipped_images_decode_as_they_would_uncached(self, monkeypatch):
        engine = make_engine()
        tree = engine.index.tree
        ids = node_ids(tree)
        for node_id in ids:
            tree.read_decoded(node_id)  # intern every clean image
        plan = inject_engine_faults(engine, FaultPlan(seed=4, bitflip_rate=1.0))
        seen: list[bytes] = []
        read = tree.pages.read

        def spy(node_id):
            image = read(node_id)
            seen.append(image)
            return image

        monkeypatch.setattr(tree.pages, "read", spy)

        def uncached(image, node_id):
            decoded_id, level, _leaf, sig_len, raw = decode_node(image, tree.dims)
            entries = tuple(raw)
            for _ref, coords, _signature in entries:
                Rect.from_coords(coords)  # ValueError on an inverted MBR
            if decoded_id != node_id:
                raise TreeInvariantError("node id mismatch")
            return level, sig_len, entries

        raised = 0
        for _ in range(30):
            for node_id in ids:
                got = outcome(lambda: entries_of(tree.read_decoded(node_id)))
                assert got == outcome(lambda: uncached(seen[-1], node_id))
                raised += got[0] == "raised"
        assert plan.bitflips_injected > 0
        # A flip may land anywhere in the image (most land in padding or
        # a coordinate and decode); that some raise shows hits hid none.
        assert raised > 0

    def test_bound_drops_the_oldest_image_and_counts_it(self, monkeypatch):
        monkeypatch.setattr(rtree_module, "NODE_INTERN_CAPACITY", 2)
        engine = make_engine()
        intern = engine.corpus.node_intern
        dropped = intern.dropped
        ids = node_ids(engine.index.tree)
        assert len(ids) > 3
        for node_id in ids:
            engine.index.tree.read_decoded(node_id)
        assert len(intern) == 2
        assert intern.dropped - dropped >= len(ids) - 2


class TestRowIntern:
    def test_edited_row_fails_after_its_clean_twin_was_interned(self):
        engine = make_engine(make_objects(20))
        store = engine.corpus.store
        pointer = store.pointer_of(5)
        clean = store.load(pointer)
        assert store.load(pointer) is clean
        block_size = store.device.block_size
        block_id, at = divmod(pointer, block_size)
        block = store.device._read_raw(block_id)
        store.device.write_block(block_id, block[:at] + b"x" + block[at + 1 :])
        with pytest.raises(SerializationError):
            store.load(pointer)
        store.device.write_block(block_id, block)
        assert store.load(pointer) is clean

    def test_bitflipped_rows_decode_as_they_would_uncached(self, monkeypatch):
        engine = make_engine(make_objects(60))
        store = engine.corpus.store
        pointers = [store.pointer_of(oid) for oid in range(60)]
        clean = [store.load(pointer) for pointer in pointers]
        inject_engine_faults(engine, FaultPlan(seed=9, bitflip_rate=1.0))
        device = store.device
        seen: list[tuple[int, bytes]] = []
        read_block = device.read_block

        def spy(block_id, category="data"):
            data = read_block(block_id, category)
            seen.append((block_id, data))
            return data

        monkeypatch.setattr(device, "read_block", spy)

        def row_of(pointer, blocks):
            """The row bytes ``load`` assembled from the blocks it read."""
            row = bytearray()
            in_block = pointer % device.block_size
            for _block_id, data in blocks:
                newline = data.find(b"\n", in_block)
                if newline >= 0:
                    return bytes(row + data[in_block : newline + 1])
                row += data[in_block:]
                in_block = 0
            raise AssertionError("row never ended")

        changed = 0
        for _ in range(10):
            for pointer, before in zip(pointers, clean):
                seen.clear()
                got = outcome(lambda: store.load(pointer))
                if got[0] == "raised" and not seen:
                    continue
                row = row_of(pointer, seen)
                expected = outcome(lambda: decode_row(row))
                if expected[0] == "ok" and expected[1].oid != before.oid:
                    continue  # the flip moved the oid: a liveness question
                assert got == expected
                changed += got != ("ok", before)
        assert changed > 0


class TestTermMemo:
    def test_memo_returns_one_frozenset_per_text(self):
        analyzer = Analyzer()
        first = analyzer.terms("Pool spa POOL")
        assert first == frozenset({"pool", "spa"})
        assert isinstance(first, frozenset)
        assert analyzer.terms("Pool spa POOL") is first

    def test_differently_configured_analyzers_never_share(self):
        folding, exact = Analyzer(), Analyzer(lowercase=False)
        assert folding.memo is not exact.memo
        assert folding.terms("Pool") == {"pool"}
        assert exact.terms("Pool") == {"Pool"}
        assert folding.contains_all("Pool", ["pool"])
        assert not exact.contains_all("Pool", ["pool"])

    def test_configuration_is_read_only(self):
        analyzer = Analyzer()
        with pytest.raises(AttributeError):
            analyzer.lowercase = False  # type: ignore[misc]

    def test_bound_drops_the_oldest_text_and_counts_it(self, monkeypatch):
        monkeypatch.setattr(analyzer_module, "TERM_MEMO_CAPACITY", 3)
        analyzer = Analyzer()
        sets = [analyzer.terms(f"word{i} shared") for i in range(5)]
        assert len(analyzer.memo) == 3
        assert analyzer.memo.dropped == 2
        assert analyzer.terms("word4 shared") is sets[4]
        assert analyzer.terms("word0 shared") == sets[0]

    def test_length_memo_is_bounded_and_counts_its_drops(self, monkeypatch):
        monkeypatch.setattr(analyzer_module, "LENGTH_MEMO_CAPACITY", 3)
        analyzer = Analyzer()
        lengths = [analyzer.document_length("w " * i) for i in range(5)]
        assert lengths == list(range(5))
        assert len(analyzer.length_memo) == 3
        assert analyzer.length_memo.dropped == 2
        assert analyzer.document_length("w " * 4) == 4
        assert analyzer.length_memo.get("w " * 4) == 4
        assert analyzer.length_memo.get("") is None

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.lists(
            st.sampled_from(list("abcAB zZ_-,.09\tİßÉéǅ") + ["the", "and", "Ωμ"]),
            max_size=30,
        ).map("".join),
        keywords=st.lists(
            st.lists(st.sampled_from(list("abAB _İ9") + ["the"]), max_size=4).map(
                "".join
            ),
            max_size=4,
        ),
        lowercase=st.booleans(),
        min_token_length=st.integers(min_value=1, max_value=4),
        stopwords=st.sampled_from([None, DEFAULT_STOPWORDS, frozenset({"ab", "B"})]),
    )
    def test_memoized_sets_equal_uncached_tokenization(
        self, text, keywords, lowercase, min_token_length, stopwords
    ):
        analyzer = Analyzer(lowercase, min_token_length, stopwords)
        uncached = frozenset(analyzer.tokens(text))
        assert analyzer.terms(text) == uncached
        assert analyzer.terms(text) == uncached  # the memo hit
        needed = set(analyzer.query_terms(keywords))
        assert analyzer.contains_all(text, keywords) == needed.issubset(uncached)
        # Another configuration of the same text answers from its own memo.
        other = Analyzer(not lowercase, min_token_length, stopwords)
        assert other.terms(text) == frozenset(other.tokens(text))
        assert analyzer.terms(text) == uncached


class TestConcurrentEviction:
    def test_threads_read_and_evict_both_interns(self, monkeypatch):
        """Racing reads at tiny bounds raise nothing and answer correctly.

        The threads also fill the bit slices of the node images they
        share; every slice they keep must equal one built alone.
        """
        monkeypatch.setattr(rtree_module, "NODE_INTERN_CAPACITY", 3)
        monkeypatch.setattr(analyzer_module, "TERM_MEMO_CAPACITY", 3)
        monkeypatch.setattr(analyzer_module, "LENGTH_MEMO_CAPACITY", 3)
        monkeypatch.setattr(objectstore, "INTERN_CAPACITY", 4)
        objects = make_objects()
        engine = make_engine(objects)
        analyzer = Analyzer()  # a private memo, so the bound binds here
        engine.corpus.analyzer = analyzer
        queries = make_queries(objects, analyzer)
        # Ranked scoring reads the length memo as well.
        ranking = DistanceDecayRanking(half_distance=10.0)
        queries += [query.with_ranking(ranking) for query in queries[:6]]
        expected = [engine.search(query).oids for query in queries]
        errors: list[BaseException] = []
        answers: list[list[list[int]]] = [[] for _ in range(6)]
        interned: list[tuple[tuple[int, bytes], rtree_module.DecodedNode]] = []
        add = Intern.add

        def recording_add(intern, key, value, capacity):
            held = add(intern, key, value, capacity)
            if isinstance(held, rtree_module.DecodedNode):
                interned.append((key, held))
            return held

        monkeypatch.setattr(Intern, "add", recording_add)

        def worker(slot: int) -> None:
            try:
                for round_ in range(4):
                    order = queries[slot + round_ :] + queries[: slot + round_]
                    for query in order:
                        answers[slot].append((query, engine.search(query).oids))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        by_query = {id(query): oids for query, oids in zip(queries, expected)}
        for batch in answers:
            assert len(batch) == 4 * len(queries)
            assert all(oids == by_query[id(query)] for query, oids in batch)
        filled = [(key, node) for key, node in interned if node.slices]
        assert len(filled) > 3
        for (dims, image), node in filled:
            alone = rtree_module.decode_entries(image, dims)
            assert node.slices == {bit: alone.survivors([bit]) for bit in node.slices}
        assert len(engine.corpus.node_intern) <= 3
        assert len(analyzer.memo) <= 3
        assert engine.corpus.node_intern.dropped > 0
        assert analyzer.memo.dropped > 0
        assert len(analyzer.length_memo) <= 3
        assert analyzer.length_memo.dropped > 0


class TestExport:
    def test_drop_counters_follow_the_maps(self, monkeypatch):
        monkeypatch.setattr(rtree_module, "NODE_INTERN_CAPACITY", 2)
        monkeypatch.setattr(analyzer_module, "TERM_MEMO_CAPACITY", 2)
        objects = make_objects(80)
        engine = SpatialKeywordEngine(
            index="ir2", signature_bytes=8, capacity=8, analyzer=Analyzer()
        )
        engine.add_all(objects)
        engine.build()
        for query in make_queries(objects, engine.corpus.analyzer, count=8):
            engine.search(query)
        registry = MetricsRegistry()
        export_engine(registry, engine)
        counters = registry.snapshot()["counters"]
        assert counters["storage.node_intern.dropped"] == engine.corpus.node_intern.dropped > 0
        assert counters["text.term_memo.dropped"] == engine.corpus.analyzer.memo.dropped > 0
        assert counters["storage.object_intern.dropped"] == engine.corpus.store.intern.dropped

    def test_length_memo_drops_follow_ranked_scoring(self, monkeypatch):
        monkeypatch.setattr(analyzer_module, "LENGTH_MEMO_CAPACITY", 2)
        objects = make_objects(80)
        engine = SpatialKeywordEngine(
            index="ir2", signature_bytes=8, capacity=8, analyzer=Analyzer()
        )
        engine.add_all(objects)
        engine.build()
        ranking = DistanceDecayRanking(half_distance=10.0)
        for query in make_queries(objects, engine.corpus.analyzer, count=8):
            engine.search(query.with_ranking(ranking))
        registry = MetricsRegistry()
        export_engine(registry, engine)
        counters = registry.snapshot()["counters"]
        memo = engine.corpus.analyzer.length_memo
        assert len(memo) == 2
        assert counters["text.length_memo.dropped"] == memo.dropped > 0
