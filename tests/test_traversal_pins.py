"""The tree traversals keep their answers and their I/O to the block.

:func:`repro.spatial.nearest.incremental_nearest` (distance-first) and
:func:`repro.core.search_general.ranked_top_k` (§5.3 ranked) test
"s matches w" on raw decoded entries, one integer AND of the entry's
signature bits per query mask.  That is a speed change only: the answers
must still equal the brute-force oracles, and every query must read the
same blocks and load the same objects as the traversals that built a
``Rect`` and a ``Signature`` per entry.  The per-query costs below were
recorded from those traversals on the same seeded corpus and queries;
any change to them is a change to the paper's I/O measure.

The module also covers the checks that run on every decoded entry: an
image with an inverted MBR raises on every read, through either
traversal and through ``read_decoded``, even when the signature test would
prune the entry, and is never interned; and a node whose signature width
differs from a query mask's raises
:class:`~repro.errors.SignatureLengthError` in both traversals.
"""

from __future__ import annotations

import random
import struct
from dataclasses import replace

import pytest

from repro.core import IR2Tree
from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.core.ranking import DistanceDecayRanking
from repro.core.search import brute_force_top_k
from repro.core.search_general import brute_force_ranked, ranked_top_k
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.errors import SignatureLengthError
from repro.spatial import Rect, incremental_nearest
from repro.storage import HEADER_SIZE, InMemoryBlockDevice, PageStore
from repro.text import ExactSignatureFactory, Vocabulary
from repro.text.analyzer import DEFAULT_ANALYZER

KINDS = ("ir2", "mir2", "rtree")
RANKED_KINDS = ("ir2", "mir2")
RANKING = DistanceDecayRanking(half_distance=10.0)


def make_objects():
    config = DatasetConfig(
        name="traversal-pins",
        n_objects=400,
        vocabulary_size=120,
        avg_unique_words=6.0,
        clusters=6,
        cluster_std=10.0,
        extent=((0.0, 100.0), (0.0, 100.0)),
        seed=23,
    )
    return SpatialTextDatasetGenerator(config).generate()


def make_queries(objects, analyzer):
    """Eight seeded queries: keywords from one real object, every fourth an area."""
    rng = random.Random(5)
    queries = []
    for i in range(8):
        terms = sorted(analyzer.terms(rng.choice(objects).text))
        keywords = rng.sample(terms, min(len(terms), 1 + i % 3))
        x, y = rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)
        if i % 4 == 3:
            area = Rect((x - 5.0, y - 5.0), (x + 5.0, y + 5.0))
            queries.append(SpatialKeywordQuery.of_area(area, keywords, k=5))
        else:
            queries.append(SpatialKeywordQuery.of((x, y), keywords, k=5))
    return queries


def query_costs(execution) -> tuple:
    """``(random, sequential, by_category, objects_inspected)`` of one query."""
    io = execution.io
    return (
        io.random_reads,
        io.sequential_reads,
        {category: tuple(counts) for category, counts in sorted(io.by_category.items())},
        execution.objects_inspected,
    )


def build(kind, objects):
    engine = SpatialKeywordEngine(index=kind, signature_bytes=8, capacity=8)
    engine.add_all(objects)
    engine.build()
    return engine


def run_kind(kind, objects):
    """Build one engine; return it with the pinned queries and their executions."""
    engine = build(kind, objects)
    queries = make_queries(objects, engine.corpus.analyzer)
    return engine, queries, [engine.search(query) for query in queries]


def run_ranked(kind, objects):
    """The pinned queries, ranked by :data:`RANKING`, point and area alike.

    The index runs them directly: the query API takes no ranked area
    query, and the tree traversal ranks against an area all the same.
    """
    engine = build(kind, objects)
    queries = make_queries(objects, engine.corpus.analyzer)
    executions = [engine.index.execute_ranked(query, RANKING) for query in queries]
    return engine, queries, executions


#: Per-query costs of the pinned queries, recorded from the traversal
#: that built a ``Rect`` and a ``Signature`` for every decoded entry.
PINNED = {
    "ir2": [
        (32, 0, {"node": (24, 0, 0, 0), "object": (8, 0, 0, 0)}, 8),
        (34, 2, {"node": (27, 0, 0, 0), "object": (7, 2, 0, 0)}, 9),
        (39, 4, {"node": (36, 3, 0, 0), "object": (3, 1, 0, 0)}, 4),
        (31, 5, {"node": (27, 1, 0, 0), "object": (4, 4, 0, 0)}, 8),
        (23, 1, {"node": (16, 0, 0, 0), "object": (7, 1, 0, 0)}, 8),
        (54, 1, {"node": (46, 0, 0, 0), "object": (8, 1, 0, 0)}, 9),
        (10, 2, {"node": (6, 0, 0, 0), "object": (4, 2, 0, 0)}, 6),
        (23, 4, {"node": (19, 2, 0, 0), "object": (4, 2, 0, 0)}, 6),
    ],
    "mir2": [
        (23, 0, {"node": (16, 0, 0, 0), "object": (7, 0, 0, 0)}, 7),
        (21, 0, {"node": (15, 0, 0, 0), "object": (6, 0, 0, 0)}, 6),
        (25, 4, {"node": (22, 3, 0, 0), "object": (3, 1, 0, 0)}, 4),
        (19, 4, {"node": (16, 1, 0, 0), "object": (3, 3, 0, 0)}, 6),
        (20, 1, {"node": (14, 0, 0, 0), "object": (6, 1, 0, 0)}, 7),
        (14, 0, {"node": (12, 0, 0, 0), "object": (2, 0, 0, 0)}, 2),
        (10, 2, {"node": (6, 0, 0, 0), "object": (4, 2, 0, 0)}, 6),
        (23, 4, {"node": (19, 2, 0, 0), "object": (4, 2, 0, 0)}, 6),
    ],
    "rtree": [
        (69, 6, {"node": (25, 0, 0, 0), "object": (44, 6, 0, 0)}, 49),
        (250, 28, {"node": (68, 0, 0, 0), "object": (182, 28, 0, 0)}, 207),
        (443, 64, {"node": (98, 3, 0, 0), "object": (345, 61, 0, 0)}, 400),
        (149, 16, {"node": (46, 1, 0, 0), "object": (103, 15, 0, 0)}, 116),
        (83, 7, {"node": (23, 0, 0, 0), "object": (60, 7, 0, 0)}, 66),
        (433, 74, {"node": (99, 2, 0, 0), "object": (334, 72, 0, 0)}, 400),
        (16, 1, {"node": (6, 0, 0, 0), "object": (10, 1, 0, 0)}, 11),
        (86, 13, {"node": (28, 2, 0, 0), "object": (58, 11, 0, 0)}, 68),
    ],
}


#: Per-query costs of the same queries ranked by :data:`RANKING`,
#: recorded from the ranked traversal that loaded each node as ``Entry``
#: and ``Rect`` objects and tested each term through ``matched_terms``.
PINNED_RANKED = {
    "ir2": [
        (147, 11, {"node": (86, 1, 0, 0), "object": (61, 10, 0, 0)}, 70),
        (64, 2, {"node": (41, 0, 0, 0), "object": (23, 2, 0, 0)}, 25),
        (54, 5, {"node": (33, 2, 0, 0), "object": (21, 3, 0, 0)}, 24),
        (57, 8, {"node": (43, 3, 0, 0), "object": (14, 5, 0, 0)}, 18),
        (93, 6, {"node": (51, 0, 0, 0), "object": (42, 6, 0, 0)}, 48),
        (116, 9, {"node": (66, 0, 0, 0), "object": (50, 9, 0, 0)}, 59),
        (67, 5, {"node": (34, 0, 0, 0), "object": (33, 5, 0, 0)}, 38),
        (114, 15, {"node": (50, 4, 0, 0), "object": (64, 11, 0, 0)}, 74),
    ],
    "mir2": [
        (108, 12, {"node": (58, 1, 0, 0), "object": (50, 11, 0, 0)}, 60),
        (47, 0, {"node": (27, 0, 0, 0), "object": (20, 0, 0, 0)}, 20),
        (47, 6, {"node": (28, 2, 0, 0), "object": (19, 4, 0, 0)}, 23),
        (39, 4, {"node": (26, 1, 0, 0), "object": (13, 3, 0, 0)}, 15),
        (89, 5, {"node": (47, 0, 0, 0), "object": (42, 5, 0, 0)}, 47),
        (82, 9, {"node": (40, 1, 0, 0), "object": (42, 8, 0, 0)}, 50),
        (66, 5, {"node": (33, 0, 0, 0), "object": (33, 5, 0, 0)}, 38),
        (114, 15, {"node": (50, 4, 0, 0), "object": (64, 11, 0, 0)}, 74),
    ],
}


@pytest.fixture(scope="module")
def objects():
    return make_objects()


@pytest.mark.parametrize("kind", KINDS)
def test_answers_equal_oracle(kind, objects):
    engine, queries, executions = run_kind(kind, objects)
    for query, execution in zip(queries, executions):
        expected = brute_force_top_k(objects, engine.corpus.analyzer, query)
        got = [(r.obj.oid, r.distance) for r in execution.results]
        assert got == [(r.obj.oid, r.distance) for r in expected], query


@pytest.mark.parametrize("kind", KINDS)
def test_per_query_io_unchanged(kind, objects):
    _, _, executions = run_kind(kind, objects)
    assert [query_costs(execution) for execution in executions] == PINNED[kind]


@pytest.mark.parametrize("kind", RANKED_KINDS)
def test_ranked_scores_equal_oracle(kind, objects):
    engine, queries, executions = run_ranked(kind, objects)
    analyzer, vocabulary = engine.corpus.analyzer, engine.corpus.vocabulary
    for query, execution in zip(queries, executions):
        oracle = brute_force_ranked(objects, analyzer, vocabulary, query, RANKING)
        every = brute_force_ranked(
            objects, analyzer, vocabulary, replace(query, k=len(objects)), RANKING
        )
        score_of = {r.obj.oid: (r.score, r.ir_score, r.distance) for r in every}
        got = execution.results
        assert len(got) == query.k, query
        assert [r.score for r in got] == [r.score for r in oracle], query
        # Ties at equal score may order differently; each score is exact.
        assert all(
            score_of[r.obj.oid] == (r.score, r.ir_score, r.distance) for r in got
        ), query


@pytest.mark.parametrize("kind", RANKED_KINDS)
def test_ranked_per_query_io_unchanged(kind, objects):
    _, queries, executions = run_ranked(kind, objects)
    assert any(query.area is not None for query in queries)
    assert [query_costs(execution) for execution in executions] == PINNED_RANKED[kind]


def exact_tree():
    """A one-leaf IR2-Tree over exact signatures: "odd" marks odd pointers."""
    tree = IR2Tree(
        PageStore(InMemoryBlockDevice()),
        ExactSignatureFactory(["even", "odd"]),
        capacity=4,
    )
    for i in range(4):
        tree.insert_object(i, (float(i), 0.0), {"odd" if i % 2 else "even"})
    assert tree.height == 1
    return tree


def invert_mbr_of_even_object(tree):
    """Rewrite the root image so object 0's entry has ``lo_x > hi_x``."""
    root = tree.read_decoded(tree.root_id)
    slot = [ref for ref, _coords, _sig in root.entries].index(0)
    image = bytearray(tree.pages.read(tree.root_id))
    # Entry layout: uint32 ref, lo_x, lo_y, hi_x, hi_y, 1 signature byte.
    offset = HEADER_SIZE + slot * (4 + 4 * 8 + 1) + 4
    struct.pack_into("<d", image, offset, 50.0)  # lo_x = 50 > hi_x = 0
    tree.pages.write(tree.root_id, bytes(image))
    return bytes(image)


def ranked(tree, keywords):
    """Ranked top-2 over ``tree``; the root read comes before any object load."""
    query = SpatialKeywordQuery.of((0.0, 0.0), keywords, k=2)
    return ranked_top_k(tree, None, DEFAULT_ANALYZER, Vocabulary(), query, RANKING)


def test_inverted_mbr_in_pruned_entry_raises():
    tree = exact_tree()
    invert_mbr_of_even_object(tree)
    # Object 0 is "even": the "odd" query prunes it, and still must not
    # skip the MBR check on its entry.
    with pytest.raises(ValueError, match="inverted rectangle"):
        list(incremental_nearest(tree, (0.0, 0.0), tree.query_mask(["odd"])))


READ_PATHS = {
    "incremental_nearest": lambda tree: list(
        incremental_nearest(tree, (0.0, 0.0), tree.query_mask(["odd"]))
    ),
    "ranked_top_k": lambda tree: ranked(tree, ["odd"]),
    "read_decoded": lambda tree: tree.read_decoded(tree.root_id),
}


@pytest.mark.parametrize("path", sorted(READ_PATHS))
def test_inverted_mbr_raises_on_every_read_and_is_never_interned(path):
    tree = exact_tree()
    image = invert_mbr_of_even_object(tree)
    size = len(tree.node_intern)
    for _ in range(2):
        with pytest.raises(ValueError, match="inverted rectangle"):
            READ_PATHS[path](tree)
    assert len(tree.node_intern) == size
    assert tree.node_intern.get((tree.dims, image)) is None


def test_query_mask_of_wrong_length_raises():
    tree = exact_tree()
    wide = ExactSignatureFactory([f"w{i}" for i in range(16)])
    with pytest.raises(SignatureLengthError):
        list(incremental_nearest(tree, (0.0, 0.0), lambda level: wide.for_word("w1")))


def test_ranked_term_mask_of_wrong_length_raises(monkeypatch):
    tree = exact_tree()
    wide = ExactSignatureFactory([f"w{i}" for i in range(16)])
    monkeypatch.setattr(
        tree, "query_mask", lambda terms: lambda level: wide.for_word("w1")
    )
    with pytest.raises(SignatureLengthError):
        ranked(tree, ["odd"])
