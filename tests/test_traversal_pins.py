"""The distance-first traversal keeps its answers and its I/O to the block.

:func:`repro.spatial.nearest.incremental_nearest` tests "s matches w" on
raw decoded entries with one integer AND.  That is a speed change only:
the answers must still equal the brute-force oracle, and every query
must read the same blocks and load the same objects as the traversal
that built a ``Rect`` and a ``Signature`` per entry.  The per-query
costs below were recorded from that traversal on the same seeded corpus
and queries; any change to them is a change to the paper's I/O measure.

The module also covers the checks the traversal keeps on every decoded
entry: an inverted MBR raises even when the signature test prunes the
entry, and a node whose signature width differs from the query's raises
:class:`~repro.errors.SignatureLengthError`.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.core import IR2Tree
from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.core.search import brute_force_top_k
from repro.datasets import DatasetConfig, SpatialTextDatasetGenerator
from repro.errors import SignatureLengthError
from repro.spatial import Rect, incremental_nearest
from repro.storage import HEADER_SIZE, InMemoryBlockDevice, PageStore
from repro.text import ExactSignatureFactory

KINDS = ("ir2", "mir2", "rtree")


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


def run_kind(kind, objects):
    """Build one engine; return it with the pinned queries and their executions."""
    engine = SpatialKeywordEngine(index=kind, signature_bytes=8, capacity=8)
    engine.add_all(objects)
    engine.build()
    queries = make_queries(objects, engine.corpus.analyzer)
    return engine, queries, [engine.search(query) for query in queries]


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


def test_inverted_mbr_in_pruned_entry_raises():
    tree = exact_tree()
    root = tree.load_node(tree.root_id)
    slot = [e.child_ref for e in root.entries].index(0)
    image = bytearray(tree.pages.read(tree.root_id))
    # Entry layout: uint32 ref, lo_x, lo_y, hi_x, hi_y, 1 signature byte.
    offset = HEADER_SIZE + slot * (4 + 4 * 8 + 1) + 4
    struct.pack_into("<d", image, offset, 50.0)  # lo_x = 50 > hi_x = 0
    tree.pages.write(tree.root_id, bytes(image))
    # Object 0 is "even": the "odd" query prunes it, and still must not
    # skip the MBR check on its entry.
    with pytest.raises(ValueError, match="inverted rectangle"):
        list(incremental_nearest(tree, (0.0, 0.0), tree.query_mask(["odd"])))


def test_query_mask_of_wrong_length_raises():
    tree = exact_tree()
    wide = ExactSignatureFactory([f"w{i}" for i in range(16)])
    with pytest.raises(SignatureLengthError):
        list(incremental_nearest(tree, (0.0, 0.0), lambda level: wide.for_word("w1")))
