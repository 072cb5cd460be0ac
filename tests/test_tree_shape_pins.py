"""Tree maintenance keeps its node images, byte for byte.

A seeded insert-then-delete sequence runs on the plain R-Tree, the
IR2-Tree and the MIR2-Tree, each under the quadratic and the linear
split.  After every operation the test hashes every node image (read off
the books through ``pages.read_uncounted``) together with ``root_id``,
``height``, ``size`` and the node device's and object device's reads
and writes for that operation, and chains those per-operation records
into one SHA-256 digest.  The STR bulk load and the explicit Figure-2
layout are pinned the same way.

The digests below were recorded from the maintenance code that wrapped
every node in ``Node``/``Entry``/``Rect`` objects.  Any change to them
is a change to the trees' shapes, their signatures, or the paper's I/O
measure of maintenance (Figs. 5 and 6).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core import Corpus, IR2Tree, MIR2Tree
from repro.core.builder import BulkItem, bulk_load
from repro.datasets import figure1_hotels, figure2_layout
from repro.model import SpatialObject
from repro.spatial import LinearSplit, QuadraticSplit, Rect, RTree, build_from_layout
from repro.storage import InMemoryBlockDevice, PageStore
from repro.text import ExactSignatureFactory, HashSignatureFactory

KINDS = ("rtree", "ir2", "mir2")
SPLITS = {"quadratic": QuadraticSplit, "linear": LinearSplit}
CAPACITY = 6
N_INSERTS = 120
N_DELETES = 80


def make_corpus() -> Corpus:
    rng = random.Random(41)
    corpus = Corpus()
    for oid in range(N_INSERTS):
        text = " ".join(f"w{rng.randrange(60)}" for _ in range(5))
        point = (round(rng.uniform(0, 100), 3), round(rng.uniform(0, 100), 3))
        corpus.add(SpatialObject(oid, point, text))
    return corpus


def make_tree(kind: str, corpus: Corpus, split=None) -> RTree:
    pages = PageStore(InMemoryBlockDevice())
    if kind == "rtree":
        return RTree(pages, capacity=CAPACITY, split_strategy=split)
    if kind == "ir2":
        return IR2Tree(
            pages, HashSignatureFactory(4), capacity=CAPACITY, split_strategy=split
        )
    return MIR2Tree(
        pages, (2, 4, 8), corpus.term_resolver, capacity=CAPACITY, split_strategy=split
    )


def entry_rect(kind: str, obj: SpatialObject) -> Rect:
    """The plain R-Tree stores small boxes, so its areas are not all zero."""
    if kind != "rtree":
        return Rect.from_point(obj.point)
    x, y = obj.point
    side = 0.25 + (obj.oid % 7) * 0.5
    return Rect((x, y), (x + side, y + side / 2))


class Recorder:
    """Chains one record per operation into a running SHA-256 digest."""

    def __init__(self, tree: RTree, corpus: Corpus) -> None:
        self.tree = tree
        self.devices = (tree.pages.device, corpus.device)
        self.last = self._counts()
        self.chain = hashlib.sha256()

    def _counts(self) -> tuple:
        return tuple(
            (s.random_reads, s.sequential_reads, s.random_writes, s.sequential_writes)
            for s in (device.stats for device in self.devices)
        )

    def record(self, label: str) -> None:
        tree = self.tree
        counts = self._counts()
        delta = tuple(
            tuple(now - then for now, then in zip(current, previous))
            for current, previous in zip(counts, self.last)
        )
        self.last = counts
        self.chain.update(
            repr(
                (label, image_digests(tree), tree.root_id, tree.height, tree.size, delta)
            ).encode()
        )

    def hexdigest(self) -> str:
        return self.chain.hexdigest()


def image_digests(tree: RTree) -> list[tuple[int, str]]:
    """``(node_id, sha256 of its image)`` for every node the store holds."""
    return [
        (node_id, hashlib.sha256(tree.pages.read_uncounted(node_id)).hexdigest())
        for node_id in sorted(tree.pages.node_ids())
    ]


def images_digest(tree: RTree) -> str:
    return hashlib.sha256(
        repr((image_digests(tree), tree.root_id, tree.height, tree.size)).encode()
    ).hexdigest()


def run_sequence(kind: str, split_name: str) -> tuple[str, str, tuple]:
    corpus = make_corpus()
    tree = make_tree(kind, corpus, SPLITS[split_name]())
    items = list(corpus.iter_items())
    recorder = Recorder(tree, corpus)
    for pointer, obj in items:
        rect = entry_rect(kind, obj)
        if kind == "rtree":
            tree.insert(pointer, rect)
        else:
            tree.insert_object(pointer, obj.point, corpus.analyzer.terms(obj.text))
        recorder.record(f"insert {pointer}")
    after_inserts = recorder.hexdigest()
    rng = random.Random(7)
    victims = rng.sample(items, N_DELETES)
    for step, (pointer, obj) in enumerate(victims):
        assert tree.delete(pointer, entry_rect(kind, obj))
        recorder.record(f"delete {pointer}")
        if step % 20 == 0:
            # A pointer the tree holds, at a rectangle it was not stored
            # under: FindLeaf searches and finds nothing.
            miss = Rect.from_point((obj.point[0] + 0.001, obj.point[1]))
            assert not tree.delete(victims[-1][0], miss)
            recorder.record(f"miss {pointer}")
    tree.validate()
    shape = (tree.root_id, tree.height, tree.size, tree.node_count())
    return after_inserts, recorder.hexdigest(), shape


#: ``(kind, split) -> (digest after the inserts, digest after the deletes,
#: (root_id, height, size, node count) at the end)``.
SEQUENCE_PINS = {
    ("rtree", "linear"): (
        "c1611d06449a996d66ab8e17dd0eab20db355ed9afb134a01c0db9a9d0e26252",
        "b913cc4fd12fe99112ab7e3e4dc37a4ea961a9ead287f06f939906f09ad37498",
        (9, 3, 40, 20),
    ),
    ("rtree", "quadratic"): (
        "d7e641ddaf8a00288cb241eab575067155987cfe94b0c750a45892ce027d1bd7",
        "35daefcbf68053aa33be485933f750bb58ee0b9245c0ae054891f46c041dca77",
        (34, 3, 40, 19),
    ),
    ("ir2", "linear"): (
        "8a10c85b26a2381115fdf7007484237bb9b6f84a70ed1305547189c318cb13d3",
        "58edfafb994c435b496031c4f8bdbc4bfc63b2218ad1f3d8f0c362f8e0664dbf",
        (36, 3, 40, 22),
    ),
    ("ir2", "quadratic"): (
        "5d68c92535b0512692d338459bd414b8ed6e6c6106de53092891fdd3d5da42de",
        "663cfcfd30cb4f160ccb49ae9e7ed77b50c30c80829a1536dbd159b143548a2b",
        (9, 3, 40, 19),
    ),
    ("mir2", "linear"): (
        "f236947f842b09c19be0790a2ddd826afd8fea6813d67304dc579834821ef785",
        "ca542a2c0616008d355c444e6061255efdb18d84edcf82697ae7498da8832382",
        (36, 3, 40, 22),
    ),
    ("mir2", "quadratic"): (
        "a984daa12f479aaa12b8d1f241609fe42d2d49daa7289f72741961a1bea88d82",
        "5a808412b320802ad0fba59289e1d682747a61efdd70f77204938589b9a03980",
        (9, 3, 40, 19),
    ),
}


@pytest.mark.parametrize("split_name", sorted(SPLITS))
@pytest.mark.parametrize("kind", KINDS)
def test_insert_delete_sequence_keeps_images(kind, split_name):
    assert run_sequence(kind, split_name) == SEQUENCE_PINS[kind, split_name]


def bulk_tree(kind: str) -> RTree:
    corpus = make_corpus()
    tree = make_tree(kind, corpus)
    items = [
        BulkItem(pointer, entry_rect(kind, obj), corpus.analyzer.terms(obj.text))
        for pointer, obj in corpus.iter_items()
    ]
    bulk_load(tree, items)
    tree.validate()
    return tree


#: ``kind -> digest of the bulk-loaded tree's images, root, height, size``.
BULK_PINS = {
    "rtree": "252e484d0e0dbf1dab832add7c85ed21a70a1bd0676498dc4aafe7bf09ff88b8",
    "ir2": "9375fd81fcbf63946023f536d01f43545e9bc1894bd3ee3a85ce36b8c80cce46",
    "mir2": "c5f47ecefde13e54060e80565311a86bd3d60ccc39dee226bfdd8c07c69652f0",
}


@pytest.mark.parametrize("kind", KINDS)
def test_bulk_load_keeps_images(kind):
    assert images_digest(bulk_tree(kind)) == BULK_PINS[kind]


def figure2_tree(signed: bool) -> RTree:
    corpus = Corpus()
    corpus.add_all(figure1_hotels())
    objects = {obj.oid: obj for obj in corpus.objects()}
    pointers = {obj.oid: pointer for pointer, obj in corpus.iter_items()}
    pages = PageStore(InMemoryBlockDevice())
    terms = {oid: corpus.analyzer.terms(obj.text) for oid, obj in objects.items()}
    factory = ExactSignatureFactory(sorted(set().union(*terms.values())))
    empty = IR2Tree(pages, factory, capacity=4) if signed else None

    def leaf_entry(oid):
        signature = factory.for_words(terms[oid]).to_bytes() if signed else b""
        return (pointers[oid], Rect.from_point(objects[oid].point), signature)

    tree, _ = build_from_layout(pages, figure2_layout(leaf_entry), tree=empty)
    tree.validate()
    return tree


#: ``signed -> digest of the Figure-2 tree`` (plain R-Tree, IR2-Tree).
LAYOUT_PINS = {
    False: "daae0c115059032099523cb4aae0d4372ae312ee86ee340e68472223add94100",
    True: "40df7948de9ed7d2c34ac4cd2783d5f8c1bf10602cc17c1c4bde62281e0af8c1",
}


@pytest.mark.parametrize("signed", [False, True])
def test_figure2_layout_keeps_images(signed):
    assert images_digest(figure2_tree(signed)) == LAYOUT_PINS[signed]
