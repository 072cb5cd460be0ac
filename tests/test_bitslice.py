"""Bit-sliced signatures answer "s matches w" exactly as the per-entry test.

:class:`repro.spatial.rtree.DecodedNode` builds one slice per signature
bit across a node's entries, straight from the node image, keeps at
most a fixed number, and ANDs the slices of a query's set bits.
The survivors must be exactly the entries whose ``bits & mask == mask``
(``bits`` the entry's signature bytes read as a little-endian ``int``),
in entry order, for any width, fill and mask.  Both traversals work
from the slices, so each is checked against a per-entry reference loop
kept here: the distance-first yields and the full ``NNTrace`` event
sequence, and the ranked results with the ``matched`` list of every
entry that reaches an upper bound; under an active trace span, the
signature-prune events of both.
"""

from __future__ import annotations

import heapq
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import search_general
from repro.core.engine import SpatialKeywordEngine
from repro.core.query import SpatialKeywordQuery
from repro.core.ranking import DistanceDecayRanking
from repro.errors import SignatureLengthError
from repro.model import SpatialObject
from repro.obs.trace import EVT_SIG_PRUNE, trace_query
from repro.spatial import incremental_nearest
from repro.spatial.geometry import coords_distance, target_point_distance
from repro.spatial.nearest import NNTrace
from repro.spatial import rtree as rtree_module
from repro.spatial.rtree import SLICES_PER_NODE, bit_positions, decode_entries
from repro.storage.serialization import encode_node
from repro.text.irmodel import ir_score, upper_bound_ir_score

WORDS = ["pool", "spa", "wifi", "bar", "gym", "park", "view", "beach"]
RANKING = DistanceDecayRanking(half_distance=20.0)


def per_entry_survivors(entries, mask):
    """Indices of the entries whose signature covers ``mask``, in order."""
    return [i for i, (_ref, _coords, sig) in enumerate(entries) if as_int(sig) & mask == mask]


def as_int(signature):
    """A signature's bytes as the little-endian ``int`` the masks test."""
    return int.from_bytes(signature, "little")


@st.composite
def nodes_and_masks(draw):
    sig_len = draw(st.integers(min_value=1, max_value=189))
    width = sig_len * 8
    signature = st.integers(min_value=0, max_value=(1 << width) - 1)
    count = draw(st.integers(min_value=0, max_value=113))
    bits = [draw(signature) for _ in range(count)]
    image = encode_node(
        7,
        0,
        True,
        2,
        sig_len,
        [(i, (0.0, 0.0, 1.0, 1.0), b.to_bytes(sig_len, "little")) for i, b in enumerate(bits)],
    )
    sparse = st.lists(
        st.integers(min_value=0, max_value=width - 1), max_size=6
    ).map(lambda chosen: sum(1 << bit for bit in set(chosen)))
    masks = [st.just(0), sparse, signature]
    if bits:
        # Bits an entry has, so some entries survive.
        masks.append(
            st.tuples(st.sampled_from(bits), sparse).map(
                lambda pair: pair[0] & (pair[1] | pair[0] >> 3)
            )
        )
    return image, draw(st.lists(st.one_of(masks), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(case=nodes_and_masks())
def test_slice_survivors_equal_the_per_entry_test(case):
    image, masks = case
    node = decode_entries(image, 2)
    for mask in masks:
        survivors = node.survivors(bit_positions(mask))
        assert bit_positions(survivors) == per_entry_survivors(node.entries, mask)
    # A node keeps a bounded number of slices, each equal to one built alone.
    assert len(node.slices) <= SLICES_PER_NODE
    for bit, sliced in node.slices.items():
        assert decode_entries(image, 2).survivors([bit]) == sliced


def test_slices_past_the_bound_are_built_but_not_kept(monkeypatch):
    monkeypatch.setattr(rtree_module, "SLICES_PER_NODE", 3)
    signatures = [0b1111_0000, 0b0011_1100, 0b1010_1010]
    image = encode_node(
        3,
        0,
        True,
        2,
        1,
        [(i, (0.0, 0.0, 1.0, 1.0), bytes([b])) for i, b in enumerate(signatures)],
    )
    node = decode_entries(image, 2)
    for bit in range(8):
        expected = sum(1 << i for i, b in enumerate(signatures) if b >> bit & 1)
        assert node.survivors([bit]) == expected
    assert sorted(node.slices) == [0, 1, 2]
    assert node.survivors([]) == 0b111


def test_slices_read_a_node_of_more_dimensions():
    signatures = [b"\x01\x80", b"\x81\x00", b"\x80\x80"]
    image = encode_node(
        4, 1, False, 3, 2,
        [(9 + i, (0.0, 0.0, 0.0, 1.0, 1.0, 1.0), sig) for i, sig in enumerate(signatures)],
    )
    node = decode_entries(image, 3)
    assert node.survivors([0]) == 0b011
    assert node.survivors([15]) == 0b101
    assert node.survivors([0, 7]) == 0b010


def test_bit_positions_reads_out_lowest_first():
    assert bit_positions(0) == []
    assert bit_positions(0b1011) == [0, 1, 3]
    assert bit_positions(1 << 1511) == [1511]


# -- Traversals against per-entry reference loops --------------------------------


def span_prunes(trace):
    """``(level, entry, kind)`` of each signature-prune event, in order."""
    return [
        (event.attrs["level"], event.attrs["entry"], event.attrs["kind"])
        for _, event in trace.iter_events(EVT_SIG_PRUNE)
    ]


def reference_nearest(tree, point, query_mask, trace, prunes):
    """The distance-first loop testing each entry's bits on its own."""
    distance_to = coords_distance(point, tree.dims)
    heap = []
    counter = 0

    def push(distance, kind, ref):
        nonlocal counter
        heapq.heappush(heap, (distance, kind, counter, ref))
        counter += 1
        trace.record("enqueue", "node" if kind else "object", ref, distance)

    push(0.0, 1, tree.root_id)
    while heap:
        distance, kind, _, ref = heapq.heappop(heap)
        trace.record("dequeue", "node" if kind else "object", ref, distance)
        if kind == 0:
            yield ref, distance
            continue
        node = tree.read_decoded(ref)
        level, sig_len, entries = node.level, node.sig_len, node.entries
        mask = 0
        if entries:
            query = query_mask(level)
            if query.length_bits != sig_len * 8:
                raise SignatureLengthError(sig_len * 8, query.length_bits)
            mask = query.bits
        for child_ref, coords, sig in entries:
            if as_int(sig) & mask != mask:
                kind_name = "object" if level == 0 else "node"
                trace.record("prune", kind_name, child_ref, distance_to(coords))
                prunes.append((level, child_ref, kind_name))
                continue
            push(distance_to(coords), 0 if level == 0 else 1, child_ref)


def reference_ranked(engine, query, prune_zero_ir, matched_log, prunes):
    """The ranked loop testing each term's bits per entry on its own."""
    tree = engine.index.tree
    corpus = engine.corpus
    analyzer, vocabulary = corpus.analyzer, corpus.vocabulary
    terms = analyzer.query_terms(query.keywords)
    term_masks = [(vocabulary.idf(term), tree.query_mask([term])) for term in terms]
    entry_distance = coords_distance(query.target, tree.dims)
    heap = []
    counter = 0

    def push(priority, kind, payload, distance=0.0):
        nonlocal counter
        heapq.heappush(heap, (-priority, counter, kind, payload, distance))
        counter += 1

    push(math.inf, 0, tree.root_id)
    while heap:
        _, _, kind, payload, _distance = heapq.heappop(heap)
        if kind == 2:
            yield payload
            continue
        if kind == 1:
            obj = corpus.store.load(payload)
            actual_ir = ir_score(obj.text, terms, vocabulary, analyzer)
            if prune_zero_ir and actual_ir == 0.0:
                continue
            actual_distance = target_point_distance(obj.point, query.target)
            push(RANKING(actual_distance, actual_ir), 2, (obj.oid, actual_ir))
            continue
        node = tree.read_decoded(payload)
        level, entries = node.level, node.entries
        for child_ref, coords, sig in entries:
            bits = as_int(sig)
            matched = []
            for weight, mask in term_masks:
                term_bits = mask(level).bits
                if bits & term_bits == term_bits:
                    matched.append(weight)
            if prune_zero_ir and not matched:
                prunes.append((level, child_ref, "object" if level == 0 else "node"))
                continue
            matched_log.append(matched)
            child_distance = entry_distance(coords)
            upper = RANKING(child_distance, upper_bound_ir_score(matched))
            if level == 0:
                push(upper, 1, child_ref, child_distance)
            else:
                push(upper, 0, child_ref)


@st.composite
def engines_and_queries(draw, kind):
    count = draw(st.integers(min_value=0, max_value=60))
    objects = [
        SpatialObject(
            oid,
            (
                draw(st.floats(min_value=0.0, max_value=100.0)),
                draw(st.floats(min_value=0.0, max_value=100.0)),
            ),
            " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4))),
        )
        for oid in range(count)
    ]
    engine = SpatialKeywordEngine(
        index=kind,
        signature_bytes=draw(st.integers(min_value=1, max_value=12)),
        bits_per_word=draw(st.integers(min_value=1, max_value=4)),
        capacity=draw(st.integers(min_value=3, max_value=9)),
    )
    engine.add_all(objects)
    engine.build()
    point = (
        draw(st.floats(min_value=-10.0, max_value=110.0)),
        draw(st.floats(min_value=-10.0, max_value=110.0)),
    )
    # The empty keyword list gives the empty mask.
    keywords = draw(st.lists(st.sampled_from(WORDS + ["absent"]), max_size=3))
    return engine, point, keywords


@pytest.mark.parametrize("kind", ["ir2", "mir2"])
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_nearest_yields_and_trace_equal_the_per_entry_loop(kind, data):
    engine, point, keywords = data.draw(engines_and_queries(kind))
    tree = engine.index.tree
    terms = engine.corpus.analyzer.query_terms(keywords)
    expected_trace, traced = NNTrace(), NNTrace()
    prunes: list[tuple[int, int, str]] = []
    expected = list(
        reference_nearest(tree, point, tree.query_mask(terms), expected_trace, prunes)
    )
    got = list(incremental_nearest(tree, point, tree.query_mask(terms), traced))
    assert got == expected
    assert traced.events == expected_trace.events
    # The untraced loop walks only the survivors and yields the same.
    assert list(incremental_nearest(tree, point, tree.query_mask(terms))) == expected
    with trace_query("nearest") as spans:
        spanned = list(incremental_nearest(tree, point, tree.query_mask(terms)))
    assert spanned == expected
    assert span_prunes(spans) == prunes


@pytest.mark.parametrize("kind", ["ir2", "mir2"])
@pytest.mark.parametrize("prune_zero_ir", [True, False])
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_ranked_results_and_matched_lists_equal_the_per_entry_loop(
    kind, prune_zero_ir, data
):
    engine, point, keywords = data.draw(engines_and_queries(kind))
    # A query needs a keyword; the empty mask is the nearest test's.
    query = SpatialKeywordQuery.of(point, keywords or ["absent"], k=10)
    expected_matched: list[list[float]] = []
    prunes: list[tuple[int, int, str]] = []
    expected = list(
        reference_ranked(engine, query, prune_zero_ir, expected_matched, prunes)
    )
    got_matched: list[list[float]] = []

    def recording_bound(matched):
        got_matched.append(list(matched))
        return upper_bound_ir_score(matched)

    def ranked():
        corpus = engine.corpus
        return [
            (result.obj.oid, result.ir_score)
            for result in search_general.ranked_top_k_iter(
                engine.index.tree,
                corpus.store,
                corpus.analyzer,
                corpus.vocabulary,
                query,
                RANKING,
                prune_zero_ir=prune_zero_ir,
            )
        ]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search_general, "upper_bound_ir_score", recording_bound)
        got = ranked()
        assert (got, got_matched) == (expected, expected_matched)
        # Under a span every entry is walked; the same entries are scored.
        got_matched.clear()
        with trace_query("ranked") as spans:
            spanned = ranked()
    assert (spanned, got_matched) == (expected, expected_matched)
    assert span_prunes(spans) == prunes
