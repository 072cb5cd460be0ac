"""Unit tests for the disk-resident inverted index."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.storage import InMemoryBlockDevice
from repro.text import InvertedIndex
from repro.text.analyzer import DEFAULT_ANALYZER

DOCS = [
    (0, "tennis court gift shop spa internet"),
    (100, "wireless internet pool golf course"),
    (200, "spa continental suites pool"),
    (300, "sauna pool conference rooms"),
]


@pytest.fixture
def index():
    idx = InvertedIndex(InMemoryBlockDevice(block_size=64), DEFAULT_ANALYZER)
    idx.build(DOCS)
    return idx


class TestBuildAndRetrieve:
    def test_postings_sorted_pointers(self, index):
        assert index.postings("pool") == [100, 200, 300]
        assert index.postings("internet") == [0, 100]

    def test_unknown_term_empty(self, index):
        assert index.postings("helicopter") == []

    def test_terms_and_len(self, index):
        assert "pool" in index
        assert "helicopter" not in index
        assert len(index) == len(set(index.terms()))

    def test_document_frequency_no_io(self, index):
        index.device.stats.reset()
        assert index.document_frequency("pool") == 3
        assert index.device.stats.snapshot().total_reads == 0

    def test_retrieval_costs_extent_reads(self, index):
        index.device.stats.reset()
        index.postings("pool")
        assert index.device.stats.snapshot().category_reads("postings") >= 1

    def test_duplicate_pointers_deduplicated(self):
        idx = InvertedIndex(InMemoryBlockDevice(block_size=64), DEFAULT_ANALYZER)
        idx.build([(1, "pool pool pool")])
        assert idx.postings("pool") == [1]


class TestConjunction:
    def test_paper_example_2_intersection(self, index):
        """{"internet","pool"} -> exactly H2, H7's analogues (Example 2)."""
        assert index.retrieve_conjunction(["internet", "pool"]) == [100]

    def test_single_keyword(self, index):
        assert index.retrieve_conjunction(["spa"]) == [0, 200]

    def test_disjoint_keywords_empty(self, index):
        assert index.retrieve_conjunction(["tennis", "sauna"]) == []

    def test_unknown_keyword_short_circuits(self, index):
        index.device.stats.reset()
        assert index.retrieve_conjunction(["zzz", "pool"]) == []
        # The missing term is fetched first (shortest list) => no reads at
        # all for the existing keyword's list.
        assert index.device.stats.snapshot().category_reads("postings") == 0

    def test_multiword_keyword_split(self, index):
        assert index.retrieve_conjunction(["wireless internet"]) == [100]

    def test_empty_keywords_rejected(self, index):
        with pytest.raises(QueryError):
            index.retrieve_conjunction([])


class TestMaintenance:
    def test_add_document(self, index):
        index.add(400, "new pool lounge")
        assert index.postings("pool") == [100, 200, 300, 400]
        assert index.postings("lounge") == [400]

    def test_add_is_idempotent_per_pointer(self, index):
        index.add(100, "pool")
        assert index.postings("pool") == [100, 200, 300]

    def test_remove_document(self, index):
        index.remove(200, DOCS[2][1])
        assert index.postings("pool") == [100, 300]
        assert index.postings("suites") == []
        assert "suites" not in index

    def test_remove_unknown_pointer_noop(self, index):
        index.remove(999, "pool")
        assert index.postings("pool") == [100, 200, 300]

    def test_long_posting_list_spans_blocks(self):
        idx = InvertedIndex(InMemoryBlockDevice(block_size=64), DEFAULT_ANALYZER)
        idx.build([(i * 10, "crowded") for i in range(100)])
        postings = idx.postings("crowded")
        assert postings == [i * 10 for i in range(100)]
        idx.device.stats.reset()
        idx.postings("crowded")
        stats = idx.device.stats
        assert stats.random_reads == 1
        assert stats.sequential_reads >= 5  # 400 bytes over 64-byte blocks


class TestFootprint:
    def test_size_accounts_postings_and_lexicon(self, index):
        total_postings = sum(
            index.document_frequency(term) for term in index.terms()
        )
        assert index.postings_bytes == 4 * total_postings
        assert index.lexicon_bytes > 0
        expected = index.postings_bytes + index.lexicon_bytes
        assert index.size_bytes == expected
        assert index.size_mb == pytest.approx(expected / (1024 * 1024))

    def test_updates_create_dead_space(self, index):
        assert index.dead_bytes == 0
        index.add(500, "pool")  # rewrites the pool list at the log tail
        assert index.dead_bytes > 0

    def test_compact_reclaims_dead_space(self, index):
        before = {term: index.postings(term) for term in sorted(index.terms())}
        index.add(500, "pool spa")
        index.remove(500, "pool spa")
        assert index.dead_bytes > 0
        index.compact()
        assert index.dead_bytes == 0
        after = {term: index.postings(term) for term in sorted(index.terms())}
        assert after == before

    def test_small_lists_share_blocks(self):
        """Byte packing: many tiny lists occupy far fewer blocks than one
        block per term."""
        idx = InvertedIndex(InMemoryBlockDevice(block_size=4096), DEFAULT_ANALYZER)
        idx.build([(i, f"term{i}") for i in range(100)])  # 100 4-byte lists
        assert idx.device.num_blocks <= 2


class TestGallopingIntersection:
    def test_basic(self):
        from repro.text.inverted_index import intersect_sorted

        assert intersect_sorted([1, 3, 5], [2, 3, 4, 5, 6]) == [3, 5]

    def test_disjoint(self):
        from repro.text.inverted_index import intersect_sorted

        assert intersect_sorted([1, 2], [3, 4]) == []

    def test_empty_sides(self):
        from repro.text.inverted_index import intersect_sorted

        assert intersect_sorted([], [1, 2]) == []
        assert intersect_sorted([1, 2], []) == []

    def test_skewed_lengths(self):
        from repro.text.inverted_index import intersect_sorted

        long = list(range(0, 100_000, 3))
        short = [9, 300, 3_003, 99_999]
        expected = sorted(set(short) & set(long))
        assert intersect_sorted(short, long) == expected
        assert intersect_sorted(long, short) == expected
