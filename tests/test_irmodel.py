"""Unit and property tests for the IR scoring model and its upper bound."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import Vocabulary, ir_score, tf_idf_score, upper_bound_ir_score
from repro.text.analyzer import DEFAULT_ANALYZER, DEFAULT_STOPWORDS, Analyzer


@pytest.fixture
def vocabulary():
    vocab = Vocabulary()
    vocab.add_document({"pool", "spa", "internet"})
    vocab.add_document({"pool", "sauna"})
    vocab.add_document({"pool", "internet", "golf"})
    return vocab


class TestIrScore:
    def test_no_match_scores_zero(self, vocabulary):
        assert ir_score("sauna golf", ["tennis"], vocabulary, DEFAULT_ANALYZER) == 0.0

    def test_empty_query_scores_zero(self, vocabulary):
        assert ir_score("pool", [], vocabulary, DEFAULT_ANALYZER) == 0.0

    def test_empty_document_scores_zero(self, vocabulary):
        assert ir_score("", ["pool"], vocabulary, DEFAULT_ANALYZER) == 0.0

    def test_more_matches_score_higher(self, vocabulary):
        one = ir_score("pool sauna deck", ["pool", "internet"], vocabulary, DEFAULT_ANALYZER)
        two = ir_score("pool internet bar", ["pool", "internet"], vocabulary, DEFAULT_ANALYZER)
        assert two > one

    def test_rare_term_scores_higher_than_common(self, vocabulary):
        rare = ir_score("spa lounge", ["spa"], vocabulary, DEFAULT_ANALYZER)
        common = ir_score("pool lounge", ["pool"], vocabulary, DEFAULT_ANALYZER)
        assert rare > common  # df(spa)=1 < df(pool)=3

    def test_longer_document_scores_lower(self, vocabulary):
        short = ir_score("pool", ["pool"], vocabulary, DEFAULT_ANALYZER)
        long = ir_score("pool " + "filler " * 50, ["pool"], vocabulary, DEFAULT_ANALYZER)
        assert short > long

    def test_binary_tf_ignores_repetition(self, vocabulary):
        """Default model is binary-tf: repeating a keyword only hurts via
        the length normalization."""
        once = ir_score("pool bar", ["pool"], vocabulary, DEFAULT_ANALYZER)
        thrice = ir_score("pool pool pool bar", ["pool"], vocabulary, DEFAULT_ANALYZER)
        assert once > thrice


def tokenizing_ir_score(text, query_terms, vocabulary, analyzer):
    """The default model computed from a fresh tokenization of ``text``."""
    if not query_terms:
        return 0.0
    frequencies = analyzer.term_frequencies(text)
    dl = sum(frequencies.values())
    if dl == 0:
        return 0.0
    matched_idf = sum(vocabulary.idf(term) for term in query_terms if term in frequencies)
    if matched_idf == 0.0:
        return 0.0
    return matched_idf / (1.0 + math.log(dl))


WORDS = ["pool", "Pool", "spa", "the", "a", "internet", "İnternet", "ßauna", "x9"]


@settings(max_examples=300, deadline=None)
@given(
    text=st.lists(
        st.sampled_from(WORDS + [" ", ",", "_", "-", "\t"]), max_size=30
    ).map(" ".join),
    keywords=st.lists(st.sampled_from(WORDS + ["golf", "pool spa"]), max_size=4),
    documents=st.lists(st.sets(st.sampled_from(WORDS)), max_size=6),
    lowercase=st.booleans(),
    min_token_length=st.integers(min_value=1, max_value=4),
    stopwords=st.sampled_from([None, DEFAULT_STOPWORDS, frozenset({"pool", "Spa"})]),
)
def test_property_memoized_ir_score_equals_tokenizing_formula(
    text, keywords, documents, lowercase, min_token_length, stopwords
):
    """``ir_score`` reads the analyzer's memos; it equals the tokenizing form exactly."""
    analyzer = Analyzer(lowercase, min_token_length, stopwords)
    vocab = Vocabulary()
    for document in documents:
        vocab.add_document({term for word in document for term in analyzer.tokens(word)})
    terms = analyzer.query_terms(keywords)
    expected = tokenizing_ir_score(text, terms, vocab, analyzer)
    assert ir_score(text, terms, vocab, analyzer) == expected
    assert ir_score(text, terms, vocab, analyzer) == expected  # the memo hits
    assert analyzer.document_length(text) == len(list(analyzer.tokens(text)))


class TestTfIdfVariant:
    def test_repetition_rewarded(self, vocabulary):
        once = tf_idf_score("pool bar bar bar", ["pool"], vocabulary, DEFAULT_ANALYZER)
        thrice = tf_idf_score("pool pool pool bar", ["pool"], vocabulary, DEFAULT_ANALYZER)
        assert thrice > once

    def test_no_match_zero(self, vocabulary):
        assert tf_idf_score("sauna", ["tennis"], vocabulary, DEFAULT_ANALYZER) == 0.0

    def test_empty_cases(self, vocabulary):
        assert tf_idf_score("", ["pool"], vocabulary, DEFAULT_ANALYZER) == 0.0
        assert tf_idf_score("pool", [], vocabulary, DEFAULT_ANALYZER) == 0.0


class TestUpperBound:
    def test_empty_matched_set(self):
        assert upper_bound_ir_score([]) == 0.0

    def test_single_term(self):
        assert upper_bound_ir_score([2.0]) == pytest.approx(2.0)

    def test_skewed_idfs_use_best_prefix(self):
        """With one dominant idf the best 'imaginary document' matches only
        that term (the naive all-terms bound would be lower and *wrong* as
        a bound for subset-matching documents)."""
        bound = upper_bound_ir_score([10.0, 0.1])
        assert bound == pytest.approx(10.0)  # prefix of size 1 wins

    def test_uniform_idfs_use_all_terms(self):
        bound = upper_bound_ir_score([1.0, 1.0, 1.0])
        assert bound == pytest.approx(3.0 / (1.0 + math.log(3)))


@given(
    matched=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6),
    extra_words=st.integers(0, 30),
    subset_seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_property_upper_bound_is_admissible(matched, extra_words, subset_seed):
    """No document matching any subset of the terms can beat the bound.

    Builds a random document containing a random subset of the matched
    terms (each once) plus filler words, scores it with the real model,
    and checks it never exceeds ``upper_bound_ir_score`` of the full set.
    """
    rng = random.Random(subset_seed)
    terms = [f"kw{i}" for i in range(len(matched))]
    vocab = Vocabulary()
    # Realize the requested idfs approximately by controlling df over a
    # fixed corpus size, then just use the actual idfs for both sides.
    for i in range(20):
        document = {t for j, t in enumerate(terms) if i % (j + 1) == 0}
        vocab.add_document(document or {"filler"})
    subset = [t for t in terms if rng.random() < 0.7]
    body = " ".join(subset + [f"filler{i}" for i in range(extra_words)])
    score = ir_score(body, terms, vocab, DEFAULT_ANALYZER)
    bound = upper_bound_ir_score(vocab.idf(t) for t in terms)
    assert score <= bound + 1e-9
