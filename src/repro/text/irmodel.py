"""IR relevance scoring [Sin01] with signature-compatible upper bounds.

Section V.C of the paper ranks objects by ``f(distance, IRscore)`` and
orders tree nodes by the *maximum possible* score of any object beneath
them.  The node bound is built from the node's signature: "assume ... an
imaginary object T that contains all keywords of Q specified by the
signature of v.S exactly once (term frequency tf=1) ... the document
length (dl) of T.t is the number of such keywords" — i.e. evaluate the
tf-idf function on the most favorable document the signature permits.

For that construction to be an *admissible* (never-underestimating) bound,
the scoring function must be maximized by exactly that imaginary document.
We therefore use a binary-tf, idf-weighted, log-length-normalized model::

    IRscore(T, Q) = sum over q in Q with q in T of idf(q) / (1 + ln dl(T))

where ``dl(T)`` is T's token count and ``idf(q) = ln(1 + N / df(q))``.
Because a real document matching term subset ``M'`` has ``dl >= |M'|``,
its score is at most ``max over prefix sizes s of (top-s idfs) / (1+ln s)``
over the signature-matched terms — computed by
:func:`upper_bound_ir_score`.  The bound is exact for the imaginary
document when idfs are uniform and provably admissible otherwise (the
naive "all matched terms at once" bound is *not*, because length
normalization is non-monotone in the matched-set size; see the property
tests).

A classical weighted-tf variant (:func:`tf_idf_score`) is included for
completeness; the general search algorithm defaults to the admissible
model.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.text.analyzer import Analyzer
from repro.text.vocabulary import Vocabulary


def ir_score(
    text: str,
    query_terms: Sequence[str],
    vocabulary: Vocabulary,
    analyzer: Analyzer,
) -> float:
    """Relevance of ``text`` to the query under the default (binary-tf) model.

    Returns 0.0 when no query term occurs in the text.  Reads the
    analyzer's memoized term set and token count (``dl``), so a text
    scored before is not tokenized again.
    """
    if not query_terms:
        return 0.0
    terms = analyzer.terms(text)
    matched_idf = sum(vocabulary.idf(term) for term in query_terms if term in terms)
    if matched_idf == 0.0:
        return 0.0
    return matched_idf / (1.0 + math.log(analyzer.document_length(text)))


def tf_idf_score(
    text: str,
    query_terms: Sequence[str],
    vocabulary: Vocabulary,
    analyzer: Analyzer,
) -> float:
    """Classical weighted-tf scoring: ``sum (1+ln tf) * idf / (1+ln dl)``.

    Provided for applications that want graded term frequency; note the
    signature-based node bound is only heuristic under this model.
    """
    if not query_terms:
        return 0.0
    frequencies = analyzer.term_frequencies(text)
    dl = sum(frequencies.values())
    if dl == 0:
        return 0.0
    total = 0.0
    for term in query_terms:
        tf = frequencies.get(term, 0)
        if tf:
            total += (1.0 + math.log(tf)) * vocabulary.idf(term)
    return total / (1.0 + math.log(dl))


def upper_bound_ir_score(matched_idfs: Iterable[float]) -> float:
    """Largest default-model score any document matching a subset can reach.

    Args:
        matched_idfs: idf values of the query terms whose signatures are
            covered by the node (or object) signature.

    Implements the paper's imaginary-document construction made
    admissible: for every possible matched-subset size ``s`` the best
    document matches the ``s`` highest-idf terms exactly once each
    (``dl = s``), scoring ``(sum of top-s idfs) / (1 + ln s)``; the bound
    is the maximum over ``s``.
    """
    idfs = sorted(matched_idfs, reverse=True)
    if not idfs:
        return 0.0
    best = 0.0
    prefix = 0.0
    for s, idf in enumerate(idfs, start=1):
        prefix += idf
        candidate = prefix / (1.0 + math.log(s))
        if candidate > best:
            best = candidate
    return best
