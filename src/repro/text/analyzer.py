"""Text analysis: turning documents into terms.

Section II treats ``T.t`` as a text document and queries as sets of
keywords; the Boolean containment test ``w in T.t`` is at the term level
("internet" matches "wireless Internet").  :class:`Analyzer` provides the
single tokenization pipeline used everywhere — object indexing, signature
generation, inverted-index construction, and query parsing — so that the
containment semantics are identical across all four algorithms.

Pipeline: Unicode-aware word extraction (letters+digits runs), lowercase
folding, optional minimum token length, optional stopword removal.
Stopwords are off by default: the paper gives no stopword list, and
removal would change the keyword-frequency distribution the experiments
depend on.

Each analyzer memoizes the distinct-term set of every text it analyzes
in a bounded, content-addressed :class:`~repro.storage.intern.Intern`
keyed by the text, so verification, indexing and upkeep tokenize a
given document once while it stays in the memo.
"""

from __future__ import annotations

import re
import sys
from typing import Iterable, Iterator

from repro.storage.intern import Intern

#: Distinct texts whose term sets an analyzer's memo keeps; past it the
#: oldest is dropped.  Query keywords are memoized too (:meth:`Analyzer.
#: contains_all`), so the bound covers a corpus of a few thousand objects
#: plus the distinct keywords of its queries.
TERM_MEMO_CAPACITY = 8192

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

#: A small English stopword list for applications that opt in.
DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on that the
    to was were will with""".split()
)


class Analyzer:
    """Configurable tokenizer shared by all indexing and query paths.

    The configuration is fixed at construction (read-only properties),
    because the analyzer memoizes its results: :meth:`terms` keeps each
    text's distinct-term ``frozenset`` in a bounded memo of
    :data:`TERM_MEMO_CAPACITY` texts, dropping the oldest past it and
    counting each drop in ``memo.dropped``.  The memo belongs to the
    instance, so two analyzers never share entries; it is safe to use
    from several threads.

    Args:
        lowercase: fold tokens to lower case (the paper's example treats
            "Internet" and "internet" as the same keyword).
        min_token_length: drop tokens shorter than this many characters.
        stopwords: tokens to drop entirely, or ``None`` to keep everything.
    """

    __slots__ = ("_lowercase", "_min_token_length", "_stopwords", "memo")

    def __init__(
        self,
        lowercase: bool = True,
        min_token_length: int = 1,
        stopwords: frozenset[str] | None = None,
    ) -> None:
        self._lowercase = lowercase
        self._min_token_length = min_token_length
        self._stopwords = stopwords
        #: Text -> its distinct terms (see :meth:`terms`).
        self.memo: Intern[str, frozenset[str]] = Intern()

    @property
    def lowercase(self) -> bool:
        return self._lowercase

    @property
    def min_token_length(self) -> int:
        return self._min_token_length

    @property
    def stopwords(self) -> frozenset[str] | None:
        return self._stopwords

    def tokens(self, text: str) -> Iterator[str]:
        """Yield the token stream of ``text`` in document order."""
        lowercase = self._lowercase
        min_length = self._min_token_length
        stopwords = self._stopwords
        for match in _TOKEN_RE.finditer(text):
            token = match.group(0)
            if lowercase:
                token = token.lower()
            if len(token) < min_length:
                continue
            if stopwords is not None and token in stopwords:
                continue
            yield token

    def terms(self, text: str) -> frozenset[str]:
        """Distinct terms of ``text`` (the unit of signatures and postings).

        Memoized: a text seen recently returns the set computed for it
        then, without tokenizing it again.  The term strings are
        interned, so the memo holds one copy of each vocabulary word.
        """
        terms = self.memo.get(text)
        if terms is None:
            terms = self.memo.add(
                text,
                frozenset(map(sys.intern, self.tokens(text))),
                TERM_MEMO_CAPACITY,
            )
        return terms

    def term_frequencies(self, text: str) -> dict[str, int]:
        """Term -> occurrence count map, plus the basis of document length."""
        frequencies: dict[str, int] = {}
        for token in self.tokens(text):
            frequencies[token] = frequencies.get(token, 0) + 1
        return frequencies

    def document_length(self, text: str) -> int:
        """Number of tokens in ``text`` (the ``dl`` of the IR model)."""
        return sum(1 for _ in self.tokens(text))

    def query_terms(self, keywords: Iterable[str]) -> list[str]:
        """Normalize query keywords through the same pipeline.

        Multi-word keywords are split; duplicates are removed while
        preserving first-seen order so signatures and scores are stable.
        """
        seen: dict[str, None] = {}
        for keyword in keywords:
            for token in self.tokens(keyword):
                seen.setdefault(token, None)
        return list(seen)

    def contains_all(self, text: str, keywords: Iterable[str]) -> bool:
        """Boolean keyword containment: every keyword appears in ``text``.

        This is the paper's ``Ans(Q_w)`` membership test and the false
        positive check on Line 21 of Figure 8.  Each keyword's terms
        (:meth:`query_terms` splits it the same way) must all be terms of
        ``text``; both sides come from the memo.
        """
        present = self.terms(text)
        for keyword in keywords:
            if not self.terms(keyword) <= present:
                return False
        return True


#: Analyzer instance with the library-wide default configuration.
DEFAULT_ANALYZER = Analyzer()
