"""Text analysis: tokenization, stopword removal, stemming, vocabulary.

Every tfidf computation downstream consumes the term stream produced
here, so the pipeline is deliberately small and deterministic.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

import numpy as np

__all__ = ["Analyzer", "Vocabulary", "build_vocabulary", "default_stem"]

# Unicode alphanumeric runs; underscores split, digits kept.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# [^\W_] is str.isalnum, so ASCII text splits into _TOKEN_RE's tokens once
# each byte that is not an ASCII letter or digit is a space.
_ASCII_SPACES = bytes(b if b < 128 and chr(b).isalnum() else 32 for b in range(256))


def _tokens(text: str) -> list[str]:
    """``_TOKEN_RE.findall(text)``, in C calls only for ASCII text."""
    if text.isascii():
        return text.encode().translate(_ASCII_SPACES).decode().split()
    return _TOKEN_RE.findall(text)


def default_stem(word: str) -> str:
    """Strip a plural 'es'/'s' suffix.

    The rules never emit a form that the rules would strip again, so the
    stemmer is idempotent (a requirement also imposed on plugged-in
    stemmers).
    """
    if len(word) > 4 and word.endswith("es") and word[-3] != "s":
        stripped = word[:-2]
        if not stripped.endswith("s"):
            return stripped
    if len(word) > 3 and word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


@dataclass(frozen=True)
class Analyzer:
    """Tokenize, lowercase, drop stopwords, stem. Pure and reusable.

    Each token's term depends on that token alone, so a corpus is
    analyzed one distinct token at a time (``_term_counts``): the stemmer
    must be a pure function of its token."""

    stopword_set: frozenset[str] = frozenset()
    stemmer: Callable[[str], str] = default_stem
    lowercase_fold: bool = True

    def analyze(self, text: str) -> list[str]:
        terms = map(self._term, _tokens(text))
        return [t for t in terms if t is not None]

    def _term(self, token: str) -> str | None:
        """One token's term, or None for a stopword."""
        if self.lowercase_fold:
            token = token.lower()
        return None if token in self.stopword_set else self.stemmer(token)


class _TermCounts(NamedTuple):
    """Analyzed pages as one table: distinct ``terms`` in sorted order (kept
    rows keep them all), and a page-major CSR of ``int64`` arrays in which page
    ``i`` holds the term numbers ``term_ids[row_ptr[i]:row_ptr[i + 1]]``
    (ascending) that its analysis yields ``counts`` times."""

    terms: tuple[str, ...]
    row_ptr: np.ndarray
    term_ids: np.ndarray
    counts: np.ndarray


def _term_counts(analyzer: Analyzer, texts: Iterable[str]) -> _TermCounts:
    """``Counter(analyzer.analyze(text))`` of each of ``texts``, in order, as
    one ``_TermCounts`` table. Each distinct token is mapped to its term once,
    and only one text's tokens are held at a time."""
    code_of: dict[str, int] = {}  # each token's term code; -1 for a stopword
    term_code: dict[str, int] = {}  # each term's code, in order of first sight
    codes: list[int] = []  # each token's term code, text after text
    ends = [0]
    for text in texts:
        tokens = _tokens(text)
        for token in set(tokens).difference(code_of):
            term = analyzer._term(token)
            code_of[token] = -1 if term is None else term_code.setdefault(term, len(term_code))
        codes += map(code_of.__getitem__, tokens)
        ends.append(len(codes))
    terms = sorted(term_code)
    n_terms, n_pages = max(len(terms), 1), len(ends) - 1
    rank = np.empty(len(terms), np.int64)
    rank[[term_code[t] for t in terms]] = np.arange(len(terms))
    codes = np.array(codes, np.int64)
    rows = np.repeat(np.arange(n_pages), np.diff(ends))
    kept = codes >= 0
    # one code per (page, term), whose sorted order is page-major, terms
    # ascending; counted from the inverse, the np.unique path EsaIndex takes
    # too (return_counts would make a cold run resident in more of numpy)
    pairs, inverse = np.unique(rows[kept] * n_terms + rank[codes[kept]], return_inverse=True)
    rows, term_ids = np.divmod(pairs, n_terms)
    row_ptr = np.zeros(n_pages + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=n_pages), out=row_ptr[1:])
    return _TermCounts(tuple(terms), row_ptr, term_ids,
                       np.bincount(inverse, minlength=len(pairs)))


def _table_rows(table: _TermCounts, rows: np.ndarray) -> _TermCounts:
    """The rows ``rows`` (ascending) of a ``_term_counts`` table, over the
    same ``terms``: their vocabulary and index are those of the table that
    ``_term_counts`` gives for those rows' texts alone."""
    starts, lengths = table.row_ptr[rows], np.diff(table.row_ptr)[rows]
    row_ptr = np.zeros(len(rows) + 1, np.int64)
    np.cumsum(lengths, out=row_ptr[1:])
    entries = np.arange(row_ptr[-1]) + np.repeat(starts - row_ptr[:-1], lengths)
    return _TermCounts(table.terms, row_ptr, table.term_ids[entries], table.counts[entries])


def parse_stopwords(data: bytes, lowercase_fold: bool) -> frozenset[str]:
    """The terms of a one-term-per-line UTF-8 stopword file (BOM allowed), given its bytes,
    lowercased when the ``Analyzer`` they go to folds its tokens (``lowercase_fold``)."""
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
    terms = frozenset(line.strip() for line in lines if line.strip())
    return frozenset(map(str.lower, terms)) if lowercase_fold else terms


@dataclass(frozen=True)
class Vocabulary:
    """Term <-> id bijection with document frequencies.

    Ids are dense 0..T-1, assigned in lexicographic term order so they are
    stable across runs.
    """

    term_to_id: dict[str, int]
    doc_freq: tuple[int, ...]
    id_to_term: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        terms = sorted(self.term_to_id, key=self.term_to_id.get)
        n = len(terms)
        if list(map(self.term_to_id.get, terms)) != list(range(n)) or len(self.doc_freq) != n:
            raise ValueError(f"a vocabulary of {n} terms needs the ids 0..{n - 1}, each once, "
                             f"and {n} document frequencies, got {len(self.doc_freq)}")
        object.__setattr__(self, "id_to_term", tuple(terms))

    def __len__(self) -> int:
        return len(self.term_to_id)

    def __contains__(self, term: str) -> bool:
        return term in self.term_to_id

    def df(self, term_id: int) -> int:
        return self.doc_freq[term_id]


def build_vocabulary(store, analyzer: Analyzer, min_df: int = 1) -> Vocabulary:
    """Count per-page document frequencies and keep terms with df >= min_df.

    The pages go through one ``_term_counts`` pass, which analyzes each
    distinct token once: the analyzer's stemmer must be a pure function
    of its token."""
    return _vocabulary_from_table(_term_counts(analyzer, (p.text for p in store.pages)), min_df)


def _vocabulary_from_table(table: _TermCounts, min_df: int = 1) -> Vocabulary:
    """The vocabulary of a ``_term_counts`` table: each term's document
    frequency is the number of rows that hold it, and a term is kept when some
    row holds it and that is at least ``min_df``."""
    if len(table.row_ptr) == 1:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    df = np.bincount(table.term_ids, minlength=len(table.terms))
    kept = np.flatnonzero((df >= min_df) & (df > 0)).tolist()
    return Vocabulary(term_to_id={table.terms[t]: i for i, t in enumerate(kept)},
                      doc_freq=tuple(df[kept].tolist()))
