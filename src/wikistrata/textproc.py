"""Text analysis: tokenization, stopword removal, stemming, vocabulary.

Every tfidf computation downstream consumes the term stream produced
here, so the pipeline is deliberately small and deterministic.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = [
    "Analyzer", "Vocabulary", "analyze", "build_vocabulary", "default_stem",
    "vocabulary_from_terms",
]

# Unicode alphanumeric runs; underscores split, digits kept.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


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
    """Tokenize, lowercase, drop stopwords, stem. Pure and reusable."""

    stopword_set: frozenset[str] = frozenset()
    stemmer: Callable[[str], str] = default_stem
    lowercase_fold: bool = True

    def analyze(self, text: str) -> list[str]:
        tokens = _TOKEN_RE.findall(text)
        if self.lowercase_fold:
            tokens = [t.lower() for t in tokens]
        return [self.stemmer(t) for t in tokens if t not in self.stopword_set]


def analyze(text: str, analyzer: Analyzer) -> list[str]:
    """Functional form of Analyzer.analyze."""
    return analyzer.analyze(text)


def parse_stopwords(data: bytes) -> frozenset[str]:
    """The terms of a one-term-per-line UTF-8 stopword file, given its bytes."""
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    return frozenset(line.strip().lower() for line in lines if line.strip())


@dataclass(frozen=True)
class Vocabulary:
    """Term <-> id bijection with document frequencies.

    Ids are dense 0..T-1, assigned in lexicographic term order so they are
    stable across runs.
    """

    term_to_id: dict[str, int]
    doc_freq: tuple[int, ...]
    min_df: int = 3
    id_to_term: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        terms = sorted(self.term_to_id, key=self.term_to_id.get)
        object.__setattr__(self, "id_to_term", tuple(terms))

    def __len__(self) -> int:
        return len(self.term_to_id)

    def __contains__(self, term: str) -> bool:
        return term in self.term_to_id

    def df(self, term_id: int) -> int:
        return self.doc_freq[term_id]


def build_vocabulary(store, analyzer: Analyzer, min_df: int = 1) -> Vocabulary:
    """Count per-page document frequencies and keep terms with df >= min_df."""
    return vocabulary_from_terms((analyzer.analyze(p.text) for p in store.pages), min_df)


def vocabulary_from_terms(page_terms: Iterable[Iterable[str]], min_df: int = 1) -> Vocabulary:
    """``build_vocabulary`` over pages already analyzed: each page's terms,
    in any order and with repeats (a ``Counter`` of them will do)."""
    df: dict[str, int] = {}
    n_pages = 0
    for terms in page_terms:
        n_pages += 1
        for term in set(terms):
            df[term] = df.get(term, 0) + 1
    if not n_pages:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    kept = sorted(t for t, n in df.items() if n >= min_df)
    term_to_id = {t: i for i, t in enumerate(kept)}
    return Vocabulary(
        term_to_id=term_to_id,
        doc_freq=tuple(df[t] for t in kept),
        min_df=min_df,
    )
