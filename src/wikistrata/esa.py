"""Classical explicit semantic analysis.

Pages are concepts; a page's vector holds unit-normalized tfidf weights
over terms, and transposing that matrix yields word vectors in concept
space. Relatedness of two words is the cosine of their concept vectors.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from wikistrata.textproc import Analyzer, Vocabulary

__all__ = [
    "SparseVector",
    "EsaIndex",
    "tfidf",
    "build_index",
    "index_from_freqs",
    "word_vector",
    "relatedness",
    "document_vector",
    "concept_vectors",
    "save_vector",
    "load_vector",
    "vector_to_tsv",
    "save_vector_set",
    "load_vector_set",
]

TERM_SPACE = "term"
CONCEPT_SPACE = "concept"
_SPACE_TAGS = {TERM_SPACE: 0, CONCEPT_SPACE: 1}
_TAG_SPACES = {v: k for k, v in _SPACE_TAGS.items()}

_MAGIC = b"ESAV"
_VERSION = 1


@dataclass(frozen=True)
class SparseVector:
    """Sorted sparse vector with non-negative finite weights."""

    dims: tuple[int, ...]
    weights: tuple[float, ...]
    space: str = CONCEPT_SPACE

    def __post_init__(self):
        if len(self.dims) != len(self.weights):
            raise ValueError("dims and weights differ in length")
        if any(b <= a for a, b in zip(self.dims, self.dims[1:])):
            raise ValueError("dimensions must be strictly increasing")
        for w in self.weights:
            if not math.isfinite(w) or w < 0:
                raise ValueError(f"weight {w!r} is not finite and non-negative")
        if self.space not in _SPACE_TAGS:
            raise ValueError(f"unknown space tag {self.space!r}")

    @classmethod
    def from_dict(cls, entries: dict[int, float], space: str = CONCEPT_SPACE) -> "SparseVector":
        items = sorted((d, w) for d, w in entries.items() if w != 0.0)
        return cls(tuple(d for d, _ in items), tuple(w for _, w in items), space)

    def to_dict(self) -> dict[int, float]:
        return dict(zip(self.dims, self.weights))

    @property
    def nnz(self) -> int:
        return len(self.dims)

    def is_zero(self) -> bool:
        return not self.dims

    def norm(self) -> float:
        return math.sqrt(sum(w * w for w in self.weights))

    def dot(self, other: "SparseVector") -> float:
        if self.space != other.space:
            raise ValueError("cannot dot vectors from different spaces")
        a, b = self, other
        if a.nnz > b.nnz:
            a, b = b, a
        bmap = b.to_dict()
        return sum(w * bmap[d] for d, w in zip(a.dims, a.weights) if d in bmap)

    def cosine(self, other: "SparseVector") -> float:
        na, nb = self.norm(), other.norm()
        if na == 0.0 or nb == 0.0:
            return 0.0
        return self.dot(other) / (na * nb)

    def unit(self) -> "SparseVector":
        n = self.norm()
        if n == 0.0:
            return self
        return SparseVector(self.dims, tuple(w / n for w in self.weights), self.space)

    @classmethod
    def zero(cls, space: str = CONCEPT_SPACE) -> "SparseVector":
        return cls((), (), space)


def tfidf(f: int, df: int, n_docs: int) -> float:
    """(1 + ln f) * ln(n_docs / df); natural logarithm throughout."""
    if f < 1:
        raise ValueError(f"raw frequency must be >= 1, got {f}")
    if not 1 <= df <= n_docs:
        raise ValueError(f"need 1 <= df <= n_docs, got df={df}, n_docs={n_docs}")
    return (1.0 + math.log(f)) * math.log(n_docs / df)


@dataclass(frozen=True)
class EsaIndex:
    """Term/concept index: page tfidf vectors, postings, concept dimensions.

    ``page_term_freqs`` keeps the raw analyzed frequencies so categorical
    aggregates can be recomputed without re-reading text.

    ``term_columns`` is the term-major view of ``page_vectors``, as
    ``(ptr, concepts, weights)``: term t's word vector has concept ids
    ``concepts[ptr[t]:ptr[t + 1]]`` (ascending) with the matching
    ``weights``. It is derived from the other fields at construction, so
    equality ignores it.
    """

    vocabulary: Vocabulary
    page_ids: tuple[int, ...]
    concept_of_page: dict[int, int]
    page_vectors: dict[int, SparseVector]
    page_term_freqs: dict[int, dict[int, int]]
    postings: dict[int, tuple[tuple[int, int], ...]]
    n_pages: int
    zero_pages: tuple[int, ...]
    term_columns: tuple[list[int], np.ndarray, np.ndarray] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "term_columns", _term_columns(self))

    def page_of_concept(self, dim: int) -> int:
        return self.page_ids[dim]


def build_index(store, analyzer: Analyzer, vocabulary: Vocabulary) -> EsaIndex:
    """Build per-page unit tfidf vectors and the term postings table.

    Pages with no in-vocabulary term (or all-zero weights, e.g. a corpus
    of one page where every idf vanishes) get the zero vector and are
    listed in ``zero_pages``.
    """
    page_ids = tuple(p.page_id for p in sorted(store.pages, key=lambda p: p.page_id))
    page_term_freqs = {}
    for pid in page_ids:
        counts = Counter(analyzer.analyze(store.page(pid).text))
        page_term_freqs[pid] = dict(sorted(
            (vocabulary.term_to_id[t], f) for t, f in counts.items() if t in vocabulary
        ))
    return index_from_freqs(page_term_freqs, vocabulary)


def index_from_freqs(
    page_term_freqs: dict[int, dict[int, int]], vocabulary: Vocabulary
) -> EsaIndex:
    """Assemble an index from precomputed per-page raw term frequencies."""
    page_ids = tuple(sorted(page_term_freqs))
    n_pages = len(page_ids)
    concept_of_page = {pid: i for i, pid in enumerate(page_ids)}
    page_vectors: dict[int, SparseVector] = {}
    postings: dict[int, list[tuple[int, int]]] = {}
    zero_pages = []
    for pid in page_ids:
        freqs = page_term_freqs[pid]
        weights = {
            tid: tfidf(f, vocabulary.df(tid), n_pages)
            for tid, f in freqs.items()
        }
        vec = SparseVector.from_dict(weights, TERM_SPACE).unit()
        if vec.is_zero():
            zero_pages.append(pid)
        page_vectors[pid] = vec
        for tid, f in sorted(freqs.items()):
            postings.setdefault(tid, []).append((pid, f))
    return EsaIndex(
        vocabulary=vocabulary,
        page_ids=page_ids,
        concept_of_page=concept_of_page,
        page_vectors=page_vectors,
        page_term_freqs={pid: dict(page_term_freqs[pid]) for pid in page_ids},
        postings={tid: tuple(plist) for tid, plist in sorted(postings.items())},
        n_pages=n_pages,
        zero_pages=tuple(zero_pages),
    )


def _term_columns(index: EsaIndex) -> tuple[list[int], np.ndarray, np.ndarray]:
    vecs = [index.page_vectors[pid] for pid in index.page_ids]
    nnz = sum(v.nnz for v in vecs)
    tids = np.fromiter(chain.from_iterable(v.dims for v in vecs), np.int64, nnz)
    weights = np.fromiter(chain.from_iterable(v.weights for v in vecs), np.float64, nnz)
    concepts = np.repeat(np.arange(len(vecs)), [v.nnz for v in vecs])
    keep = weights != 0.0
    tids, concepts, weights = tids[keep], concepts[keep], weights[keep]
    # a stable sort keeps each term's concepts in ascending order
    order = np.argsort(tids, kind="stable")
    counts = np.bincount(tids, minlength=len(index.vocabulary))
    return [0, *np.cumsum(counts).tolist()], concepts[order], weights[order]


def word_vector(index: EsaIndex, term_id: int) -> SparseVector:
    """The term's column of the transposed tfidf matrix, in concept space."""
    if not 0 <= term_id < len(index.vocabulary):
        raise KeyError(f"unknown term id {term_id}")
    ptr, concepts, weights = index.term_columns
    lo, hi = ptr[term_id], ptr[term_id + 1]
    return SparseVector(
        tuple(concepts[lo:hi].tolist()), tuple(weights[lo:hi].tolist()), CONCEPT_SPACE
    )


def relatedness(index: EsaIndex, term_a: int, term_b: int) -> float:
    """Cosine of the two word vectors; 0 when either vector is zero."""
    va = word_vector(index, term_a)
    vb = word_vector(index, term_b)
    c = va.cosine(vb)
    return min(1.0, max(0.0, c))


def concept_vectors(
    index: EsaIndex, rows: Iterable[Mapping[int, float]]
) -> list[SparseVector]:
    """Concept vectors of term-weight rows; each is unit-norm or zero.

    A row maps term ids to weights t_w. Its vector is the sum of
    t_w * word_vector(w), divided by sqrt(sum of t_w ** 2) and then
    explicitly renormalized to unit norm (word vectors are not
    orthonormal, so the first division alone does not yield a unit
    vector). Zero-weight terms are skipped. A row with nothing left is the
    zero vector.

    Each row is summed alone into a dense buffer over all concepts, term
    by term in ascending term id, and finished with ``SparseVector.unit``.
    That is the same sequence of floating-point operations for a row
    whether it comes alone or in a batch, so its bits do not depend on
    the batch. A matrix product would sum in an order that depends on the
    operands' shapes.
    """
    ptr, concepts, weights = index.term_columns
    acc = np.zeros(index.n_pages)
    out = []
    for row in rows:
        sq = 0.0
        for tid in sorted(row):
            t = row[tid]
            if t == 0.0:
                continue
            sq += t * t
            lo, hi = ptr[tid], ptr[tid + 1]
            if lo < hi:
                acc[concepts[lo:hi]] += t * weights[lo:hi]
        dims = np.flatnonzero(acc)
        values = acc[dims]
        acc[dims] = 0.0
        if sq == 0.0 or not dims.size:
            out.append(SparseVector.zero(CONCEPT_SPACE))
            continue
        values /= math.sqrt(sq)
        keep = values != 0.0
        vec = SparseVector(
            tuple(dims[keep].tolist()), tuple(values[keep].tolist()), CONCEPT_SPACE
        )
        out.append(vec.unit())
    return out


def document_vector(
    index: EsaIndex,
    doc_terms: Iterable[str],
    weight_fn: Optional[Callable[[int], float]] = None,
) -> SparseVector:
    """Weighted combination of word vectors, normalized to unit length.

    The concept vector (see ``concept_vectors``) of the row mapping each
    distinct in-vocabulary term w to weight(w). ``weight_fn`` maps
    term_id -> weight; the default is the tfidf of the term within the
    document, with df taken from the index.
    """
    counts = Counter(doc_terms)
    freqs = {
        index.vocabulary.term_to_id[t]: f
        for t, f in counts.items()
        if t in index.vocabulary
    }
    if weight_fn is None:
        n = index.n_pages
        voc = index.vocabulary
        row = {tid: tfidf(f, voc.df(tid), n) for tid, f in freqs.items()}
    else:
        row = {tid: weight_fn(tid) for tid in sorted(freqs)}
    return concept_vectors(index, [row])[0]


# ---------------------------------------------------------------------------
# Serialization: binary "ESAV" single-vector format, TSV mirror, and a
# multi-vector container used by the pipeline ("ESVS": count, then per
# entry a u64 key followed by an embedded ESAV record).

def _pack_vector(vec: SparseVector) -> bytes:
    parts = [_MAGIC, struct.pack("<HBQ", _VERSION, _SPACE_TAGS[vec.space], vec.nnz)]
    for d, w in zip(vec.dims, vec.weights):
        parts.append(struct.pack("<Id", d, w))
    return b"".join(parts)


def _unpack_vector(buf: bytes, offset: int = 0) -> tuple[SparseVector, int]:
    if buf[offset:offset + 4] != _MAGIC:
        raise ValueError("bad magic; not an ESAV vector")
    version, tag, count = struct.unpack_from("<HBQ", buf, offset + 4)
    if version != _VERSION:
        raise ValueError(f"unsupported ESAV version {version}")
    offset += 4 + 11
    dims, weights = [], []
    for _ in range(count):
        d, w = struct.unpack_from("<Id", buf, offset)
        dims.append(d)
        weights.append(w)
        offset += 12
    return SparseVector(tuple(dims), tuple(weights), _TAG_SPACES[tag]), offset


def save_vector(path, vec: SparseVector) -> None:
    with open(path, "wb") as fh:
        fh.write(_pack_vector(vec))


def load_vector(path) -> SparseVector:
    with open(path, "rb") as fh:
        vec, _ = _unpack_vector(fh.read())
    return vec


def vector_to_tsv(vec: SparseVector) -> str:
    return "".join(f"{d}\t{w!r}\n" for d, w in zip(vec.dims, vec.weights))


def save_vector_set(path, vectors: dict[int, SparseVector]) -> None:
    with open(path, "wb") as fh:
        fh.write(b"ESVS" + struct.pack("<Q", len(vectors)))
        for key in sorted(vectors):
            fh.write(struct.pack("<Q", key))
            fh.write(_pack_vector(vectors[key]))


def load_vector_set(path) -> dict[int, SparseVector]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != b"ESVS":
        raise ValueError("bad magic; not an ESVS vector set")
    (count,) = struct.unpack_from("<Q", buf, 4)
    offset = 12
    out: dict[int, SparseVector] = {}
    for _ in range(count):
        (key,) = struct.unpack_from("<Q", buf, offset)
        vec, offset = _unpack_vector(buf, offset + 8)
        out[key] = vec
    return out
