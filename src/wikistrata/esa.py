"""Classical explicit semantic analysis.

Pages are concepts; a page's vector holds unit-normalized tfidf weights
over terms, and transposing that matrix yields word vectors in concept
space. Relatedness of two words is the cosine of their concept vectors.
"""

from __future__ import annotations

import math
import os
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Mapping

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
    "save_vector_set",
    "load_vector_set",
]

TERM_SPACE = "term"
CONCEPT_SPACE = "concept"
_SPACE_TAGS = {TERM_SPACE: 0, CONCEPT_SPACE: 1}
_TAG_SPACES = {v: k for k, v in _SPACE_TAGS.items()}

_MAGIC = b"ESAV"
_VERSION = 1
# ESAV v1: magic, version, space tag, entry count, then the entries.
_HEADER = struct.Struct("<4sHBQ")
_ENTRY = np.dtype([("dim", "<u4"), ("weight", "<f8")])
_SET_MAGIC = b"ESVS"
_U64 = struct.Struct("<Q")


class SparseVector:
    """Sorted sparse vector with non-negative finite weights.

    The entries live in two read-only numpy arrays, ``int64`` dimensions
    and ``float64`` weights; the package's kernels (``concept_vectors``,
    the ESVS codec, ``dot``, ``norm``, ``weight_edges``, ``cross_validate``)
    read them as ``_dims`` and ``_weights``. The public ``dims`` and
    ``weights`` are tuples of ``int`` and ``float``, built on first access
    and then kept. Equality and hashing are those of the tuples, and a
    vector is immutable.
    """

    __slots__ = ("_dims", "_weights", "space", "_dims_tuple", "_weights_tuple")

    def __init__(self, dims, weights, space: str = CONCEPT_SPACE):
        dims, weights = tuple(dims), tuple(weights)
        if len(dims) != len(weights):
            raise ValueError("dims and weights differ in length")
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise ValueError("dimensions must be strictly increasing")
        for w in weights:
            if not math.isfinite(w) or w < 0:
                raise ValueError(f"weight {w!r} is not finite and non-negative")
        if space not in _SPACE_TAGS:
            raise ValueError(f"unknown space tag {space!r}")
        self._init(np.array(dims, np.int64), np.array(weights, np.float64), space)

    def _init(self, dims: np.ndarray, weights: np.ndarray, space: str) -> None:
        for arr in (dims, weights):
            if arr.flags.writeable:
                arr.flags.writeable = False
        setattr_ = object.__setattr__
        setattr_(self, "_dims", dims)
        setattr_(self, "_weights", weights)
        setattr_(self, "space", space)
        setattr_(self, "_dims_tuple", None)
        setattr_(self, "_weights_tuple", None)

    @classmethod
    def _from_arrays(cls, dims: np.ndarray, weights: np.ndarray,
                     space: str = CONCEPT_SPACE) -> "SparseVector":
        """The constructor's checks, vectorized over numpy arrays. The
        vector takes the arrays over (as ``int64`` and ``float64``), so the
        caller must not write to them afterwards."""
        if len(dims) != len(weights):
            raise ValueError("dims and weights differ in length")
        if np.any(dims[1:] <= dims[:-1]):
            raise ValueError("dimensions must be strictly increasing")
        bad = ~(np.isfinite(weights) & (weights >= 0))
        if bad.any():
            w = float(weights[bad.argmax()])
            raise ValueError(f"weight {w!r} is not finite and non-negative")
        if space not in _SPACE_TAGS:
            raise ValueError(f"unknown space tag {space!r}")
        return cls._trusted(np.asarray(dims, np.int64), np.asarray(weights, np.float64), space)

    @classmethod
    def _trusted(cls, dims: np.ndarray, weights: np.ndarray, space: str) -> "SparseVector":
        """A vector over arrays that already meet every check, unchecked."""
        vec = object.__new__(cls)
        vec._init(dims, weights, space)
        return vec

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return SparseVector._from_arrays, (self._dims, self._weights, self.space)

    @property
    def dims(self) -> tuple[int, ...]:
        if self._dims_tuple is None:
            object.__setattr__(self, "_dims_tuple", tuple(self._dims.tolist()))
        return self._dims_tuple

    @property
    def weights(self) -> tuple[float, ...]:
        if self._weights_tuple is None:
            object.__setattr__(self, "_weights_tuple", tuple(self._weights.tolist()))
        return self._weights_tuple

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space == other.space and np.array_equal(self._dims, other._dims)
                and np.array_equal(self._weights, other._weights))

    def __hash__(self):
        return hash((self.dims, self.weights, self.space))

    def __repr__(self):
        return f"SparseVector(dims={self.dims!r}, weights={self.weights!r}, space={self.space!r})"

    @classmethod
    def from_dict(cls, entries: dict[int, float], space: str = CONCEPT_SPACE) -> "SparseVector":
        items = sorted((d, w) for d, w in entries.items() if w != 0.0)
        return cls(tuple(d for d, _ in items), tuple(w for _, w in items), space)

    def to_dict(self) -> dict[int, float]:
        return dict(zip(self._dims.tolist(), self._weights.tolist()))

    @property
    def nnz(self) -> int:
        return len(self._dims)

    def is_zero(self) -> bool:
        return not len(self._dims)

    def norm(self) -> float:
        # the builtin sum over Python floats, in ascending dim order
        w = self._weights
        return math.sqrt(sum((w * w).tolist()))

    def dot(self, other: "SparseVector") -> float:
        """The products over the shared dims, summed by the builtin ``sum``
        in ascending dim order."""
        if self.space != other.space:
            raise ValueError("cannot dot vectors from different spaces")
        a, b = self, other
        if a.nnz > b.nnz:
            a, b = b, a
        # each of a's dims looked up in b's; b is empty only when a is
        pos = b._dims.searchsorted(a._dims)
        hit = b._dims.take(pos, mode="clip") == a._dims
        return sum((a._weights[hit] * b._weights[pos[hit]]).tolist())

    def cosine(self, other: "SparseVector") -> float:
        na, nb = self.norm(), other.norm()
        if na == 0.0 or nb == 0.0:
            return 0.0
        return self.dot(other) / (na * nb)

    def unit(self) -> "SparseVector":
        n = self.norm()
        if n == 0.0:
            return self
        return SparseVector._from_arrays(self._dims, self._weights / n, self.space)

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
    aggregates can be recomputed without re-reading text; ``page_tfidf``
    holds each page's tfidf row, before the unit normalization.

    ``term_columns`` is the term-major view of ``page_vectors``, as
    ``(ptr, concepts, weights)``: term t's word vector has concept ids
    ``concepts[ptr[t]:ptr[t + 1]]`` (ascending) with the matching
    ``weights``. It is derived from the other fields at construction, so
    equality ignores it, as it does ``page_tfidf``.
    """

    vocabulary: Vocabulary
    page_ids: tuple[int, ...]
    concept_of_page: dict[int, int]
    page_vectors: dict[int, SparseVector]
    page_term_freqs: dict[int, dict[int, int]]
    postings: dict[int, tuple[tuple[int, int], ...]]
    n_pages: int
    zero_pages: tuple[int, ...]
    page_tfidf: dict[int, dict[int, float]] = field(compare=False, repr=False)
    term_columns: tuple[list[int], np.ndarray, np.ndarray] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "term_columns", _term_columns(self))


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
    page_tfidf: dict[int, dict[int, float]] = {}
    postings: dict[int, list[tuple[int, int]]] = {}
    zero_pages = []
    for pid in page_ids:
        freqs = page_term_freqs[pid]
        weights = page_tfidf[pid] = {
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
        page_tfidf=page_tfidf,
    )


def _term_columns(index: EsaIndex) -> tuple[list[int], np.ndarray, np.ndarray]:
    vecs = [index.page_vectors[pid] for pid in index.page_ids]
    nnz = [v.nnz for v in vecs]
    tids = np.concatenate([np.empty(0, np.int64), *(v._dims for v in vecs)])
    weights = np.concatenate([np.empty(0), *(v._weights for v in vecs)])
    concepts = np.repeat(np.arange(len(vecs), dtype=np.int64), nnz)
    keep = weights != 0.0
    tids, concepts, weights = tids[keep], concepts[keep], weights[keep]
    # a stable sort keeps each term's concepts in ascending order
    order = np.argsort(tids, kind="stable")
    tids, concepts, weights = tids[order], concepts[order], weights[order]
    # word_vector hands out slices unchecked: each term's concepts strictly
    # increase, and every weight is finite and positive
    if not (np.all((tids[1:] > tids[:-1]) | (concepts[1:] > concepts[:-1]))
            and np.all(np.isfinite(weights) & (weights > 0))):
        raise ValueError("term columns are not strictly increasing with positive weights")
    concepts.flags.writeable = False
    weights.flags.writeable = False
    counts = np.bincount(tids, minlength=len(index.vocabulary))
    return [0, *np.cumsum(counts).tolist()], concepts, weights


def word_vector(index: EsaIndex, term_id: int) -> SparseVector:
    """The term's column of the transposed tfidf matrix, in concept space."""
    if not 0 <= term_id < len(index.vocabulary):
        raise KeyError(f"unknown term id {term_id}")
    ptr, concepts, weights = index.term_columns
    lo, hi = ptr[term_id], ptr[term_id + 1]
    # views of the index's read-only columns, checked once in _term_columns
    return SparseVector._trusted(concepts[lo:hi], weights[lo:hi], CONCEPT_SPACE)


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
    by term in ascending term id, and renormalized as
    ``SparseVector.unit`` does it: the builtin ``sum`` of the squared
    weights, then one division per weight. That is the same sequence of
    floating-point operations for a row
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
        dims, values = dims[keep], values[keep]
        # SparseVector.unit(): the builtin sum over the same Python floats
        n = math.sqrt(sum((values * values).tolist()))
        if n != 0.0:
            values /= n
        out.append(SparseVector._from_arrays(dims, values, CONCEPT_SPACE))
    return out


def document_vector(index: EsaIndex, doc_terms: Iterable[str]) -> SparseVector:
    """Weighted combination of word vectors, normalized to unit length.

    The concept vector (see ``concept_vectors``) of the row mapping each
    distinct in-vocabulary term to its tfidf within the document, with df
    taken from the index.
    """
    voc = index.vocabulary
    freqs = {voc.term_to_id[t]: f for t, f in Counter(doc_terms).items() if t in voc}
    row = {tid: tfidf(f, voc.df(tid), index.n_pages) for tid, f in freqs.items()}
    return concept_vectors(index, [row])[0]


# ---------------------------------------------------------------------------
# Serialization: binary "ESAV" single-vector format and a multi-vector
# container used by the pipeline ("ESVS": count, then per entry a u64 key
# followed by an embedded ESAV record). All integers are little-endian;
# see README.md for the byte layout.

@contextmanager
def _open_atomic(path, mode: str = "wb", **kwargs):
    """Open a temporary file next to ``path`` and move it onto ``path`` once
    the block completes, so an interrupted write never leaves a partial
    file under the final name."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _pack_vector(vec: SparseVector) -> bytes:
    dims = vec._dims
    # struct refused these; a <u4 array could wrap them silently
    if len(dims) and not (0 <= dims[0] and dims[-1] < 2**32):
        raise ValueError(
            f"dimensions {dims[0]}..{dims[-1]} do not fit an unsigned 32-bit field")
    entries = np.empty(vec.nnz, _ENTRY)
    entries["dim"] = dims
    entries["weight"] = vec._weights
    return _HEADER.pack(_MAGIC, _VERSION, _SPACE_TAGS[vec.space], vec.nnz) + entries.tobytes()


def _need(buf: bytes, end: int, what: str) -> None:
    if end > len(buf):
        raise ValueError(f"truncated {what}: needs {end} bytes, only {len(buf)} present")


def _unpack_vector(buf: bytes, offset: int = 0) -> tuple[SparseVector, int]:
    if buf[offset:offset + 4] != _MAGIC:
        raise ValueError("bad magic; not an ESAV vector")
    _need(buf, offset + _HEADER.size, "ESAV header")
    _magic, version, tag, count = _HEADER.unpack_from(buf, offset)
    if version != _VERSION:
        raise ValueError(f"unsupported ESAV version {version}")
    if tag not in _TAG_SPACES:
        raise ValueError(f"unknown ESAV space tag {tag}")
    offset += _HEADER.size
    end = offset + count * _ENTRY.itemsize
    _need(buf, end, f"ESAV vector of {count} entries")
    entries = np.frombuffer(buf, _ENTRY, count, offset)
    # copies, so the vector keeps no reference to the read buffer
    dims, weights = entries["dim"].astype(np.int64), entries["weight"].astype(np.float64)
    return SparseVector._from_arrays(dims, weights, _TAG_SPACES[tag]), end


def _check_end(buf: bytes, offset: int) -> None:
    if offset != len(buf):
        raise ValueError(f"{len(buf) - offset} trailing bytes after the last vector")


def save_vector(path, vec: SparseVector) -> None:
    with _open_atomic(path) as fh:
        fh.write(_pack_vector(vec))


def load_vector(path) -> SparseVector:
    with open(path, "rb") as fh:
        buf = fh.read()
    vec, offset = _unpack_vector(buf)
    _check_end(buf, offset)
    return vec


def save_vector_set(path, vectors: dict[int, SparseVector]) -> None:
    with _open_atomic(path) as fh:
        fh.write(_SET_MAGIC + _U64.pack(len(vectors)))
        for key in sorted(vectors):
            fh.write(_U64.pack(key))
            fh.write(_pack_vector(vectors[key]))


def load_vector_set(path) -> dict[int, SparseVector]:
    """Read an ESVS file, rejecting any byte that ``save_vector_set`` would
    not have written there."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != _SET_MAGIC:
        raise ValueError("bad magic; not an ESVS vector set")
    _need(buf, 4 + _U64.size, "ESVS header")
    (count,) = _U64.unpack_from(buf, 4)
    offset = 4 + _U64.size
    out: dict[int, SparseVector] = {}
    for _ in range(count):
        _need(buf, offset + _U64.size, f"ESVS set of {count} vectors")
        (key,) = _U64.unpack_from(buf, offset)
        out[key], offset = _unpack_vector(buf, offset + _U64.size)
    _check_end(buf, offset)
    return out
