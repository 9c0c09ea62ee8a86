"""Classical explicit semantic analysis.

Pages are concepts; a page's vector holds unit-normalized tfidf weights
over terms, and transposing that matrix yields word vectors in concept
space. Relatedness of two words is the cosine of their concept vectors.
"""

from __future__ import annotations

import bisect
import functools
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
    "index_from_counts",
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

    def __new__(cls, dims, weights, space: str = CONCEPT_SPACE):
        dims, weights = np.array(tuple(dims), np.int64), np.array(tuple(weights), np.float64)
        _check_entries(dims, weights, space)
        return cls._trusted(dims, weights, space)

    @classmethod
    def _trusted(cls, dims: np.ndarray, weights: np.ndarray, space: str) -> "SparseVector":
        """A vector that takes over ``int64`` dims and ``float64`` weights
        that already meet every check, unchecked."""
        for arr in (dims, weights):
            if arr.flags.writeable:
                arr.flags.writeable = False
        vec = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(vec, "_dims", dims)
        setattr_(vec, "_weights", weights)
        setattr_(vec, "space", space)
        setattr_(vec, "_dims_tuple", None)
        setattr_(vec, "_weights_tuple", None)
        return vec

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return SparseVector, (self._dims, self._weights, self.space)

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
        weights = self._weights / n
        _check_entries(self._dims, weights, self.space)
        return SparseVector._trusted(self._dims, weights, self.space)

    @classmethod
    def zero(cls, space: str = CONCEPT_SPACE) -> "SparseVector":
        return cls((), (), space)


def _check_entries(dims: np.ndarray, weights: np.ndarray, space: str) -> None:
    """The constructor's checks, over its ``int64`` and ``float64`` arrays."""
    if len(dims) != len(weights):
        raise ValueError("dims and weights differ in length")
    if np.any(dims[1:] <= dims[:-1]):
        raise ValueError("dimensions must be strictly increasing")
    _check_weights(weights)
    if space not in _SPACE_TAGS:
        raise ValueError(f"unknown space tag {space!r}")


def _check_weights(weights: np.ndarray) -> None:
    bad = ~(np.isfinite(weights) & (weights >= 0))
    if bad.any():
        w = float(weights[bad.argmax()])
        raise ValueError(f"weight {w!r} is not finite and non-negative")


def tfidf(f: int, df: int, n_docs: int) -> float:
    """(1 + ln f) * ln(n_docs / df); natural logarithm throughout."""
    if f < 1:
        raise ValueError(f"raw frequency must be >= 1, got {f}")
    if not 1 <= df <= n_docs:
        raise ValueError(f"need 1 <= df <= n_docs, got df={df}, n_docs={n_docs}")
    return (1.0 + math.log(f)) * math.log(n_docs / df)


@dataclass(frozen=True, eq=False)
class EsaIndex:
    """The page x term matrix of raw frequencies, once, as a page-major CSR
    of read-only ``int64`` arrays: page ``page_ids[i]`` (ascending) is
    concept ``i``, and holds the terms ``term_ids[row_ptr[i]:row_ptr[i + 1]]``
    (ascending) with raw frequencies ``freqs``.

    Derived at construction: ``tfidfs``, each entry's tfidf (``tfidf`` runs
    once per distinct ``(f, df)`` pair), and ``term_columns``, the unit
    page rows term by term as read-only arrays ``(ptr, concepts, weights)``:
    term t's word vector has concepts ``concepts[ptr[t]:ptr[t + 1]]``
    (ascending) with the matching ``weights``. ``page_term_freqs`` is built on first access.
    Indexes are equal when their vocabularies, page ids and frequencies are.
    """

    vocabulary: Vocabulary
    page_ids: tuple[int, ...]
    row_ptr: np.ndarray
    term_ids: np.ndarray
    freqs: np.ndarray
    n_pages: int = field(init=False)
    tfidfs: np.ndarray = field(init=False, repr=False)
    term_columns: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        ptr, tids, freqs = (np.array(a, np.int64) for a in (self.row_ptr, self.term_ids,
                                                             self.freqs))
        n, steps = len(self.page_ids), np.diff(ptr)
        if not (len(ptr) == n + 1 and ptr[0] == 0 and np.all(steps >= 0)
                and ptr[-1] == len(tids) == len(freqs)
                and np.all((tids >= 0) & (tids < len(self.vocabulary)))
                and all(a < b for a, b in zip(self.page_ids, self.page_ids[1:]))):
            raise ValueError("not a CSR of known term ids over ascending page ids")
        rows = np.repeat(np.arange(n), steps)
        if np.any((tids[1:] <= tids[:-1]) & (rows[1:] == rows[:-1])):
            raise ValueError("a page's term ids do not strictly ascend")
        df = np.array(self.vocabulary.doc_freq, np.int64)[tids]
        base = df.max(initial=0) + 1  # one int64 code per (f, df); a caller's df may exceed n
        codes, inverse = np.unique(freqs * base + df, return_inverse=True)
        f_of, df_of = np.divmod(codes, base)
        table = np.array([tfidf(f, d, n) for f, d in zip(f_of.tolist(), df_of.tolist())], np.float64)
        object.__setattr__(self, "n_pages", n)
        for name, arr in (("row_ptr", ptr), ("term_ids", tids), ("freqs", freqs),
                          ("tfidfs", table[inverse])):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # the unit page rows; a stable sort keeps each term's concepts ascending
        bounds, dims, weights = _unit_rows(rows, tids, self.tfidfs, n)
        order = np.argsort(dims, kind="stable")
        concepts, weights = np.repeat(np.arange(n), np.diff(bounds))[order], weights[order]
        ptr = np.zeros(len(self.vocabulary) + 1, np.int64)
        np.cumsum(np.bincount(dims, minlength=len(self.vocabulary)), out=ptr[1:])
        ptr.flags.writeable = concepts.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "term_columns", (ptr, concepts, weights))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vocabulary == other.vocabulary and self.page_ids == other.page_ids
                and all(np.array_equal(getattr(self, a), getattr(other, a))
                        for a in ("row_ptr", "term_ids", "freqs")))

    @functools.cached_property
    def _slices(self) -> dict[int, slice]:
        # each page's entries in term_ids, freqs and tfidfs
        ptr = self.row_ptr.tolist()
        return {pid: slice(a, b) for pid, a, b in zip(self.page_ids, ptr, ptr[1:])}

    @functools.cached_property
    def _term_pages(self) -> np.ndarray:
        # the number of pages holding each term
        return np.bincount(self.term_ids, minlength=len(self.vocabulary))

    @functools.cached_property
    def page_term_freqs(self) -> dict[int, dict[int, int]]:
        """Each page's raw term frequencies, by page id."""
        tids, freqs = self.term_ids.tolist(), self.freqs.tolist()
        return {pid: dict(zip(tids[s], freqs[s])) for pid, s in self._slices.items()}


def build_index(store, analyzer: Analyzer, vocabulary: Vocabulary) -> EsaIndex:
    """Build the index of the store's pages over the vocabulary's terms."""
    counts = {p.page_id: Counter(analyzer.analyze(p.text)) for p in store.pages}
    return index_from_counts(counts, vocabulary)


def index_from_counts(
    page_counts: Mapping[int, Mapping[str, int]], vocabulary: Vocabulary
) -> EsaIndex:
    """``build_index`` over pages already analyzed: each page's term
    counts, by page id."""
    ids = vocabulary.term_to_id
    return index_from_freqs({
        pid: {ids[t]: f for t, f in page_counts[pid].items() if t in ids} for pid in page_counts
    }, vocabulary)


def index_from_freqs(
    page_term_freqs: dict[int, dict[int, int]], vocabulary: Vocabulary
) -> EsaIndex:
    """Assemble an index from precomputed per-page raw term frequencies."""
    page_ids = tuple(sorted(page_term_freqs))
    rows = [sorted(page_term_freqs[pid].items()) for pid in page_ids]
    entries = np.array([e for row in rows for e in row], np.int64).reshape(-1, 2)
    return EsaIndex(vocabulary, page_ids, np.cumsum([0, *map(len, rows)]),
                    entries[:, 0], entries[:, 1])


def word_vector(index: EsaIndex, term_id: int) -> SparseVector:
    """The term's column of the transposed tfidf matrix, in concept space."""
    if not 0 <= term_id < len(index.vocabulary):
        raise KeyError(f"unknown term id {term_id}")
    ptr, concepts, weights = index.term_columns
    lo, hi = ptr[term_id], ptr[term_id + 1]
    # unchecked views of the read-only columns: their weights are nonzero
    # tfidfs (f >= 1, 1 <= df <= n), and each page's term ids ascend
    return SparseVector._trusted(concepts[lo:hi], weights[lo:hi], CONCEPT_SPACE)


def relatedness(index: EsaIndex, term_a: int, term_b: int) -> float:
    """Cosine of the two word vectors; 0 when either vector is zero."""
    va = word_vector(index, term_a)
    vb = word_vector(index, term_b)
    c = va.cosine(vb)
    return min(1.0, max(0.0, c))


# concept_vectors reads rows in chunks of about this many terms, and sums a
# chunk in blocks of at most this many products and this many dense output
# cells (rows x pages), so each of its temporary arrays takes about 128 KiB.
_BLOCK = 1 << 14


def concept_vectors(
    index: EsaIndex, rows: Iterable[Mapping[int, float]]
) -> list[SparseVector]:
    """Concept vectors of term-weight rows; each is unit-norm or zero.

    A row maps term ids to weights t_w. Its vector is the sum of
    t_w * word_vector(w), divided by sqrt(sum of t_w ** 2) and then
    explicitly renormalized to unit norm (word vectors are not
    orthonormal, so the first division alone does not yield a unit
    vector). Zero-weight terms are skipped. A row with nothing left is the
    zero vector. A nonzero weight on a term id outside the vocabulary
    raises ``KeyError``.

    The rows are read in chunks of about ``_BLOCK`` terms, and each chunk
    is cut into blocks of consecutive rows, each holding at most ``_BLOCK``
    products and ``_BLOCK`` dense output cells (a row that alone holds
    more is a block of its own), so the memory used does not grow with the
    batch. A block lists its rows in batch
    order, each row's nonzero terms in ascending term id, and each term's
    concepts in ascending order; the product ``t_w * weight`` goes to flat
    cell ``row_in_block * n_pages + concept``, and one weighted
    ``np.bincount`` sums them. ``bincount`` adds its weights one by one in
    input order into cells that start at 0.0, so each (row, concept) cell
    gets the same floating-point additions, in the same order, as a loop
    that adds each term's products to a zeroed dense row. ``sum(t_w ** 2)``
    is summed the same way. Each row is then renormalized as
    ``SparseVector.unit`` does it: the builtin ``sum`` of the squared
    weights, then one division per weight. So a row's bits do not depend
    on the batch or the block it comes in. A matrix product would sum in
    an order that depends on the operands' shapes.
    """
    # every row's terms in ascending term id, the rows in batch order
    tids, ts, row_ptr = [], [], [0]
    for row in rows:
        keys = sorted(row)
        tids += keys
        ts += map(row.__getitem__, keys)
        row_ptr.append(len(tids))
    return _csr_vectors(index, row_ptr, tids, ts)


def _csr_vectors(index: EsaIndex, row_ptr, term_ids, ts) -> list[SparseVector]:
    """``concept_vectors`` of rows given as a CSR: row i has the terms
    ``term_ids[row_ptr[i]:row_ptr[i + 1]]`` (ascending) with the weights ``ts``
    there. The rows are read in chunks of about ``_BLOCK`` terms."""
    row_ptr = np.asarray(row_ptr, np.int64).tolist()
    term_ids, ts = np.asarray(term_ids, np.int64), np.asarray(ts, np.float64)
    out, r0, n_rows = [], 0, len(row_ptr) - 1
    while r0 < n_rows:
        # up to the first row that ends _BLOCK terms or more past the chunk's start
        r1 = min(bisect.bisect_left(row_ptr, row_ptr[r0] + _BLOCK, r0 + 1), n_rows)
        a, b = row_ptr[r0], row_ptr[r1]
        out += _chunk_vectors(index, term_ids[a:b], ts[a:b], np.diff(row_ptr[r0:r1 + 1]))
        r0 = r1
    return out


def _chunk_vectors(index: EsaIndex, tids: np.ndarray, ts: np.ndarray, counts) -> list[SparseVector]:
    """The vectors of consecutive rows, given their terms and weights in
    order and each row's term count."""
    ptr, concepts, weights = index.term_columns
    n_pages = index.n_pages
    n_rows = len(counts)
    keep = ts != 0.0
    ts = ts[keep]
    tids = tids[keep]
    row_of = np.repeat(np.arange(n_rows), counts)[keep]
    bad = (tids < 0) | (tids >= len(ptr) - 1)
    if bad.any():
        raise KeyError(f"unknown term id {int(tids[bad.argmax()])}")
    sq = np.bincount(row_of, ts * ts, minlength=n_rows)
    starts = ptr[tids]
    lengths = ptr[tids + 1] - starts
    # the products before each term of the chunk, and before each row
    before = np.concatenate(([0], np.cumsum(lengths)))
    row_start = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=n_rows))))
    row_before = before[row_start].tolist()
    row_start = row_start.tolist()
    out = []
    r0 = 0
    while r0 < n_rows:
        r1 = r0 + 1
        while (r1 < n_rows and row_before[r1 + 1] - row_before[r0] <= _BLOCK
               and (r1 + 1 - r0) * n_pages <= _BLOCK):
            r1 += 1
        e0, e1 = row_start[r0], row_start[r1]
        dense = np.zeros((r1 - r0) * n_pages)
        n_products = row_before[r1] - row_before[r0]
        if n_products:  # bincount over no products would be int64
            span = lengths[e0:e1]
            # each product's position in the column arrays
            pos = np.repeat(starts[e0:e1] - (before[e0:e1] - before[e0]), span)
            pos += np.arange(n_products)
            cell = concepts[pos]
            cell += np.repeat((row_of[e0:e1] - r0) * n_pages, span)
            products = weights[pos]
            products *= np.repeat(ts[e0:e1], span)
            dense = np.bincount(cell, products, minlength=dense.size)
        # each row divided by the square root of its sum of squared term
        # weights; a row whose sum is 0 is the zero vector
        dense, scale = dense.reshape(r1 - r0, n_pages), np.sqrt(sq[r0:r1])
        dense[scale == 0.0] = 0.0
        row, dims = np.nonzero(dense)  # in row-major order
        bounds, dims, values = _unit_rows(row, dims, dense[row, dims] / scale[row], r1 - r0)
        _check_weights(values)
        out += [SparseVector._trusted(dims[a:b], values[a:b], CONCEPT_SPACE)
                for a, b in zip(bounds, bounds[1:])]
        r0 = r1
    return out


def _unit_rows(rows: np.ndarray, dims: np.ndarray, values: np.ndarray,
               n_rows: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The row bounds, dims and weights of sparse rows (entries in ascending
    row order) stripped of zeros and renormalized as ``SparseVector.unit``
    does it: the builtin ``sum`` of the squares, then one division each."""
    keep = values != 0.0
    rows, dims, values = rows[keep], dims[keep], values[keep]
    bounds = np.searchsorted(rows, np.arange(n_rows + 1)).tolist()
    squares = (values * values).tolist()
    # a zero norm divides by 1.0, which leaves every weight as it is
    norms = [math.sqrt(sum(squares[a:b])) or 1.0 for a, b in zip(bounds, bounds[1:])]
    values /= np.repeat(norms, np.diff(bounds))
    return bounds, dims, values


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
    _check_entries(dims, weights, _TAG_SPACES[tag])
    return SparseVector._trusted(dims, weights, _TAG_SPACES[tag]), end


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
