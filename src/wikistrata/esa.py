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
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from wikistrata import textproc
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
    "save_vector_set",
    "load_vector_set",
]

_MAGIC = b"ESAV"
_VERSION = 1
_CONCEPT_TAG = 1  # the space tag of every ESAV record: each vector is in concept space
# ESAV v1: magic, version, space tag, entry count, then the entries.
_HEADER = struct.Struct("<4sHBQ")
_ENTRY = np.dtype([("dim", "<u4"), ("weight", "<f8")])
_SET_MAGIC = b"ESVS"
_U64 = struct.Struct("<Q")
# an ESVS record's key, then its ESAV header
_RECORD = struct.Struct("<Q4sHBQ")


class SparseVector:
    """Sorted sparse vector with non-negative finite weights.

    The entries live in two read-only numpy arrays, ``int64`` dimensions
    and ``float64`` weights; the package's kernels (``concept_vectors``,
    the ESVS codec, ``dot``, ``norm``, ``cross_validate``, and
    ``weight_edges``, which sums every edge's dot in one batch with the
    bits of ``dot``) read them as ``_dims`` and ``_weights``. ``dot`` is
    ``_sorted_dot`` of those arrays, which ``relatedness`` calls on two
    term columns without building a vector. The public
    ``dims`` and ``weights`` are tuples of ``int`` and ``float``, built on
    first access and then kept. Equality and hashing are those of the
    tuples, and a vector is immutable.
    """

    __slots__ = ("_dims", "_weights", "_dims_tuple", "_weights_tuple")

    def __new__(cls, dims, weights):
        dims, weights = np.array(tuple(dims), np.int64), np.array(tuple(weights), np.float64)
        _check_entries(dims, weights)
        return cls._trusted(dims, weights)

    @classmethod
    def _trusted(cls, dims: np.ndarray, weights: np.ndarray) -> "SparseVector":
        """A vector that takes over ``int64`` dims and ``float64`` weights
        that already meet every check, unchecked."""
        for arr in (dims, weights):
            if arr.flags.writeable:
                arr.flags.writeable = False
        vec = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(vec, "_dims", dims)
        setattr_(vec, "_weights", weights)
        setattr_(vec, "_dims_tuple", None)
        setattr_(vec, "_weights_tuple", None)
        return vec

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return SparseVector, (self._dims, self._weights)

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
        return (np.array_equal(self._dims, other._dims)
                and np.array_equal(self._weights, other._weights))

    def __hash__(self):
        return hash((self.dims, self.weights))

    def __repr__(self):
        return f"SparseVector(dims={self.dims!r}, weights={self.weights!r})"

    @classmethod
    def from_dict(cls, entries: dict[int, float]) -> "SparseVector":
        items = sorted((d, w) for d, w in entries.items() if w != 0.0)
        return cls(tuple(d for d, _ in items), tuple(w for _, w in items))

    def to_dict(self) -> dict[int, float]:
        return dict(zip(self._dims.tolist(), self._weights.tolist()))

    @property
    def nnz(self) -> int:
        return len(self._dims)

    def is_zero(self) -> bool:
        return not len(self._dims)

    def norm(self) -> float:
        # the squares added left to right from 0.0, in ascending dim order
        w = self._weights
        return math.sqrt(_ordered_sums(w * w, np.zeros(w.size, np.intp), 1)[0])

    def dot(self, other: "SparseVector") -> float:
        """The products over the shared dims, added left to right from 0.0
        in ascending dim order: ``_sorted_dot`` of the two entry arrays."""
        return _sorted_dot(self._dims, self._weights, other._dims, other._weights)

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
        _check_entries(self._dims, weights)
        return SparseVector._trusted(self._dims, weights)

    @classmethod
    def zero(cls) -> "SparseVector":
        return cls((), ())


def _sorted_dot(a_dims: np.ndarray, a_weights: np.ndarray,
                b_dims: np.ndarray, b_weights: np.ndarray) -> float:
    """The dot product of two sparse vectors given as ascending ``int64``
    dims and their ``float64`` weights: the shorter vector's dims (the
    first's on a tie) looked up in the other's with one ``searchsorted``,
    and the products over the shared dims added left to right from 0.0 in
    ascending dim order by one ``_ordered_sums``."""
    if len(a_dims) > len(b_dims):
        a_dims, a_weights, b_dims, b_weights = b_dims, b_weights, a_dims, a_weights
    # the longer side is empty only when the shorter one is
    pos = b_dims.searchsorted(a_dims)
    hit = b_dims.take(pos, mode="clip") == a_dims
    products = a_weights[hit] * b_weights[pos[hit]]
    return _ordered_sums(products, np.zeros(products.size, np.intp), 1).item()


def _check_entries(dims: np.ndarray, weights: np.ndarray) -> None:
    """The constructor's checks, over its ``int64`` and ``float64`` arrays."""
    if len(dims) != len(weights):
        raise ValueError("dims and weights differ in length")
    if np.any(dims[1:] <= dims[:-1]):
        raise ValueError("dimensions must be strictly increasing")
    _check_weights(weights)


def _check_weights(weights: np.ndarray) -> None:
    bad = ~(np.isfinite(weights) & (weights >= 0))
    if bad.any():
        w = float(weights[bad.argmax()])
        raise ValueError(f"weight {w!r} is not finite and non-negative")


class _VectorSet(NamedTuple):
    """A set of sparse vectors as arrays: the vector under ``keys[i]`` (keys
    ascending) has the dims ``dims[ptr[i]:ptr[i + 1]]`` (``int64``,
    ascending) with the ``float64`` weights there. The kernel emits this
    form, the ESVS codec reads and writes it, and the pipeline's stages
    hand it over. ``catgraph._component_tables`` returns its tables in it,
    with term ids as dims."""

    keys: tuple[int, ...]
    ptr: np.ndarray
    dims: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, vectors: Mapping[int, SparseVector]) -> "_VectorSet":
        keys = tuple(sorted(vectors))
        vecs = [vectors[key] for key in keys]
        ptr = np.zeros(len(vecs) + 1, np.int64)
        np.cumsum([v.nnz for v in vecs], out=ptr[1:])
        return cls(keys, ptr, np.concatenate([np.zeros(0, np.int64), *(v._dims for v in vecs)]),
                   np.concatenate([np.zeros(0), *(v._weights for v in vecs)]))

    def vectors(self, copy: bool = False) -> dict[int, SparseVector]:
        """Each vector by its key: read-only views of the arrays, or with
        ``copy`` arrays of its own."""
        ptr, own = self.ptr.tolist(), np.ndarray.copy if copy else (lambda a: a)
        return {key: SparseVector._trusted(own(self.dims[a:b]), own(self.weights[a:b]))
                for key, a, b in zip(self.keys, ptr, ptr[1:])}


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
    So are the two per-term lists that ``relatedness`` reads on each query:
    ``_term_bounds``, the column bounds ``ptr`` as ints, and
    ``_term_norms``, each word vector's norm.
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
        # the unit page rows, without the zero tfidfs of terms on every page;
        # a stable sort keeps each term's concepts ascending
        keep = self.tfidfs != 0.0
        rows, dims = rows[keep], tids[keep]
        weights = _unit_rows(self.tfidfs[keep], rows, n)
        order = np.argsort(dims, kind="stable")
        concepts, weights = rows[order], weights[order]
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
    def _page_array(self) -> np.ndarray:
        # page_ids as an int64 array
        return np.array(self.page_ids, np.int64)

    @functools.cached_property
    def _term_pages(self) -> np.ndarray:
        # the number of pages holding each term
        return np.bincount(self.term_ids, minlength=len(self.vocabulary))

    @functools.cached_property
    def _term_bounds(self) -> list[int]:
        # term_columns' ptr as ints: term t's column is [bounds[t], bounds[t + 1])
        return self.term_columns[0].tolist()

    @functools.cached_property
    def _term_norms(self) -> list[float]:
        # word_vector(self, t).norm() of each term t, whose concepts ascend
        ptr, _concepts, weights = self.term_columns
        terms = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
        return np.sqrt(_ordered_sums(weights * weights, terms, len(ptr) - 1)).tolist()

    @functools.cached_property
    def page_term_freqs(self) -> dict[int, dict[int, int]]:
        """Each page's raw term frequencies, by page id."""
        tids, freqs = self.term_ids.tolist(), self.freqs.tolist()
        return {pid: dict(zip(tids[s], freqs[s])) for pid, s in self._slices.items()}


def build_index(store, analyzer: Analyzer, vocabulary: Vocabulary) -> EsaIndex:
    """Build the index of the store's pages over the vocabulary's terms.

    The pages go through one ``textproc._term_counts`` pass, which analyzes
    each distinct token once: the analyzer's stemmer must be a pure
    function of its token. Of pages that share an id, the last counts."""
    texts = {p.page_id: p.text for p in store.pages}
    page_ids = tuple(sorted(texts))
    table = textproc._term_counts(analyzer, map(texts.__getitem__, page_ids))
    return _index_from_table(table, page_ids, vocabulary)


def _index_from_table(table: textproc._TermCounts, page_ids: tuple[int, ...],
                      vocabulary: Vocabulary) -> EsaIndex:
    """The index of a ``_term_counts`` table whose rows are the pages
    ``page_ids``, ascending: its entries of the vocabulary's terms,
    renumbered to their term ids."""
    ids = vocabulary.term_to_id
    id_of = np.array([ids.get(t, -1) for t in table.terms], np.int64)  # -1: not kept
    new_id = id_of[table.term_ids]
    kept = new_id >= 0
    rows = np.repeat(np.arange(len(page_ids)), np.diff(table.row_ptr))[kept]
    term_ids, freqs = new_id[kept], table.counts[kept]
    known = id_of[id_of >= 0]
    if np.any(known[1:] < known[:-1]):  # ids out of term order: sort each page again
        order = np.lexsort((term_ids, rows))
        term_ids, freqs = term_ids[order], freqs[order]
    row_ptr = np.zeros(len(page_ids) + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=len(page_ids)), out=row_ptr[1:])
    return EsaIndex(vocabulary, page_ids, row_ptr, term_ids, freqs)


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
    return SparseVector._trusted(concepts[lo:hi], weights[lo:hi])


def relatedness(index: EsaIndex, term_a: int, term_b: int) -> float:
    """Cosine of the two word vectors, clipped to [0, 1]; 0 when either
    vector is zero. An id outside the vocabulary raises ``KeyError``.

    No vector is built: the two terms' slices of ``index.term_columns``
    (bounds from ``EsaIndex._term_bounds``) go to ``_sorted_dot``, the
    kernel of ``SparseVector.dot``, so the bits are those of
    ``word_vector(index, a).dot(word_vector(index, b)) / (na * nb)``."""
    norms = index._term_norms  # one per vocabulary term
    for term_id in (term_a, term_b):
        if not 0 <= term_id < len(norms):
            raise KeyError(f"unknown term id {term_id}")
    na, nb = norms[term_a], norms[term_b]
    if na == 0.0 or nb == 0.0:
        return 0.0
    bounds, (_ptr, concepts, weights) = index._term_bounds, index.term_columns
    a = slice(bounds[term_a], bounds[term_a + 1])
    b = slice(bounds[term_b], bounds[term_b + 1])
    c = _sorted_dot(concepts[a], weights[a], concepts[b], weights[b]) / (na * nb)
    return min(1.0, max(0.0, c))


# the passes that bound their temporary arrays (_csr_vectors, _vector_set_bytes,
# and catgraph's _component_tables and _pair_dots) take blocks of items whose
# costs add up to at most this; a block of the kernel takes about 128 KiB.
_BLOCK = 1 << 14


def _blocks(costs, limit: int) -> list[tuple[int, int]]:
    """Consecutive items cut into greedy runs ``(start, stop)``: a run takes
    the next items while their costs (non-negative integers) add up to at
    most ``limit``, and an item that alone costs more is a run of its own.
    The one rule by which a batched pass decides where a block ends."""
    ends = [0, *np.cumsum(costs, dtype=np.int64).tolist()]
    runs, start = [], 0
    while start < len(ends) - 1:
        stop = max(start + 1, bisect.bisect_right(ends, ends[start] + limit, start) - 1)
        runs.append((start, stop))
        start = stop
    return runs


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

    The rows go to ``_csr_vectors`` as one set keyed 0, 1, ... in batch
    order, which cuts them into ``_blocks`` where a row costs the larger of
    its products and its dense output cells (one per page). So beyond a few
    arrays the size of the input, one entry per row term, the memory used
    does not grow with the batch. A block lists its rows in batch order,
    each row's nonzero terms in ascending term id, and each term's concepts
    in ascending order; the product ``t_w * weight`` goes to flat
    cell ``row_in_block * n_pages + concept``, and one weighted
    ``np.bincount`` sums them. ``bincount`` adds its weights one by one in
    input order into cells that start at 0.0, so each (row, concept) cell
    gets the same floating-point additions, in the same order, as a loop
    that adds each term's products to a zeroed dense row. ``sum(t_w ** 2)``
    is summed the same way. Each row is then renormalized as
    ``SparseVector.unit`` does it: ``_ordered_sums`` of the squared weights,
    then one division per weight. So a row's bits do not depend on the
    batch or the block it comes in. A matrix product would sum in an order
    that depends on the operands' shapes.
    """
    # every row's terms in ascending term id, the rows in batch order
    tids, ts, row_ptr = [], [], [0]
    for row in rows:
        keys = sorted(row)
        tids += keys
        ts += map(row.__getitem__, keys)
        row_ptr.append(len(tids))
    csr = _VectorSet(tuple(range(len(row_ptr) - 1)), np.array(row_ptr, np.int64),
                     np.array(tids, np.int64), np.array(ts, np.float64))
    return list(_csr_vectors(index, csr).vectors().values())


def _csr_vectors(index: EsaIndex, rows: _VectorSet) -> _VectorSet:
    """``concept_vectors`` of a set of term-weight rows: the row under a key
    has term ids as dims (ascending) and its weights t_w, and its concept
    vector is the result's vector under the same key. The rows go in
    ``_blocks`` of at most ``_BLOCK``, where a row costs
    ``max(products, n_pages)``: its products, and its dense output cells.
    The per-entry arrays are the size of the rows and of the result; the
    blocks bound the rest."""
    counts = np.diff(np.asarray(rows.ptr, np.int64))
    tids, ts = np.asarray(rows.dims, np.int64), np.asarray(rows.weights, np.float64)
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
    # the products before each term, and before each row
    before = np.concatenate(([0], np.cumsum(lengths)))
    row_start = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=n_rows))))
    products_of = np.diff(before[row_start])
    # room for each row's at most min(n_pages, products) entries, filled
    # block by block: the set is built in place, without a second copy
    room = int(np.minimum(products_of, n_pages).sum())
    ptr = np.zeros(n_rows + 1, np.int64)
    out_dims, out_values = np.empty(room, np.int64), np.empty(room)
    row_start = row_start.tolist()
    for r0, r1 in _blocks(np.maximum(products_of, n_pages), _BLOCK):
        e0, e1 = row_start[r0], row_start[r1]
        dense = np.zeros((r1 - r0) * n_pages)
        n_products = int(before[e1] - before[e0])
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
        # each row divided in place by the square root of its sum of squared
        # term weights; a row whose sum is 0 is the zero vector
        dense, scale = dense.reshape(r1 - r0, n_pages), np.sqrt(sq[r0:r1])
        dense[scale == 0.0] = 0.0
        dense /= np.where(scale == 0.0, 1.0, scale)[:, None]
        cells = np.flatnonzero(dense)  # in row-major order
        row, dims = np.divmod(cells, n_pages)
        values = _unit_rows(dense.ravel()[cells], row, r1 - r0)
        _check_weights(values)
        ptr[r0 + 1:r1 + 1] = ptr[r0] + np.cumsum(np.bincount(row, minlength=r1 - r0))
        out_dims[ptr[r0]:ptr[r1]] = dims
        out_values[ptr[r0]:ptr[r1]] = values
    return _VectorSet(rows.keys, ptr, out_dims[:ptr[-1]], out_values[:ptr[-1]])


def _unit_rows(values: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """The nonzero weights of sparse rows (``values[i]`` in row ``rows[i]``,
    rows ascending) renormalized in place as ``SparseVector.unit`` does it:
    ``_ordered_sums`` of the squares, then one division each. A zero norm
    (of subnormal squares) divides by 1.0, which leaves every weight as it is."""
    norms = np.sqrt(_ordered_sums(values * values, rows, n_rows))
    values /= np.where(norms == 0.0, 1.0, norms)[rows]
    return values


def _ordered_sums(values, segments, n: int) -> np.ndarray:
    """The ``float64`` sum of each of ``n`` segments (``values[i]`` is in segment
    ``segments[i]``), from 0.0 left to right as ``total += x`` adds: the package's
    one float sum, on any Python version. ``np.bincount`` is ``int64`` on no values."""
    return np.bincount(segments, values, minlength=n).astype(np.float64, copy=False)


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
# Serialization: the multi-vector container used by the pipeline ("ESVS":
# count, then per entry a u64 key followed by an embedded "ESAV" record).
# All integers are little-endian; see README.md for the byte layout. The
# tests keep a reader and writer of lone ESAV records in tests/oracles.py.

@contextmanager
def _open_atomic(path):
    """Open a temporary binary file next to ``path`` and move it onto
    ``path`` once the block completes, so an interrupted write never leaves
    a partial file under the final name."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _need(buf: bytes, end: int, what: str) -> None:
    if end > len(buf):
        raise ValueError(f"truncated {what}: needs {end} bytes, only {len(buf)} present")


def _entries_at(buf: bytes, offset: int) -> tuple[int, int]:
    """The start and end of the entries of the ESAV record at ``offset``."""
    if buf[offset:offset + 4] != _MAGIC:
        raise ValueError("bad magic; not an ESAV vector")
    _need(buf, offset + _HEADER.size, "ESAV header")
    _magic, version, tag, count = _HEADER.unpack_from(buf, offset)
    if version != _VERSION:
        raise ValueError(f"unsupported ESAV version {version}")
    if tag != _CONCEPT_TAG:
        raise ValueError(f"unknown ESAV space tag {tag}")
    offset += _HEADER.size
    end = offset + count * _ENTRY.itemsize
    _need(buf, end, f"ESAV vector of {count} entries")
    return offset, end


def _check_end(buf: bytes, offset: int) -> None:
    if offset != len(buf):
        raise ValueError(f"{len(buf) - offset} trailing bytes after the last vector")


def save_vector_set(path, vectors: dict[int, SparseVector]) -> None:
    with _open_atomic(path) as fh:
        for block in _vector_set_bytes(_VectorSet.of(vectors)):
            fh.write(block)


def load_vector_set(path) -> dict[int, SparseVector]:
    """Read an ESVS file, rejecting any byte that ``save_vector_set`` would
    not have written there (see ``_read_vector_set``). Each vector holds
    arrays of its own."""
    return _read_vector_set(path).vectors(copy=True)


def _vector_set_bytes(vs: _VectorSet):
    """The ESVS bytes of a vector set, as a header block, then one block
    per run of ``_blocks`` of at most ``_BLOCK``, where a vector costs its
    entries, so the packed copy does not grow with the set. ``ValueError``,
    before the first block, for a key that does not fit 64 unsigned bits."""
    ptr, keys = vs.ptr.tolist(), vs.keys
    low, high = min(keys, default=0), max(keys, default=0)
    if low < 0 or high >= 2**64:  # struct would refuse it midway through the file
        raise ValueError(f"key {low if low < 0 else high} does not fit an unsigned 64-bit field")
    yield _SET_MAGIC + _U64.pack(len(keys))
    for r0, r1 in _blocks(np.diff(vs.ptr), _BLOCK):
        lo, dims = ptr[r0], vs.dims[ptr[r0]:ptr[r1]]
        bad = (dims < 0) | (dims >= 2**32)
        if bad.any():  # struct refused these; a <u4 array could wrap them silently
            i = int(vs.ptr.searchsorted(lo + int(bad.argmax()), "right")) - 1
            raise ValueError(f"dimensions {vs.dims[ptr[i]]}..{vs.dims[ptr[i + 1] - 1]} "
                             "do not fit an unsigned 32-bit field")
        entries = np.empty(len(dims), _ENTRY)
        entries["dim"] = dims
        entries["weight"] = vs.weights[lo:ptr[r1]]
        data, size, parts = memoryview(entries.tobytes()), _ENTRY.itemsize, []
        for i in range(r0, r1):
            a, b = ptr[i], ptr[i + 1]
            parts += (_RECORD.pack(keys[i], _MAGIC, _VERSION, _CONCEPT_TAG, b - a),
                      data[(a - lo) * size:(b - lo) * size])
        yield b"".join(parts)


def _read_vector_set(path) -> _VectorSet:
    """Read an ESVS file into a vector set: the records one by one, then
    every entry as one array. ``ValueError`` for a bad magic, version or
    space tag, keys that do not strictly ascend, a truncated file, trailing
    bytes, non-increasing dims and NaN, infinite or negative weights; for
    the first record that fails a check, as the per-vector reader raised it."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != _SET_MAGIC:
        raise ValueError("bad magic; not an ESVS vector set")
    _need(buf, 4 + _U64.size, "ESVS header")
    (count,) = _U64.unpack_from(buf, 4)
    offset, view = 4 + _U64.size, memoryview(buf)
    keys, nnz, spans = [], [0], []
    for _ in range(count):
        _need(buf, offset + _U64.size, f"ESVS set of {count} vectors")
        (key,) = _U64.unpack_from(buf, offset)
        if keys and key <= keys[-1]:
            raise ValueError(f"ESVS key {key} after key {keys[-1]}: keys must strictly ascend")
        start, offset = _entries_at(buf, offset + _U64.size)
        keys.append(key)
        nnz.append((offset - start) // _ENTRY.itemsize)
        spans.append(view[start:offset])
    _check_end(buf, offset)
    entries = np.frombuffer(b"".join(spans), _ENTRY)
    del buf, view, spans  # the file's bytes go before the arrays are made
    dims, weights = entries["dim"].astype(np.int64), entries["weight"].astype(np.float64)
    ptr = np.cumsum(nnz)
    # the first vector whose dims fail to ascend, and the first with a bad
    # weight; a vector's first entry (one in ptr) follows nothing
    down = np.flatnonzero(dims[1:] <= dims[:-1]) + 1
    down = down[ptr[ptr.searchsorted(down)] != down]
    bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0)))
    first = [ptr.searchsorted(at[:1], "right") - 1 for at in (down, bad)]
    if first[0].size and not (first[1].size and first[1][0] < first[0][0]):
        raise ValueError("dimensions must be strictly increasing")
    _check_weights(weights[bad[:1]])
    return _VectorSet(tuple(keys), ptr, dims, weights)
