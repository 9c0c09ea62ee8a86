"""Category digraph: leaf sets, categorical tfidf, category vectors,
edge weighting, and structural diagnostics (cycles, degree power laws).

Category graphs may contain cycles, so leaf sets are computed on the
strongly-connected-component condensation of the inclusion subgraph.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from wikistrata.esa import (
    _BLOCK,
    EsaIndex,
    SparseVector,
    _blocks,
    _ordered_sums,
    _VectorSet,
    concept_vectors,
)

__all__ = [
    "Node",
    "CategoryGraph",
    "LeafSetIndex",
    "WeightedEdge",
    "build_graph",
    "leaf_sets",
    "categorical_tfidf",
    "category_term_weights",
    "category_vector",
    "weight_edges",
    "cycle_census",
    "CycleReport",
    "degree_stats",
    "DegreeStats",
    "PowerLawFit",
    "fit_power_law",
    "strongly_connected_components",
]

PAGE = "p"
CATEGORY = "c"


class Node(NamedTuple):
    """One shared node-id space over pages and categories via a kind tag."""

    kind: str
    id: int

    def __str__(self) -> str:
        return f"{self.kind}:{self.id}"

    @classmethod
    def parse(cls, text: str) -> "Node":
        kind, _, raw = text.partition(":")
        if kind not in (PAGE, CATEGORY):
            raise ValueError(f"bad node literal {text!r}")
        return cls(kind, int(raw))

    @classmethod
    def page(cls, page_id: int) -> "Node":
        return cls(PAGE, page_id)

    @classmethod
    def category(cls, category_id: int) -> "Node":
        return cls(CATEGORY, category_id)


def _rank(sorted_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The index of each of ``ids`` in the ascending ``sorted_ids``, -1 where absent."""
    at = np.searchsorted(sorted_ids, ids)
    return np.where(sorted_ids.take(at, mode="clip") == ids, at, -1) if len(sorted_ids) else at - 1


@dataclass(frozen=True, eq=False)
class _Labels:
    """Nodes numbered in sorted ``Node`` order: category ``cats[i]`` is label
    ``i`` and page ``pages[j]`` label ``len(cats) + j`` (``int64``, ascending).
    The stage path runs on labels, and makes a ``Node`` only at a public
    function's boundary."""

    cats: np.ndarray
    pages: np.ndarray

    def __len__(self) -> int:
        return len(self.cats) + len(self.pages)

    @classmethod
    def of(cls, nodes: list[Node]) -> "_Labels":
        """The labels of ``nodes``, distinct ``Node``s in sorted order.
        ValueError names the first that is not a ``Node``."""
        for n in nodes:
            if not isinstance(n, Node):
                raise ValueError(f"node {n!r} is not a Node")
        pages = np.fromiter((n.kind == PAGE for n in nodes), bool, len(nodes))
        ids = np.fromiter((n.id for n in nodes), np.int64, len(nodes))
        return cls(ids[~pages], ids[pages])

    def nodes(self) -> list[Node]:
        return [*map(Node, itertools.repeat(CATEGORY), self.cats.tolist()),
                *map(Node, itertools.repeat(PAGE), self.pages.tolist())]

    def texts(self) -> list[str]:
        """Each label's ``str(Node)``."""
        return [*map("c:{}".format, self.cats.tolist()), *map("p:{}".format, self.pages.tolist())]


@dataclass(frozen=True)
class CategoryGraph:
    """Membership edges (page -> category) and inclusion edges (category -> category)."""

    page_ids: frozenset[int]
    category_ids: frozenset[int]
    membership: frozenset[tuple[int, int]]
    inclusion: frozenset[tuple[int, int]]
    root_id: int

    @property
    def nodes(self) -> list[Node]:
        return self._csr[0].nodes()

    def edges(self) -> list[tuple[Node, Node, str]]:
        nodes, src, dst, kind = self._csr[0].nodes(), *_edge_order(self)
        return list(zip(map(nodes.__getitem__, src.tolist()), map(nodes.__getitem__, dst.tolist()),
                        map(_KINDS.__getitem__, kind.tolist())))

    @functools.cached_property
    def _csr(self) -> tuple[_Labels, np.ndarray, np.ndarray]:
        """The graph on the labels of its nodes, derived once: the nodes'
        ``_Labels``, then ``ptr`` and ``dst``: node v's out-edges, to a
        page's categories or a category's parents, go to the labels
        ``dst[ptr[v]:ptr[v + 1]]``, ascending, so ``ptr[len(labels.cats)]``
        is the number of inclusion edges. ValueError for an edge endpoint
        that is not a node."""
        inc, mem = (np.fromiter(itertools.chain.from_iterable(pairs), np.int64, 2 * len(pairs))
                    for pairs in (self.inclusion, self.membership))
        child, parent, page, cat = inc[0::2], inc[1::2], mem[0::2], mem[1::2]
        labels = _Labels(*(np.sort(np.fromiter(ids, np.int64, len(ids)))
                           for ids in (self.category_ids, self.page_ids)))
        src = np.concatenate((_rank(labels.cats, child), _rank(labels.pages, page)))
        dst = np.concatenate((_rank(labels.cats, parent), _rank(labels.cats, cat)))
        if np.any(src < 0) or np.any(dst < 0):
            raise ValueError("an edge of the graph has an endpoint that is not a node")
        src[len(child):] += len(labels.cats)
        src, dst = np.divmod(np.sort(src * len(labels) + dst), max(len(labels), 1))
        ptr = np.zeros(len(labels) + 1, np.int64)
        np.cumsum(np.bincount(src, minlength=len(labels)), out=ptr[1:])
        return labels, ptr, dst


_KINDS = ("membership", "inclusion")  # an edge's kind, by its code


def _edge_order(g: CategoryGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each edge's source and target labels and kind code, in ``edges()``
    order: memberships by (page, category), then inclusions by (child, parent)."""
    labels, ptr, dst = g._csr
    src = np.repeat(np.arange(len(labels)), np.diff(ptr))
    cut = ptr[len(labels.cats)]
    kind = np.repeat(np.array([0, 1], np.int8), [len(dst) - cut, cut])
    return np.roll(src, -cut), np.roll(dst, -cut), kind


def build_graph(store) -> CategoryGraph:
    """Lift a corpus store into the page/category digraph (duplicates
    collapse), numbered here (``CategoryGraph._csr``), so an edge whose
    endpoint is not a node raises ValueError. Ids must fit ``int64``."""
    g = CategoryGraph(
        page_ids=frozenset(p.page_id for p in store.pages),
        category_ids=frozenset(c.category_id for c in store.categories),
        membership=frozenset((p.page_id, cid) for p in store.pages for cid in p.category_ids),
        inclusion=frozenset((c.category_id, pid) for c in store.categories for pid in c.parent_ids),
        root_id=store.root_category_id,
    )
    g._csr  # raises here for an edge to a node that is not one
    return g


def strongly_connected_components(nodes, successors) -> list[list]:
    """Iterative Tarjan; components come out in reverse topological order
    (every edge goes from a later-emitted component to an earlier one)."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    counter = 0
    for start in nodes:
        if start in index:
            continue
        work = [(start, iter(successors(start)))]
        index[start] = lowlink[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                elif w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
    return components


@dataclass(frozen=True)
class LeafSetIndex:
    """F(c) per category: pages reaching c via one membership edge plus a
    chain of inclusions. Sets are shared per SCC of the inclusion subgraph,
    and ``comp_of`` maps a category to its SCC's index into ``comp_pages``."""

    comp_of: dict[int, int]
    comp_pages: tuple[tuple[int, ...], ...]

    def pages_of(self, category_id: int) -> tuple[int, ...]:
        return self.comp_pages[self.comp_of[category_id]]

    def smallest_ids(self) -> tuple[int, ...]:
        """Each component's smallest category id, by component index."""
        cats, comps, _ptr, _pages = self._arrays
        numbers, first = np.unique(comps, return_index=True)  # cats ascend
        known = np.zeros(len(self.comp_pages), bool)
        known[numbers[numbers < len(known)]] = True
        if not known.all():
            raise KeyError(int(np.argmin(known)))
        return tuple(cats[first[:len(known)]].tolist())

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``comp_of`` and ``comp_pages`` as ``int64`` arrays, derived once:
        the category ids ascending and the component of each, and the leaf
        pages of component i as ``pages[ptr[i]:ptr[i + 1]]``."""
        cats = np.fromiter(self.comp_of.keys(), np.int64, len(self.comp_of))
        comps = np.fromiter(self.comp_of.values(), np.int64, len(self.comp_of))
        order = np.argsort(cats)
        ptr = np.zeros(len(self.comp_pages) + 1, np.int64)
        np.cumsum(list(map(len, self.comp_pages)), out=ptr[1:])
        pages = np.fromiter(itertools.chain.from_iterable(self.comp_pages), np.int64, ptr[-1])
        return cats[order], comps[order], ptr, pages


def leaf_sets(g: CategoryGraph) -> LeafSetIndex:
    """The leaf sets of the strongly connected components, numbered in the
    order of their smallest category ids (``LeafSetIndex.smallest_ids``),
    over the graph's labels."""
    labels, ptr, dst = g._csr
    n_cats = len(labels.cats)
    bounds, ends = ptr.tolist(), dst.tolist()
    succ = [ends[a:b] for a, b in zip(bounds, bounds[1:])]  # each node's out-edges
    tarjan = strongly_connected_components(range(n_cats), succ.__getitem__)
    comp = np.empty(n_cats, np.int64)  # each category's index in tarjan
    comp[np.fromiter(itertools.chain.from_iterable(tarjan), np.int64, n_cats)] = np.repeat(
        np.arange(len(tarjan)), list(map(len, tarjan)))
    comp_l = comp.tolist()
    sets: list[set[int]] = [set() for _ in tarjan]
    for page, cats in enumerate(succ[n_cats:]):
        for c in cats:
            sets[comp_l[c]].add(page)
    # Tarjan emits components in reverse topological order: every edge goes
    # from a later-emitted component to an earlier one. Sweeping its order
    # backwards therefore folds each component's pages into its parent
    # components only after its own children contributed.
    for i in range(len(tarjan) - 1, -1, -1):
        for j in {comp_l[parent] for c in tarjan[i] for parent in succ[c]} - {i}:
            sets[j] |= sets[i]
    # numbered by smallest label, which is the smallest category id
    by_min = np.argsort(np.unique(comp, return_index=True)[1])
    number = np.empty(len(tarjan), np.int64)
    number[by_min] = np.arange(len(tarjan))
    ids = labels.pages.tolist()
    return LeafSetIndex(dict(zip(labels.cats.tolist(), number[comp].tolist())), tuple(
        tuple(map(ids.__getitem__, sorted(sets[k]))) for k in by_min.tolist()))


def categorical_tfidf(term_id: int, category_id: int, index: EsaIndex, ls: LeafSetIndex) -> float:
    """tfidf generalized to a category.

    tf aggregates the term's raw frequency over the category's leaf pages
    F(c); the idf denominator is 1 + the number of documents containing
    the term outside F(c), so the value is high when the term is common in
    the category and rare elsewhere. This is the term's entry in the uncut
    ``category_term_weights``, and each call builds that whole table over
    F(c): a caller that reads many terms of one category should call
    ``category_term_weights(category_id, index, ls, None)`` once instead.
    Raises ValueError when no leaf page holds the term, and KeyError for
    an unknown category.
    """
    weight = category_term_weights(category_id, index, ls, None).get(term_id)
    if weight is None:
        raise ValueError(f"term {term_id} does not occur in any leaf of category {category_id}")
    return weight


def _check_max_nnz(max_nnz) -> None:
    if isinstance(max_nnz, bool) or not isinstance(max_nnz, int) or max_nnz < 1:
        raise ValueError(f"max_nnz must be a positive integer, got {max_nnz!r}")


def category_term_weights(
    category_id: int,
    index: EsaIndex,
    ls: LeafSetIndex,
    max_nnz: int | None = 1000,
) -> dict[int, float]:
    """``categorical_tfidf`` of the category's max_nnz most frequent terms,
    or of every term of F(c) when max_nnz is None, from one pass over F(c).

    Ranking is by aggregate raw frequency over F(c), ties broken toward
    the smaller term id. Empty leaf set gives an empty map. Raises
    ValueError unless max_nnz is None or a positive integer.
    """
    table = _component_tables(index, ls, [ls.comp_of[category_id]], max_nnz)
    return dict(zip(table.dims.tolist(), table.weights.tolist()))


def _component_tables(index: EsaIndex, ls: LeafSetIndex, comps: list[int],
                      max_nnz: int | None) -> _VectorSet:
    """``category_term_weights`` of a category of each component in
    ``comps`` (indexes into ``ls.comp_pages``), in one pass over the CSR
    entries of every (component, leaf page) pair, as one CSR: the table of
    ``comps[i]`` is row i, under key ``comps[i]``, with its term ids
    ascending as dims. The pass reads the components in ``_blocks`` of at
    most ``_BLOCK``, where a component costs its leaf pages' entries, so its
    temporary arrays do not grow with the batch. ``KeyError`` for a leaf
    page the index does not hold."""
    if max_nnz is not None:
        _check_max_nnz(max_nnz)
    _cats, _comps, ptr, pages = ls._arrays
    picked = np.asarray(comps, np.int64)
    n_leaves = np.diff(ptr)[picked]
    # each (component, leaf page) pair's page row in the index
    leaves = pages[_entries(ptr[picked], n_leaves)[1]]
    rows = _rank(index._page_array, leaves)
    if np.any(rows < 0):
        raise KeyError(int(leaves[rows < 0][0]))
    bounds = np.concatenate(([0], np.cumsum(n_leaves)))
    costs = np.concatenate(([0], np.cumsum(np.diff(index.row_ptr)[rows])))[bounds]
    costs, bounds = np.diff(costs).tolist(), bounds.tolist()
    out = [(np.zeros(1, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    out += [_chunk_tables(index, rows[bounds[a]:bounds[b]], n_leaves[a:b], max_nnz)
            for a, b in _blocks(costs, _BLOCK)]
    sizes, terms, weights = (np.concatenate(parts) for parts in zip(*out))
    return _VectorSet(tuple(comps), np.cumsum(sizes), terms, weights)


def _chunk_tables(index: EsaIndex, rows: np.ndarray, n_leaves: np.ndarray,
                  max_nnz: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each component's table size, then every table's term ids and weights,
    for components of ``n_leaves`` leaf pages each, whose index rows follow
    one another in ``rows``."""
    lo = index.row_ptr[rows]
    span = index.row_ptr[rows + 1] - lo
    # each entry's position in the CSR, and its (component, term) key
    leaf, pos = _entries(lo, span)
    key = np.repeat(np.arange(len(n_leaves)), n_leaves)[leaf] * len(index.vocabulary)
    key += index.term_ids[pos]
    order = key.argsort()
    pos, key = pos[order], key[order]
    cuts = np.append(np.flatnonzero(np.diff(key, prepend=-1)), len(key))
    # exact int64 sums of the integer frequencies
    sum_f = np.diff(np.concatenate(([0], np.cumsum(index.freqs[pos])))[cuts])
    n_in = np.diff(cuts)
    comp, term = np.divmod(key[cuts[:-1]], len(index.vocabulary))
    if max_nnz is not None:
        # each component's terms by (-sum_f, term id), then its first max_nnz
        order = np.lexsort((term, -sum_f, comp))
        rank = np.arange(len(order)) - np.searchsorted(comp[order], comp[order])
        kept = np.sort(order[rank < max_nnz])
        comp, term, sum_f, n_in = comp[kept], term[kept], sum_f[kept], n_in[kept]
    n = index.n_pages
    n_out = index._term_pages[term] - n_in  # pages outside F(c) that hold the term
    # one int64 code per distinct (sum_f, n_out), as 0 <= n_out <= n; exact
    # while sum_f * (n + 1) < 2**63
    pairs, inverse = np.unique(sum_f * (n + 1) + n_out, return_inverse=True)
    table = [(1.0 + math.log(f)) * math.log(n / (1 + d))
             for f, d in zip(*(a.tolist() for a in np.divmod(pairs, n + 1)))]
    return np.bincount(comp, minlength=len(n_leaves)), term, np.array(table)[inverse]


def category_vector(
    category_id: int,
    index: EsaIndex,
    ls: LeafSetIndex,
    max_nnz: int = 1000,
) -> SparseVector:
    """Concept-space category vector from truncated categorical tfidfs.

    The concept vector (see ``esa.concept_vectors``) of the category's
    term weights, so the normalization is that of document vectors.
    Categories with an empty leaf set get the zero vector. Raises
    ValueError unless max_nnz is a positive integer.
    """
    _check_max_nnz(max_nnz)
    weights = category_term_weights(category_id, index, ls, max_nnz)
    return concept_vectors(index, [weights])[0]


class WeightedEdge(NamedTuple):
    src: Node
    dst: Node
    kind: str
    p: float
    cost: float


def weight_edges(g: CategoryGraph, vectors: dict[Node, SparseVector]) -> list[WeightedEdge]:
    """Weight every membership/inclusion edge by the dot product of its
    endpoint vectors (unit or zero, so p lies in [0,1]); cost = 1 - p.
    Edges whose endpoints hold the same two vector objects, such as the
    categories of one strongly connected component, share one dot, and
    every dot is summed as ``SparseVector.dot`` sums it (``_pair_dots``).
    ``KeyError`` for an endpoint without a vector."""
    edges = g.edges()
    ends = {n: vectors[n] for src, dst, _kind in edges for n in (src, dst)}
    distinct = {id(v): v for v in ends.values()}  # by object, all alive during the call
    row = dict(zip(distinct, range(len(distinct))))
    vs = _VectorSet.of(dict(enumerate(distinct.values())))
    # dims renumbered in their order, so a dense row is as wide as the dims in use
    vs = vs._replace(dims=np.unique(vs.dims, return_inverse=True)[1])
    rows = {kind: {n.id: row[id(v)] for n, v in ends.items() if n.kind == kind}
            for kind in (PAGE, CATEGORY)}
    p = _edge_weights(g, vs, rows[PAGE], vs, rows[CATEGORY]).tolist()
    return [WeightedEdge(*edge, w, 1.0 - w) for edge, w in zip(edges, p)]


def _edge_weights(g: CategoryGraph, pages: _VectorSet, page_rows, cats: _VectorSet,
                  cat_rows) -> np.ndarray:
    """``weight_edges``' p of each edge, in ``g.edges()`` order (its cost is
    ``1.0 - p``): page p's vector is row ``page_rows[p]`` of ``pages``, and
    category c's is row ``cat_rows[c]`` of ``cats``."""
    labels = g._csr[0]
    src, dst, kind = _edge_order(g)
    n_cats = len(labels.cats)
    # each endpoint's row: in pages for a page, in cats for a category
    row, used = np.full(len(labels), -1, np.int64), np.zeros(len(labels), bool)
    used[src] = used[dst] = True
    ends = np.flatnonzero(used)
    at = ends[ends < n_cats]
    row[at] = np.fromiter(map(cat_rows.__getitem__, labels.cats[at].tolist()), np.int64, len(at))
    at = ends[ends >= n_cats]
    row[at] = np.fromiter(map(page_rows.__getitem__, labels.pages[at - n_cats].tolist()),
                          np.int64, len(at))
    m = len(kind) - np.count_nonzero(kind)  # the memberships come first
    return np.concatenate((_pair_dots(pages, row[src[:m]], cats, row[dst[:m]]),
                           _pair_dots(cats, row[src[m:]], cats, row[dst[m:]])))


def _pair_dots(a: _VectorSet, a_rows, b: _VectorSet, b_rows) -> np.ndarray:
    """The dot product, clamped to [0, 1], of each pair of a vector of ``a``
    and one of ``b`` (their rows ``a_rows[i]`` and ``b_rows[i]``), with the
    bits of ``SparseVector.dot``: the products over the shared dims, added
    left to right from 0.0 in ascending dim order.

    Each distinct pair is summed once. The pairs, ordered by their ``b``
    vector, go in ``_blocks`` of at most ``_BLOCK``, where a pair costs the
    dense row's width. A block scatters each of its ``b`` vectors into a
    zeroed dense row, gathers each pair's row at the dims of its ``a``
    vector, multiplies by their weights and adds every pair's products with
    one ``_ordered_sums``. A dim of ``a`` that ``b`` lacks adds ``0.0 * w``,
    which is +0.0 as every weight is finite and non-negative, and leaves the
    sum's bits as they were."""
    n = max(len(a.keys), 1)
    pairs, inverse = np.unique(np.array(b_rows, np.int64) * n + np.array(a_rows, np.int64),
                               return_inverse=True)
    b_rows, a_rows = np.divmod(pairs, n)
    width = 1 + int(max(a.dims.max(initial=0), b.dims.max(initial=0)))
    blocks = _blocks(np.full(len(pairs), width), _BLOCK)
    # the pairs that start a dense row: a new b vector, or a new block
    new = np.diff(b_rows, prepend=-1) != 0
    new[[start for start, _stop in blocks]] = True
    a_nnz, b_nnz = np.diff(a.ptr), np.diff(b.ptr)
    dots = np.empty(len(pairs))
    for start, stop in blocks:
        chunk = slice(start, stop)
        row = np.cumsum(new[chunk]) - 1  # each pair's dense row
        scattered, rows = b_rows[chunk][new[chunk]], a_rows[chunk]
        at, pos = _entries(b.ptr[scattered], b_nnz[scattered])
        dense = np.zeros((row[-1] + 1) * width)
        dense[at * width + b.dims[pos]] = b.weights[pos]
        pair, pos = _entries(a.ptr[rows], a_nnz[rows])
        products = dense[(row * width)[pair] + a.dims[pos]] * a.weights[pos]
        dots[chunk] = _ordered_sums(products, pair, len(row))
    return np.clip(dots, 0.0, 1.0)[inverse]


def _entries(lo: np.ndarray, span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each entry of the runs ``lo[i]:lo[i] + span[i]`` of a CSR's entry
    arrays, in order: the index i of its run, and its position."""
    ends = np.cumsum(span)
    return (np.repeat(np.arange(len(span)), span),
            np.repeat(lo - ends + span, span) + np.arange(span.sum()))


def _formatted(values: np.ndarray, spec: str) -> list[str]:
    """``format(v, spec)`` of each of the ``float64`` or ``int64`` ``values``:
    each distinct bit pattern once, by ``"%" + spec``, which writes the same."""
    values = np.asarray(values)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = list(map(("%" + spec).__mod__, bits.view(values.dtype).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


_WEIGHTS_HEADER = "from\tto\tkind\tp\tcost"


def _edge_fields(g: CategoryGraph) -> list[tuple[str, str, str]]:
    """Each edge's from, to and kind in ``weights.tsv``, in ``g.edges()`` order."""
    texts, (src, dst, kind) = g._csr[0].texts(), _edge_order(g)
    return list(zip(map(texts.__getitem__, src.tolist()), map(texts.__getitem__, dst.tolist()),
                    map(_KINDS.__getitem__, kind.tolist())))


def _weights_to_tsv(g: CategoryGraph, p: np.ndarray) -> str:
    """``weights.tsv``: a header, then ``from<TAB>to<TAB>kind<TAB>p<TAB>cost``
    per edge of ``g`` in ``g.edges()`` order, edge i with ``p[i]`` and ``1.0 - p[i]``."""
    return "\n".join([_WEIGHTS_HEADER, *(f"{a}\t{b}\t{k}\t{x}\t{c}" for (a, b, k), x, c in zip(
        _edge_fields(g), _formatted(p, ".17g"), _formatted(1.0 - p, ".17g"))), ""])


def _unit(text: str) -> float:
    """The number ``text`` names, which must lie in [0, 1]."""
    value = float(text)
    if not 0 <= value <= 1:  # NaN fails too
        raise ValueError(f"{text} is not in [0, 1]")
    return value


def _weights_from_tsv(text: str, g: CategoryGraph) -> np.ndarray:
    """The p of each edge of ``g``, in ``g.edges()`` order, from a
    ``weights.tsv`` text: after the header, row i must be
    ``from<TAB>to<TAB>kind<TAB>p<TAB>cost`` with edge i's from, to and kind,
    a p and a cost in [0, 1], and a cost of ``1.0 - p``. ``ValueError``
    names the 1-based line of a missing header or of the first row that is
    not so, a row past the last edge included, and the line after the last
    when a row is missing."""
    lines = text.splitlines()
    if lines[:1] != [_WEIGHTS_HEADER]:
        raise ValueError("weights line 1: expected the header from<TAB>to<TAB>kind<TAB>p<TAB>cost")
    edges = _edge_fields(g)
    p = np.empty(len(edges))
    for i, line in enumerate(lines[1:]):
        try:
            src, dst, kind, p_text, cost_text = line.split("\t")
            p_i, cost = _unit(p_text), _unit(cost_text)
            if i >= len(edges) or (src, dst, kind) != edges[i]:
                raise ValueError(f"expected the graph's edge {i + 1}, {' '.join(edges[i])}"
                                 if i < len(edges) else f"the graph has only {len(edges)} edges")
            if cost != 1.0 - p_i:
                raise ValueError(f"cost {cost_text} is not 1 - p")
        except ValueError as exc:
            raise ValueError(f"weights line {i + 2}: {exc}, got {line!r}") from None
        p[i] = p_i
    if len(lines) <= len(edges):
        raise ValueError(f"weights line {len(lines) + 1}: no row for the graph's edge "
                         f"{len(lines)}, {' '.join(edges[len(lines) - 1])}")
    return p


@dataclass(frozen=True)
class CycleReport:
    """Distinct directed cycles among inclusion edges, with walk statistics
    when produced by walk mode."""

    mode: str
    cycles: tuple[tuple[int, ...], ...]
    cycle_hits: dict[tuple[int, ...], int]
    n_walks: int = 0
    n_cycle_walks: int = 0
    n_root_walks: int = 0
    n_dead_end_walks: int = 0

    def to_tsv(self) -> str:
        lines = ["length\tcycle\thits\n"]
        for cyc in self.cycles:
            hits = self.cycle_hits.get(cyc, 0)
            lines.append(f"{len(cyc)}\t{'->'.join(map(str, cyc))}\t{hits}\n")
        return "".join(lines)


def _canonical_cycle(nodes: tuple[int, ...]) -> tuple[int, ...]:
    # Rotate so the smallest id comes first; direction preserved.
    k = nodes.index(min(nodes))
    return nodes[k:] + nodes[:k]


def _seeded_pick(options: list[int], node: Node, seed: int) -> int:
    # Fixed pseudo-random choice per (node, seed): stable across runs and
    # platforms, mirroring a "random but fixed during the experiment" pick.
    digest = hashlib.sha256(f"{seed}:{node}".encode()).digest()
    return sorted(options)[int.from_bytes(digest[:8], "little") % len(options)]


def cycle_census(g: CategoryGraph, mode: str = "exact", seed: int = 0) -> CycleReport:
    """Cycle diagnostics on the inclusion subgraph.

    exact mode enumerates every directed 2-cycle and 3-cycle. walk mode
    starts one walk per page, following category links with a per-node
    seeded fixed choice, and records whether each walk terminates in a
    cycle (counted per distinct cycle), at the root, or at a dead end.
    """
    succ: dict[int, list[int]] = {c: [] for c in g.category_ids}
    for child, parent in sorted(g.inclusion):
        succ[child].append(parent)
    if mode == "exact":
        found = set()
        for a in g.category_ids:
            for b in succ[a]:
                if a in succ[b] and a < b:
                    found.add(_canonical_cycle((a, b)))
                for c in succ[b]:
                    if c != a and a in succ[c]:
                        found.add(_canonical_cycle((a, b, c)))
        cycles = tuple(sorted(found, key=lambda c: (len(c), c)))
        return CycleReport(mode="exact", cycles=cycles, cycle_hits={})
    if mode != "walk":
        raise ValueError(f"unknown cycle census mode {mode!r}")
    hits: Counter[tuple[int, ...]] = Counter()
    n_root = n_dead = n_cycle = 0
    member_map: dict[int, list[int]] = {}
    for pid, cid in sorted(g.membership):
        member_map.setdefault(pid, []).append(cid)
    for pid in sorted(g.page_ids):
        cats = member_map.get(pid)
        if not cats:
            n_dead += 1
            continue
        current = _seeded_pick(cats, Node.page(pid), seed)
        path = []
        pos: dict[int, int] = {}
        while True:
            if current in pos:
                cyc = _canonical_cycle(tuple(path[pos[current]:]))
                hits[cyc] += 1
                n_cycle += 1
                break
            pos[current] = len(path)
            path.append(current)
            parents = succ[current]
            if not parents:
                if current == g.root_id:
                    n_root += 1
                else:
                    n_dead += 1
                break
            current = _seeded_pick(parents, Node.category(current), seed)
    cycles = tuple(sorted(hits, key=lambda c: (len(c), c)))
    return CycleReport(
        mode="walk",
        cycles=cycles,
        cycle_hits=dict(hits),
        n_walks=len(g.page_ids),
        n_cycle_walks=n_cycle,
        n_root_walks=n_root,
        n_dead_end_walks=n_dead,
    )


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of log(count) vs log(degree) over nonzero bins."""

    alpha: float
    degenerate: bool

    def to_tsv_field(self) -> str:
        return "nan" if self.degenerate else f"{self.alpha:.6g}"


def fit_power_law(degrees) -> PowerLawFit:
    """Estimate the exponent of a degree distribution ~ d^-alpha.

    Uses the slope of log(count) against log(degree) over bins with
    degree >= 1 and count >= 1. Fewer than two distinct such bins is a
    degenerate fit, reported as NaN with a flag.
    """
    hist = Counter(d for d in degrees if d >= 1)
    if len(hist) < 2:
        return PowerLawFit(alpha=float("nan"), degenerate=True)
    xs = np.log(np.array(sorted(hist), dtype=float))
    ys = np.log(np.array([hist[d] for d in sorted(hist)], dtype=float))
    slope, _intercept = np.polyfit(xs, ys, 1)
    return PowerLawFit(alpha=float(-slope), degenerate=False)


@dataclass(frozen=True)
class DegreeStats:
    """Degree histograms over category nodes, with power-law fits.

    In-degree counts all incoming edges of a category (memberships and
    inclusions); out-degree counts its outgoing inclusion edges.
    """

    in_hist: dict[int, int]
    out_hist: dict[int, int]
    in_fit: PowerLawFit
    out_fit: PowerLawFit

    def to_tsv(self) -> str:
        lines = [f"# alpha_in\t{self.in_fit.to_tsv_field()}\n",
                 f"# alpha_out\t{self.out_fit.to_tsv_field()}\n",
                 "direction\tdegree\tcount\n"]
        for d in sorted(self.in_hist):
            lines.append(f"in\t{d}\t{self.in_hist[d]}\n")
        for d in sorted(self.out_hist):
            lines.append(f"out\t{d}\t{self.out_hist[d]}\n")
        return "".join(lines)


def degree_stats(g: CategoryGraph) -> DegreeStats:
    in_deg = {c: 0 for c in g.category_ids}
    out_deg = {c: 0 for c in g.category_ids}
    for _pid, cid in g.membership:
        in_deg[cid] += 1
    for child, parent in g.inclusion:
        out_deg[child] += 1
        in_deg[parent] += 1
    return DegreeStats(
        in_hist=dict(Counter(in_deg.values())),
        out_hist=dict(Counter(out_deg.values())),
        in_fit=fit_power_law(in_deg.values()),
        out_fit=fit_power_law(out_deg.values()),
    )
