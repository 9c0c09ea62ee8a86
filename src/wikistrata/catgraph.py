"""Category digraph: leaf sets, categorical tfidf, category vectors,
edge weighting, and structural diagnostics (cycles, degree power laws).

Category graphs may contain cycles, so leaf sets are computed on the
strongly-connected-component condensation of the inclusion subgraph.
"""

from __future__ import annotations

import hashlib
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
        return sorted(
            [Node.page(p) for p in self.page_ids] + [Node.category(c) for c in self.category_ids]
        )

    def edges(self) -> list[tuple[Node, Node, str]]:
        out = [(Node.page(a), Node.category(b), "membership") for a, b in sorted(self.membership)]
        out += [(Node.category(a), Node.category(b), "inclusion") for a, b in sorted(self.inclusion)]
        return out


def build_graph(store) -> CategoryGraph:
    """Lift a corpus store into the page/category digraph (duplicates collapse)."""
    membership = {
        (p.page_id, cid) for p in store.pages for cid in p.category_ids
    }
    inclusion = {
        (c.category_id, pid) for c in store.categories for pid in c.parent_ids
    }
    return CategoryGraph(
        page_ids=frozenset(p.page_id for p in store.pages),
        category_ids=frozenset(c.category_id for c in store.categories),
        membership=frozenset(membership),
        inclusion=frozenset(inclusion),
        root_id=store.root_category_id,
    )


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
        first = {comp: cid for cid, comp in sorted(self.comp_of.items(), reverse=True)}
        return tuple(first[comp] for comp in range(len(self.comp_pages)))


def leaf_sets(g: CategoryGraph) -> LeafSetIndex:
    """The leaf sets of the strongly connected components, numbered in the
    order of their smallest category ids (``LeafSetIndex.smallest_ids``)."""
    cats = sorted(g.category_ids)
    succ_map: dict[int, list[int]] = {c: [] for c in cats}
    for child, parent in sorted(g.inclusion):
        succ_map[child].append(parent)
    tarjan = strongly_connected_components(cats, lambda c: succ_map[c])
    comp_of = {c: i for i, comp in enumerate(sorted(tarjan, key=min)) for c in comp}
    sets: list[set[int]] = [set() for _ in tarjan]
    for pid, cid in g.membership:
        sets[comp_of[cid]].add(pid)
    # Tarjan emits components in reverse topological order: every edge goes
    # from a later-emitted component to an earlier one. Sweeping its order
    # backwards therefore folds each component's pages into its parent
    # components only after its own children contributed.
    for comp in reversed(tarjan):
        i = comp_of[comp[0]]
        for j in {comp_of[parent] for c in comp for parent in succ_map[c]} - {i}:
            sets[j] |= sets[i]
    return LeafSetIndex(comp_of, tuple(tuple(sorted(s)) for s in sets))


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
    temporary arrays do not grow with the batch."""
    if max_nnz is not None:
        _check_max_nnz(max_nnz)
    slices = index._slices
    costs = [sum(slices[p].stop - slices[p].start for p in ls.comp_pages[c]) for c in comps]
    out = [(np.zeros(1, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    out += [_chunk_tables(index, ls, comps[a:b], max_nnz) for a, b in _blocks(costs, _BLOCK)]
    sizes, terms, weights = (np.concatenate(parts) for parts in zip(*out))
    return _VectorSet(tuple(comps), np.cumsum(sizes), terms, weights)


def _chunk_tables(index: EsaIndex, ls: LeafSetIndex, comps: list[int],
                  max_nnz: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each component's table size, then every table's term ids and weights."""
    leaves = [ls.comp_pages[c] for c in comps]
    sizes = np.array(list(map(len, leaves)), np.int64)
    spans = [index._slices[p] for pages in leaves for p in pages]
    lo = np.array([s.start for s in spans], np.int64)
    span = np.array([s.stop for s in spans], np.int64) - lo
    # each entry's position in the CSR, and its (component, term) key
    leaf, pos = _entries(lo, span)
    key = np.repeat(np.arange(len(comps)), sizes)[leaf] * len(index.vocabulary)
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
    return np.bincount(comp, minlength=len(comps)), term, np.array(table)[inverse]


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
    ends = {n: vectors[n] for src, dst, _kind in g.edges() for n in (src, dst)}
    distinct = {id(v): v for v in ends.values()}  # by object, all alive during the call
    row = dict(zip(distinct, range(len(distinct))))
    vs = _VectorSet.of(dict(enumerate(distinct.values())))
    # dims renumbered in their order, so a dense row is as wide as the dims in use
    vs = vs._replace(dims=np.unique(vs.dims, return_inverse=True)[1])
    rows = {kind: {n.id: row[id(v)] for n, v in ends.items() if n.kind == kind}
            for kind in (PAGE, CATEGORY)}
    return _edge_weights(g, vs, rows[PAGE], vs, rows[CATEGORY])


def _edge_weights(g: CategoryGraph, pages: _VectorSet, page_rows: dict[int, int],
                  cats: _VectorSet, cat_rows: dict[int, int]) -> list[WeightedEdge]:
    """``weight_edges`` over array form: page p's vector is row ``page_rows[p]``
    of ``pages``, and category c's is row ``cat_rows[c]`` of ``cats``."""
    member, inclusion = sorted(g.membership), sorted(g.inclusion)
    p = np.concatenate((
        _pair_dots(pages, [page_rows[a] for a, _b in member],
                   cats, [cat_rows[b] for _a, b in member]),
        _pair_dots(cats, [cat_rows[a] for a, _b in inclusion],
                   cats, [cat_rows[b] for _a, b in inclusion])))
    page = {a: Node(PAGE, a) for a in g.page_ids}  # one node object per id
    cat = {c: Node(CATEGORY, c) for c in g.category_ids}
    src = [page[a] for a, _b in member] + [cat[a] for a, _b in inclusion]
    dst = [cat[b] for _a, b in member + inclusion]
    kind = ["membership"] * len(member) + ["inclusion"] * len(inclusion)
    return list(map(WeightedEdge._make, zip(src, dst, kind, p.tolist(), (1.0 - p).tolist())))


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
    """``format(v, spec)`` of each of the ``float64`` or ``int64`` ``values``,
    formatting each distinct bit pattern once."""
    values = np.asarray(values)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = [format(v, spec) for v in bits.view(values.dtype).tolist()]
    return list(map(texts.__getitem__, inverse.tolist()))


def weighted_edges_to_tsv(edges: list[WeightedEdge]) -> str:
    p = _formatted(np.array([e.p for e in edges], np.float64), ".17g")
    cost = _formatted(np.array([e.cost for e in edges], np.float64), ".17g")
    return "".join(["from\tto\tkind\tp\tcost\n", *(
        f"{e.src}\t{e.dst}\t{e.kind}\t{a}\t{b}\n" for e, a, b in zip(edges, p, cost))])


def _unit(text: str) -> float:
    """The number ``text`` names, which must lie in [0, 1]."""
    value = float(text)
    if not 0 <= value <= 1:  # NaN fails too
        raise ValueError(f"{text} is not in [0, 1]")
    return value


def _parse_weights_tsv(text: str) -> list[WeightedEdge]:
    """The edges of a ``weighted_edges_to_tsv`` text. ``ValueError``, naming
    the 1-based line, for a text without its header and for a row that is not
    ``from<TAB>to<TAB>kind<TAB>p<TAB>cost``: two node literals, a kind of
    ``membership`` or ``inclusion``, and a p and a cost in [0, 1]."""
    lines = text.splitlines()
    if lines[:1] != ["from\tto\tkind\tp\tcost"]:
        raise ValueError("weights line 1: expected the header from<TAB>to<TAB>kind<TAB>p<TAB>cost")
    edges = []
    for no, line in enumerate(lines[1:], 2):
        try:
            src, dst, kind, p, cost = line.split("\t")
            if kind not in ("membership", "inclusion"):
                raise ValueError(f"unknown kind {kind!r}")
            edges.append(WeightedEdge(Node.parse(src), Node.parse(dst), kind, _unit(p), _unit(cost)))
        except ValueError as exc:
            raise ValueError(f"weights line {no}: {exc}, got {line!r}") from None
    return edges


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
