"""Reference implementations that only the tests use.

Each is the plain form of something the package does faster or in bulk:
a brute-force minimum arborescence for ``arbor.chu_liu_edmonds`` and the
reachability walk over ``Node`` successors that its integer walk replaced,
the generic iterative Tarjan that ``catgraph.leaf_sets`` replaced with
Pearce's algorithm on the CSR's integer rows, a ``LeafSetIndex`` built
from and read back into a category-to-component map, the scan of the page
frequencies that ``catgraph.categorical_tfidf`` does as a lookup in the
batched table, a scalar nearest-centroid for
``evaluate.cross_validate`` and a row-by-row mean for its class means,
the single-vector ESAV writer and reader whose records
``esa.save_vector_set`` embeds, a sampler of power-law degrees for ``catgraph.fit_power_law``, the
left-to-right float sum that ``esa._ordered_sums`` adds by, the
per-pair loop of dots that ``catgraph.weight_edges`` batches, the
row-by-row ``weights.tsv`` and ``arborescence.tsv`` writers and
``weights.tsv`` reader that the edge and tree arrays replaced, the dict
rule by which ``RootedCostDigraph.from_edges`` drops self-loops and
parallel edges, and the
per-page vocabulary and index builders that ``textproc._term_counts``
replaced in ``build_vocabulary`` and ``esa.build_index``, the synthetic
corpus generator drawing through ``random.Random``'s methods, the
record-by-record writer that ``corpus.serialize_corpus`` replaced with its
record templates, and the line-by-line reader, with a call per field check,
that ``corpus.parse_corpus`` replaced with checks inline in its loop.
"""

from __future__ import annotations

import json
import math
import random as _random
import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from wikistrata.arbor import ArborError, Arborescence, RootedCostDigraph
from wikistrata.catgraph import CategoryGraph, LeafSetIndex, Node, WeightedEdge
from wikistrata.corpus import (
    FORMAT_VERSION,
    CategoryRecord,
    CorpusError,
    CorpusStore,
    PageRecord,
    _validate_references,
)
from wikistrata.esa import (
    _ENTRY,
    _HEADER,
    _CONCEPT_TAG,
    _MAGIC,
    _VERSION,
    EsaIndex,
    SparseVector,
    _check_end,
    _check_entries,
    _entries_at,
    _open_atomic,
    index_from_freqs,
)
from wikistrata.textproc import Vocabulary


# -- arbor ---------------------------------------------------------------------


def dict_edges(edge_costs) -> dict:
    """The edges that ``RootedCostDigraph.from_edges`` keeps of
    ``(u, v, cost)`` triples: no self-loop, and one edge per ordered pair,
    in the place of the pair's first edge and at the cost of its cheapest."""
    edges = {}
    for u, v, cost in edge_costs:
        if u != v and ((u, v) not in edges or cost < edges[u, v]):
            edges[u, v] = cost
    return edges


def row_arborescence_tsv(a: Arborescence) -> str:
    """``arborescence.tsv`` written row by row, as ``arbor._tree_to_tsv``
    writes it from the parent and cost arrays."""
    return "".join(["node\tparent\tcost\n", f"{a.root}\t-\t0\n", *(
        f"{v}\t{a.parent[v][0]}\t{a.parent[v][1]:.17g}\n" for v in sorted(a.parent))])

def _check_reachable(g: RootedCostDigraph) -> None:
    """``ArborError`` naming each node of ``g`` that its root does not reach."""
    succ = {}
    for (u, v) in g.edges:
        succ.setdefault(u, []).append(v)
    seen = {g.root}
    frontier = [g.root]
    while frontier:
        u = frontier.pop()
        for v in succ.get(u, ()):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    unreachable = [n for n in g.nodes if n not in seen]
    if unreachable:
        raise ArborError(unreachable)


def brute_force_min_arborescence(g: RootedCostDigraph) -> Arborescence:
    """Enumerate every parent function and keep the cheapest arborescence.

    Only feasible for small instances (<= 8 non-root nodes). Ties on total
    cost break toward the lexicographically smallest parent assignment.
    """
    non_root = [n for n in g.nodes if n != g.root]
    if len(non_root) > 8:
        raise ValueError("brute force limited to 8 non-root nodes")
    _check_reachable(g)
    in_edges = {v: sorted(
        ((cost, u) for (u, v2), cost in g.edges.items() if v2 == v)
    ) for v in non_root}
    best = None
    for combo in product(*(in_edges[v] for v in non_root)):
        parent = {v: u for v, (_c, u) in zip(non_root, combo)}
        if not _is_arborescence(parent, g.root):
            continue
        total = sum(c for c, _u in combo)
        key = (total, tuple(sorted((v, parent[v]) for v in non_root)))
        if best is None or key < best[0]:
            best = (key, parent, total)
    if best is None:
        raise ArborError(non_root)
    _key, parent, total = best
    return Arborescence(
        parent={v: (u, g.edges[(u, v)]) for v, u in parent.items()},
        root=g.root,
        total_cost=total,
    )


def _is_arborescence(parent: dict, root) -> bool:
    for start in parent:
        seen = set()
        v = start
        while v != root:
            if v in seen or v not in parent:
                return False
            seen.add(v)
            v = parent[v]
    return True


def left_to_right_sum(values) -> float:
    """``total += x`` over the values, from ``total = 0.0``. The builtin ``sum``
    of floats adds this way before Python 3.12, and compensates from 3.12 on."""
    total = 0.0
    for x in values:
        total += x
    return total


# -- textproc and esa: vocabulary and index from pages already analyzed -------

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
    return Vocabulary(term_to_id=term_to_id, doc_freq=tuple(df[t] for t in kept))


def index_from_counts(
    page_counts: Mapping[int, Mapping[str, int]], vocabulary: Vocabulary
) -> EsaIndex:
    """``esa.build_index`` over pages already analyzed: each page's term
    counts, by page id."""
    ids = vocabulary.term_to_id
    return index_from_freqs({
        pid: {ids[t]: f for t, f in page_counts[pid].items() if t in ids} for pid in page_counts
    }, vocabulary)


# -- catgraph ------------------------------------------------------------------

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


def leaf_set_index(comp_of: Mapping[int, int], comp_pages) -> LeafSetIndex:
    """The ``LeafSetIndex`` of a map from each category id to its component
    and each component's leaf page ids, ascending, by component."""
    cats = np.array(sorted(comp_of), np.int64)
    ptr = np.zeros(len(comp_pages) + 1, np.int64)
    np.cumsum([len(pages) for pages in comp_pages], out=ptr[1:])
    return LeafSetIndex(cats, np.array([comp_of[c] for c in cats.tolist()], np.int64), ptr,
                        np.array([p for pages in comp_pages for p in pages], np.int64))


def comp_map(ls: LeafSetIndex) -> dict[int, int]:
    """Each category id's component in ``ls``, by id."""
    return dict(zip(ls.cats.tolist(), ls.comp.tolist()))


def categorical_tfidf_scan(
    term_id: int,
    category_id: int,
    index: EsaIndex,
    ls: LeafSetIndex,
    literal_denominator: bool = False,
) -> float:
    """``catgraph.categorical_tfidf`` as one scan of ``page_term_freqs``.

    tf aggregates the term's raw frequency over the category's leaf pages
    F(c); the idf denominator is 1 + the number of documents containing
    the term outside F(c). With ``literal_denominator`` the denominator
    counts all documents outside F(c) regardless of the term (it does not
    reduce to classical tfidf on singleton categories).
    """
    leaves = set(ls.pages_of(category_id))
    holders = {pid: f[term_id] for pid, f in index.page_term_freqs.items() if term_id in f}
    sum_f = sum(f for pid, f in holders.items() if pid in leaves)
    n_out = len(holders.keys() - leaves)
    if sum_f < 1:
        raise ValueError(
            f"term {term_id} does not occur in any leaf of category {category_id}"
        )
    if literal_denominator:
        denom = 1 + (index.n_pages - len(leaves))
    else:
        denom = 1 + n_out
    return (1.0 + math.log(sum_f)) * math.log(index.n_pages / denom)


def loop_weight_edges(g: CategoryGraph, vectors: dict[Node, SparseVector]) -> list[WeightedEdge]:
    """``catgraph.weight_edges`` as a loop over the edges: one clamped
    ``SparseVector.dot`` per distinct pair of vector objects."""
    out = []
    dots: dict[tuple[int, int], float] = {}  # by the vectors' ids, all alive during the call
    for src, dst, kind in g.edges():
        a, b = vectors[src], vectors[dst]
        p = dots.get((id(a), id(b)))
        if p is None:
            p = dots[id(a), id(b)] = min(1.0, max(0.0, a.dot(b)))
        out.append(WeightedEdge(src, dst, kind, p, 1.0 - p))
    return out


def row_weights_tsv(edges: list[WeightedEdge]) -> str:
    """``weights.tsv`` written row by row, as ``catgraph._weights_to_tsv``
    writes it from the graph's edge arrays and each edge's p."""
    return "".join(["from\tto\tkind\tp\tcost\n", *(
        f"{e.src}\t{e.dst}\t{e.kind}\t{e.p:.17g}\t{e.cost:.17g}\n" for e in edges)])


def row_parse_weights_tsv(text: str, g: CategoryGraph) -> list[WeightedEdge]:
    """``weights.tsv`` read row by row against ``g.edges()`` into
    ``WeightedEdge``s, with the errors of ``catgraph._weights_from_tsv``,
    which reads only each row's p and cost into an array."""
    def unit(field: str) -> float:
        value = float(field)
        if not 0 <= value <= 1:
            raise ValueError(f"{field} is not in [0, 1]")
        return value

    lines = text.splitlines()
    if lines[:1] != ["from\tto\tkind\tp\tcost"]:
        raise ValueError("weights line 1: expected the header from<TAB>to<TAB>kind<TAB>p<TAB>cost")
    graph_edges = g.edges()
    edges = []
    for no, line in enumerate(lines[1:], 2):
        try:
            src, dst, kind, p_text, cost_text = line.split("\t")
            p, cost = unit(p_text), unit(cost_text)
            if len(edges) == len(graph_edges):
                raise ValueError(f"the graph has only {len(graph_edges)} edges")
            want = graph_edges[len(edges)]
            if [src, dst, kind] != [str(want[0]), str(want[1]), want[2]]:
                raise ValueError(f"expected the graph's edge {len(edges) + 1}, "
                                 f"{want[0]} {want[1]} {want[2]}")
            if cost != 1.0 - p:
                raise ValueError(f"cost {cost_text} is not 1 - p")
        except ValueError as exc:
            raise ValueError(f"weights line {no}: {exc}, got {line!r}") from None
        edges.append(WeightedEdge(*want, p, cost))
    if len(edges) < len(graph_edges):
        want = graph_edges[len(edges)]
        raise ValueError(f"weights line {len(lines) + 1}: no row for the graph's edge "
                         f"{len(edges) + 1}, {want[0]} {want[1]} {want[2]}")
    return edges


# -- evaluate ------------------------------------------------------------------

@dataclass(frozen=True)
class CentroidModel:
    centroids: dict[str, SparseVector]


def train_centroid(vectors: dict[int, SparseVector], labels: dict[int, str]) -> CentroidModel:
    """Per-class unit-normalized mean of the training vectors."""
    by_class: dict[str, list[SparseVector]] = {}
    for doc_id, vec in sorted(vectors.items()):
        by_class.setdefault(labels[doc_id], []).append(vec)
    centroids = {}
    for cls, vecs in sorted(by_class.items()):
        if not vecs:
            raise ValueError(f"class {cls!r} has no training vectors")
        acc: dict[int, float] = {}
        for v in vecs:
            for d, w in zip(v.dims, v.weights):
                acc[d] = acc.get(d, 0.0) + w
        n = len(vecs)
        mean = SparseVector.from_dict({d: w / n for d, w in acc.items()})
        centroids[cls] = mean.unit()
    return CentroidModel(centroids=centroids)


def row_mean(rows: np.ndarray) -> np.ndarray:
    """The mean of a 2-D array's rows: each row added left to right, cell
    by cell, from 0.0, then the sums divided by the number of rows."""
    total = np.zeros(rows.shape[1])
    for row in rows:
        total = total + row
    return total / len(rows)


def classify(model: CentroidModel, vector: SparseVector) -> str:
    """Argmax cosine against class centroids; ties go to the first class name."""
    best_cls = None
    best_score = None
    for cls in sorted(model.centroids):
        score = model.centroids[cls].cosine(vector)
        if best_score is None or score > best_score:
            best_cls, best_score = cls, score
    return best_cls


# -- esa: the single-vector ESAV format ----------------------------------------

def _pack_vector(vec: SparseVector) -> bytes:
    dims = vec._dims
    # struct refused these; a <u4 array could wrap them silently
    if len(dims) and not (0 <= dims[0] and dims[-1] < 2**32):
        raise ValueError(
            f"dimensions {dims[0]}..{dims[-1]} do not fit an unsigned 32-bit field")
    entries = np.empty(vec.nnz, _ENTRY)
    entries["dim"] = dims
    entries["weight"] = vec._weights
    return _HEADER.pack(_MAGIC, _VERSION, _CONCEPT_TAG, vec.nnz) + entries.tobytes()


def save_vector(path, vec: SparseVector) -> None:
    with _open_atomic(path) as fh:
        fh.write(_pack_vector(vec))


def load_vector(path) -> SparseVector:
    with open(path, "rb") as fh:
        buf = fh.read()
    start, end = _entries_at(buf, 0)  # ValueError for any tag but _CONCEPT_TAG
    entries = np.frombuffer(buf, _ENTRY, (end - start) // _ENTRY.itemsize, start)
    # copies, so the vector keeps no reference to the read buffer
    dims, weights = entries["dim"].astype(np.int64), entries["weight"].astype(np.float64)
    _check_entries(dims, weights)
    _check_end(buf, end)
    return SparseVector._trusted(dims, weights)


# -- catgraph ------------------------------------------------------------------

def sample_power_law_degrees(alpha: float, n: int, seed: int, d_max: int = 30) -> list[int]:
    """Draw n degrees from the discrete distribution P(d) ~ d^-alpha on 1..d_max."""
    rng = _random.Random(seed)
    support = list(range(1, d_max + 1))
    weights = [d ** -alpha for d in support]
    return rng.choices(support, weights=weights, k=n)


# -- corpus --------------------------------------------------------------------

def serialize_by_record(store: CorpusStore) -> str:
    """``corpus.serialize_corpus``, one ``json.dumps`` per record."""
    out = [json.dumps({"kind": "meta", "root": store.root_category_id, "version": 1})]
    for c in sorted(store.categories, key=lambda c: c.category_id):
        out.append(json.dumps({"kind": "category", "id": c.category_id, "title": c.title,
                               "parents": list(c.parent_ids)}, ensure_ascii=False))
    for p in sorted(store.pages, key=lambda p: p.page_id):
        out.append(json.dumps({"kind": "page", "id": p.page_id, "title": p.title,
                               "text": p.text, "categories": list(p.category_ids),
                               "links": list(p.out_links)}, ensure_ascii=False))
    return re.sub("[\x85\u2028\u2029]", lambda m: f"\\u{ord(m[0]):04x}", "\n".join(out) + "\n")


def _canonical_ids(values, self_id=None) -> tuple[int, ...]:
    # Canonical form: sorted, deduplicated, self-references dropped.
    return tuple(sorted({v for v in values if v != self_id}))


# A field is taken only as JSON wrote it: no float, bool or string stands in
# for an integer (type(v) is int leaves out bool). An id must fit the signed
# 64-bit arrays that the cached artifacts are read into.
def _int_field(rec: dict, key: str) -> int:
    value = rec[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    if value >= 2**63:
        raise ValueError(f"{key!r} {value} is not below 2**63")
    return value


def _ids_field(rec: dict, key: str) -> list[int]:
    values = rec[key]
    if type(values) is not list or not all(type(v) is int for v in values):
        raise TypeError(f"{key!r} must be a list of integers, got {values!r}")
    if values and max(values) >= 2**63:
        raise ValueError(f"{key!r} holds {max(values)}, which is not below 2**63")
    return values


def _utf8_field(value: str, key: str) -> str:
    """``value``, unless it holds a lone surrogate, which a JSON escape such
    as ``\\ud800`` can give and UTF-8 cannot encode."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{key!r} holds the lone surrogate {value[exc.start]!r}, "
                         "which UTF-8 cannot encode") from None
    return value


def parse_by_line(lines) -> CorpusStore:
    """``corpus.parse_corpus``, with one helper call per field check and the
    surrogate check on every title and text. Each line is read by
    ``json.loads``, which ``corpus._decoded`` equals."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    pages: dict[int, PageRecord] = {}
    categories: dict[int, CategoryRecord] = {}
    root_id = None
    saw_meta = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict) or "kind" not in rec:
            raise CorpusError(f"line {lineno}: record has no 'kind' field")
        kind = rec["kind"]
        try:
            if kind == "meta":
                if saw_meta:
                    raise CorpusError(f"line {lineno}: duplicate meta header")
                if lineno != 1 and (pages or categories):
                    raise CorpusError(f"line {lineno}: meta header must be the first record")
                if rec.get("version") != FORMAT_VERSION:
                    raise CorpusError(f"line {lineno}: unsupported corpus version {rec.get('version')!r}")
                root_id = _int_field(rec, "root")
                saw_meta = True
            elif kind in ("page", "category"):
                if not saw_meta:
                    raise CorpusError(f"line {lineno}: record before meta header")
                rid = _int_field(rec, "id")
                if rid < 0:
                    raise CorpusError(f"line {lineno}: negative {kind} id {rid}")
                if rid in (pages if kind == "page" else categories):
                    raise CorpusError(f"line {lineno}: duplicate {kind} id {rid}")
                title = rec["title"]
                if not isinstance(title, str) or not title:
                    raise CorpusError(f"line {lineno}: {kind} {rid}: 'title' must be a "
                                      f"non-empty string, got {title!r}")
                _utf8_field(title, "title")
                if kind == "page":
                    text = rec["text"]
                    if not isinstance(text, str):
                        raise TypeError(f"'text' must be a string, got {text!r}")
                    pages[rid] = PageRecord(
                        page_id=rid,
                        title=title,
                        text=_utf8_field(text, "text"),
                        category_ids=_canonical_ids(_ids_field(rec, "categories")),
                        out_links=_canonical_ids(_ids_field(rec, "links"), self_id=rid),
                    )
                else:
                    categories[rid] = CategoryRecord(
                        category_id=rid,
                        title=title,
                        parent_ids=_canonical_ids(_ids_field(rec, "parents"), self_id=rid),
                    )
            else:
                raise CorpusError(f"line {lineno}: unknown record kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, CorpusError):
                raise
            raise CorpusError(f"line {lineno}: malformed {kind} record: {exc}") from exc
    if not saw_meta:
        raise CorpusError("missing meta header line")
    store = CorpusStore(
        pages=tuple(pages[k] for k in sorted(pages)),
        categories=tuple(categories[k] for k in sorted(categories)),
        root_category_id=root_id,
    )
    _validate_references(store)
    return store


def synthetic_wiki_by_methods(
    seed: int,
    n_topics: int,
    pages_per_topic: int,
    vocab_per_topic: int,
    depth: int,
    *,
    tokens_per_page: int = 60,
    shared_vocab: int = 10,
    crosstalk: float = 0.1,
    junk_words_per_page: int = 1,
    junk_repeats: int = 3,
):
    """``corpus.gen_synthetic_wiki``, drawing through ``random.Random``'s
    ``choice``, ``randrange`` and ``shuffle`` methods rather than straight
    from ``getrandbits``."""
    rng = _random.Random(seed)
    topic_names = [f"topic{t}" for t in range(n_topics)]
    topic_vocab = [[f"t{t}w{j}" for j in range(vocab_per_topic)] for t in range(n_topics)]
    shared = [f"shared{j}" for j in range(shared_vocab)]

    # Category tree: leaves are topics; each extra level groups children in pairs.
    categories: dict[int, CategoryRecord] = {}
    root_id = 0
    next_cid = 1
    leaf_cids = []
    for t in range(n_topics):
        leaf_cids.append(next_cid)
        next_cid += 1
    level = list(leaf_cids)
    level_titles = {cid: topic_names[i] for i, cid in enumerate(leaf_cids)}
    parent_of: dict[int, int] = {}
    for _ in range(depth - 1):
        if len(level) == 1:
            break
        groups = [level[i:i + 2] for i in range(0, len(level), 2)]
        new_level = []
        for g in groups:
            gid = next_cid
            next_cid += 1
            level_titles[gid] = "group_" + "_".join(level_titles[c] for c in g)
            for child in g:
                parent_of[child] = gid
            new_level.append(gid)
        level = new_level
    for cid in level:
        parent_of[cid] = root_id
    categories[root_id] = CategoryRecord(root_id, "Root", ())
    for cid in sorted(level_titles):
        categories[cid] = CategoryRecord(cid, level_titles[cid], (parent_of[cid],))

    n_pages = n_topics * pages_per_topic
    pages = []
    labels: dict[int, str] = {}
    for pid in range(n_pages):
        topic = pid % n_topics
        labels[pid] = topic_names[topic]
        tokens = []
        for _ in range(tokens_per_page):
            r = rng.random()
            if r < crosstalk and n_topics > 1:
                other = rng.randrange(n_topics - 1)
                if other >= topic:
                    other += 1
                tokens.append(rng.choice(topic_vocab[other]))
            elif r < crosstalk + 0.2 and shared:
                tokens.append(rng.choice(shared))
            else:
                tokens.append(rng.choice(topic_vocab[topic]))
        for j in range(junk_words_per_page):
            tokens.extend([f"junk{pid}x{j}"] * junk_repeats)
        rng.shuffle(tokens)
        # Ring links keep every page above trivial in/out-degree thresholds.
        out_links = tuple(sorted({(pid + 1) % n_pages, (pid + 2) % n_pages} - {pid}))
        pages.append(PageRecord(
            page_id=pid,
            title=f"page{pid}",
            text=" ".join(tokens),
            category_ids=(leaf_cids[topic],),
            out_links=out_links,
        ))
    store = CorpusStore(
        pages=tuple(pages),
        categories=tuple(categories[k] for k in sorted(categories)),
        root_category_id=root_id,
    )
    return store, labels
