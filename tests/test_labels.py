"""The stage path on integer node labels against the public ``Node`` path.

The ``weights`` and ``arborify`` stages number the graph's nodes once
(``catgraph._Labels``: categories by id, then pages by id) and hand edge and
tree arrays over. On random multi-parent category graphs with planted 2- and
3-cycles, pages in several categories and, sometimes, a category that the
root does not reach, their files must hold the bytes that the public
functions over ``Node``s write, and ``ArborError`` must name the same nodes.
A 12 000-category cyclic graph bounds the time of the whole array path.
"""

import dataclasses
import json
import random
import re
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wikistrata import arbor, catgraph, corpus as corpus_mod, esa, pipeline
from wikistrata.arbor import (
    ArborError,
    arborescence_to_tsv,
    chu_liu_edmonds,
    parse_arborescence_tsv,
    reverse_and_cost,
)
from wikistrata.catgraph import Node, leaf_sets, weight_edges

from conftest import same_fields
from oracles import (
    dict_edges,
    loop_weight_edges,
    row_arborescence_tsv,
    row_parse_weights_tsv,
    row_weights_tsv,
)
from test_catgraph import leaf_set_oracle

WORDS = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta"]


@st.composite
def cyclic_corpora(draw):
    """A corpus file's text and its labels: categories under root 0 with
    gaps between their ids, one to three parents each among the categories
    made before them, 2- and 3-cycles planted among them, pages in one to
    three categories, and, when drawn, a category with no parent."""
    n_cats = draw(st.integers(3, 14))
    ids = [0] + sorted(draw(st.sets(st.integers(1, 10**6), min_size=n_cats, max_size=n_cats)))
    parents = {ids[0]: set()}
    for i, cid in enumerate(ids[1:], 1):
        parents[cid] = set(draw(st.lists(st.sampled_from(ids[:i]), min_size=1, max_size=3)))
    for size in draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3)):
        ring = draw(st.lists(st.sampled_from(ids[1:]), min_size=size, max_size=size, unique=True))
        for a, b in zip(ring, ring[1:] + ring[:1]):
            parents[a].add(b)
    if draw(st.booleans()):
        parents[ids[-1] + 1] = set()  # nothing under the root reaches it
    cats = sorted(parents)
    rng = random.Random(draw(st.integers(0, 2**16)))
    lines = [json.dumps({"kind": "meta", "root": 0, "version": 1})]
    lines += [json.dumps({"kind": "category", "id": c, "title": f"c{c}",
                          "parents": sorted(parents[c])}) for c in cats]
    n_pages = draw(st.integers(4, 9))
    for pid in range(0, 3 * n_pages, 3):  # gaps between page ids too
        lines.append(json.dumps({
            "kind": "page", "id": pid, "title": f"p{pid}", "links": [],
            "text": " ".join(rng.choice(WORDS) for _ in range(rng.randint(2, 8))),
            "categories": sorted(set(rng.sample(cats, rng.randint(1, min(3, len(cats))))))}))
    labels = "".join(f"{pid}\t{'ab'[pid % 2]}\n" for pid in range(0, 3 * n_pages, 3))
    return "\n".join(lines) + "\n", labels


def _unreached(graph) -> list[Node]:
    """The nodes that no chain of parent-to-child edges leads to from the root."""
    children = {}
    for child, parent in graph.inclusion:
        children.setdefault(Node.category(parent), []).append(Node.category(child))
    for page, cat in graph.membership:
        children.setdefault(Node.category(cat), []).append(Node.page(page))
    seen, stack = {Node.category(graph.root_id)}, [Node.category(graph.root_id)]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return sorted(set(graph.nodes) - seen)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cyclic_corpora())
def test_stage_files_equal_the_node_path(corpus):
    text, labels = corpus
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "corpus.jsonl").write_text(text)
        (tmp / "labels.tsv").write_text(labels)
        cache = tmp / "cache"
        cfg = {"corpus": {"path": str(tmp / "corpus.jsonl"), "labels": str(tmp / "labels.tsv")},
               "eval": {"k": 2}, "cache": {"dir": str(cache)}}
        failure = None
        try:
            for name, _status, _run in pipeline.run_stages(cfg):
                if name == "arborify":
                    break
        except pipeline.StageError as exc:
            assert exc.stage == "arborify", exc
            failure = exc.cause
        graph = catgraph.build_graph(
            corpus_mod.parse_corpus((cache / "filtered.jsonl").read_text()))
        ls = leaf_sets(graph)
        for c in graph.category_ids:
            assert set(ls.pages_of(c)) == leaf_set_oracle(graph, c), c
        # every node's vector as the pipeline built it: a category's is its component's
        pages = esa.load_vector_set(cache / "baseline.esvs")
        comps = esa.load_vector_set(cache / "catvecs.esvs")
        first = ls.smallest_ids()
        vectors = {Node.page(pid): v for pid, v in pages.items()}
        vectors.update((Node.category(c), comps[first[k]]) for c, k in ls.comp_of.items())
        edges = weight_edges(graph, vectors)
        assert edges == loop_weight_edges(graph, vectors)
        assert (cache / "weights.tsv").read_text() == row_weights_tsv(edges)
        digraph = reverse_and_cost(graph, edges, graph.root_id)
        assert list(digraph.edges.items()) == list(
            dict_edges((e.dst, e.src, e.cost) for e in edges).items())
        try:
            tree = chu_liu_edmonds(digraph)
        except ArborError as exc:
            assert isinstance(failure, ArborError) and str(failure) == str(exc)
            assert exc.unreachable == _unreached(graph)
            return
        assert failure is None
        assert ((cache / "arborescence.tsv").read_text() == arborescence_to_tsv(tree)
                == row_arborescence_tsv(tree))
        assert parse_arborescence_tsv(arborescence_to_tsv(tree)) == tree


_FIELDS = st.sampled_from(["p:1", "c:0", "c:2", "p:07", "c:+3", "x:1", "c:", "membership",
                           "inclusion", "kind", "0.5", "1", "0", "-0", "1e-3", "nan", "2",
                           " 0.25", "0.5\x0b", ""])
_ROWS = st.lists(_FIELDS, min_size=4, max_size=6).map("\t".join)


# the two edges of the rows below, p:1 -> c:0 and c:2 -> c:0, or none
_GRAPHS = [catgraph.CategoryGraph(frozenset({1}), frozenset({0, 2}), frozenset({(1, 0)}),
                                  frozenset({(2, 0)}), 0),
           catgraph.CategoryGraph(frozenset(), frozenset({0}), frozenset(), frozenset(), 0)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_ROWS, st.sampled_from(["p:1\tc:0\tmembership\t0.5\t0.5",
                                                  "c:2\tc:0\tinclusion\t1\t0"])), max_size=5),
       st.sampled_from(["\n", "\r\n", "\x0b"]), st.booleans(), st.sampled_from(_GRAPHS))
def test_weights_column_reader_equals_the_row_parser(rows, newline, header, graph):
    """Each text reads against the graph as the row parser reads it, or
    fails with its error."""
    text = newline.join((["from\tto\tkind\tp\tcost"] if header else []) + rows) + newline
    try:
        want = row_parse_weights_tsv(text, graph)
    except ValueError as exc:
        with pytest.raises(ValueError, match="^" + re.escape(str(exc)) + "$"):
            catgraph._weights_from_tsv(text, graph)
    else:
        p = catgraph._weights_from_tsv(text, graph)
        assert [e[:3] for e in want] == graph.edges()
        assert (p.tolist(), (1.0 - p).tolist()) == ([e.p for e in want], [e.cost for e in want])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.sampled_from([0.0, 0.25, 0.5, 1.0])), max_size=30))
def test_kept_edges_equal_the_dict_rule(triples):
    """``RootedCostDigraph.from_edges`` keeps the edges, places and costs
    that the dict rule keeps."""
    kept = arbor.RootedCostDigraph.from_edges(range(5), triples, 0).edges
    assert list(kept.items()) == list(dict_edges(triples).items())


def test_an_inclusion_self_loop_leaves_the_tree_as_it_is():
    """``_arborify`` on a graph with an inclusion ``(c, c)`` gives the tree of
    the same graph without it, the tree that the public path gives, which
    drops the loop in ``RootedCostDigraph.from_edges``."""
    plain = catgraph.CategoryGraph(frozenset({5, 6}), frozenset({0, 1, 2}),
                                   frozenset({(5, 2), (5, 1), (6, 1)}),
                                   frozenset({(1, 0), (2, 1), (2, 0), (1, 2)}), 0)
    looped = dataclasses.replace(plain, inclusion=plain.inclusion | {(1, 1)})
    p_of = dict(zip(looped.edges(), [0.25, 0.5, 1.0, 0.75, 0.125, 0.625, 0.875, 0.375]))
    trees = []
    for g in (plain, looped):
        p = np.array([p_of[e] for e in g.edges()])
        trees.append(arbor._arborify(g, p, 0))
        public = chu_liu_edmonds(reverse_and_cost(g, [catgraph.WeightedEdge(*e, w, 1.0 - w)
                                                      for e, w in zip(g.edges(), p)], 0))
        assert arbor._tree_to_tsv(g._csr[0], *trees[-1]) == arborescence_to_tsv(public)
    assert [a.tobytes() for a in trees[0]] == [a.tobytes() for a in trees[1]]


def test_labels_keep_the_order_of_negative_and_large_ids():
    cats = [-2**62, -7, 0, 5, 2**62]
    g = catgraph.CategoryGraph(
        page_ids=frozenset({-1, 3}), category_ids=frozenset(cats),
        membership=frozenset({(-1, -7), (3, 2**62), (3, -7)}),
        inclusion=frozenset({(-7, 0), (0, -7), (2**62, -2**62), (5, 0), (-2**62, 5)}), root_id=0)
    assert g.nodes == [*map(Node.category, cats), Node.page(-1), Node.page(3)]
    assert g.edges() == (
        [(Node.page(a), Node.category(b), "membership") for a, b in sorted(g.membership)]
        + [(Node.category(a), Node.category(b), "inclusion") for a, b in sorted(g.inclusion)])
    ls = leaf_sets(g)
    for c in cats:
        assert set(ls.pages_of(c)) == leaf_set_oracle(g, c), c
    assert ls.smallest_ids() == tuple(sorted(min(c for c in cats if ls.comp_of[c] == k)
                                             for k in set(ls.comp_of.values())))


def _cyclic_store(rng: random.Random, topics: int, subcats: int):
    """A store whose categories sit under ``topics`` topic categories, a
    fifth of them with a second parent under the next topic, and most of
    them on planted 2- and 3-cycles; a page in one to three of them per
    tenth of a topic's subcategories."""
    parents = {0: (), **{t: (0,) for t in range(1, topics + 1)}}
    rows = [range(topics + 1 + t * subcats, topics + 1 + (t + 1) * subcats) for t in range(topics)]
    for t, row in enumerate(rows):
        extra = set(rng.sample(row, subcats // 5))
        ups = {c: {t + 1} | ({rng.choice(rows[(t + 1) % topics])} if c in extra else set())
               for c in row}
        pool = list(row)
        rng.shuffle(pool)
        while len(pool) > 3:
            ring, pool = pool[:2 + len(pool) % 2], pool[2 + len(pool) % 2:]
            for a, b in zip(ring, ring[1:] + ring[:1]):
                ups[a].add(b)
        parents.update((c, tuple(sorted(p - {c}))) for c, p in ups.items())
    pages = [corpus_mod.PageRecord(pid, f"p{pid}", "", tuple(sorted(set(
        rng.sample(rows[pid % topics], rng.randint(1, 3))))), ())
        for pid in range(topics * subcats // 10)]
    return corpus_mod.CorpusStore(tuple(pages), tuple(
        corpus_mod.CategoryRecord(c, f"c{c}", parents[c]) for c in sorted(parents)), 0)


def test_twelve_thousand_cyclic_categories_run_the_array_path_in_bounded_time():
    """Leaf sets, the integer digraph and the solver, and both TSV round
    trips, on 12 009 categories of which almost all sit on a 2- or 3-cycle,
    under 2 s: they took 0.65-0.8 s on a 2-vCPU VM, so a loop over nodes or
    edges that creeps back into the array path as a Python object per node
    or edge breaks the bound there."""
    store = _cyclic_store(random.Random(7), topics=8, subcats=1500)
    start = time.perf_counter()
    graph = catgraph.build_graph(store)
    ls = leaf_sets(graph)
    p = np.random.default_rng(7).random(len(catgraph._edge_order(graph)[2]))
    parent, cost = arbor._arborify(graph, p, graph.root_id)
    weights_tsv = catgraph._weights_to_tsv(graph, p)
    tree_tsv = arbor._tree_to_tsv(graph._csr[0], parent, cost)
    assert same_fields(catgraph._weights_from_tsv(weights_tsv, graph), p)
    assert same_fields(arbor._tree_from_tsv(tree_tsv, graph), parent)
    assert time.perf_counter() - start < 2.0
    assert len(graph.category_ids) == 12009 and len(ls.comp_pages) < 7000
    assert np.count_nonzero(parent < 0) == 1 and len(parent) == len(graph.nodes)
    assert weights_tsv == row_weights_tsv([catgraph.WeightedEdge(*e, w, 1.0 - w)
                                           for e, w in zip(graph.edges(), p.tolist())])
    assert tree_tsv == row_arborescence_tsv(parse_arborescence_tsv(tree_tsv))
