import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from wikistrata.catgraph import (
    CategoryGraph,
    Node,
    build_graph,
    categorical_tfidf,
    category_term_weights,
    category_vector,
    cycle_census,
    degree_stats,
    fit_power_law,
    leaf_sets,
    strongly_connected_components,
    weight_edges,
    _Labels,
    _weights_from_tsv,
    _weights_to_tsv,
)
from wikistrata.corpus import parse_corpus
from wikistrata.esa import SparseVector, build_index, document_vector, tfidf
from wikistrata.textproc import Analyzer, build_vocabulary

from oracles import categorical_tfidf_scan, sample_power_law_degrees
from test_esa import dense_matrix, to_dense


def make_graph(cats, inclusion, membership=(), pages=None, root=0):
    pages = set(pages if pages is not None else (p for p, _ in membership))
    return CategoryGraph(
        page_ids=frozenset(pages),
        category_ids=frozenset(cats),
        membership=frozenset(membership),
        inclusion=frozenset(inclusion),
        root_id=root,
    )


def leaf_set_oracle(g, c):
    """Reverse-reachability DFS: pages with a membership into any category
    that can reach c through inclusion edges."""
    # categories that reach c (including c)
    preds = {x: set() for x in g.category_ids}
    for child, parent in g.inclusion:
        preds[parent].add(child)
    reach = {c}
    stack = [c]
    while stack:
        v = stack.pop()
        for w in preds[v]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    return {p for p, cat in g.membership if cat in reach}


class TestBuildGraph:
    def test_fixture_edge_enumeration_oracle(self, fixture_store, fixture_graph):
        membership = set()
        inclusion = set()
        for p in fixture_store.pages:
            for c in p.category_ids:
                membership.add((p.page_id, c))
        for c in fixture_store.categories:
            for parent in c.parent_ids:
                inclusion.add((c.category_id, parent))
        assert set(fixture_graph.membership) == membership
        assert set(fixture_graph.inclusion) == inclusion

    def test_membership_only_if_declared(self):
        store = parse_corpus(
            '{"kind":"meta","root":0,"version":1}\n'
            '{"kind":"category","id":0,"title":"Root","parents":[]}\n'
            '{"kind":"page","id":0,"title":"A","text":"x","categories":[],"links":[]}\n'
            '{"kind":"page","id":1,"title":"B","text":"y","categories":[0],"links":[]}\n'
        )
        g = build_graph(store)
        assert g.membership == frozenset({(1, 0)})


class TestLeafSets:
    def test_empty_category(self):
        g = make_graph({0, 1}, inclusion={(1, 0)}, membership=(), pages=())
        ls = leaf_sets(g)
        assert ls.pages_of(1) == ()

    def test_two_cycle_shares_leaf_set(self):
        g = make_graph({0, 1, 2}, inclusion={(1, 2), (2, 1), (1, 0)},
                       membership={(10, 1)}, pages={10})
        ls = leaf_sets(g)
        assert ls.pages_of(1) == (10,)
        assert ls.pages_of(2) == (10,)

    def test_chain_accumulates(self):
        g = make_graph({0, 1, 2}, inclusion={(2, 1), (1, 0)},
                       membership={(10, 2), (11, 1)}, pages={10, 11})
        ls = leaf_sets(g)
        assert ls.pages_of(2) == (10,)
        assert ls.pages_of(1) == (10, 11)
        assert ls.pages_of(0) == (10, 11)

    def test_components_are_numbered_by_their_smallest_category_id(self):
        # Tarjan, started at each category in ascending order, emits {0},
        # then {5} before {1} (1's parent is 5), then {2, 3} and {4}
        g = make_graph(range(6), inclusion={(1, 5), (5, 0), (2, 3), (3, 2), (3, 0), (4, 2)},
                       membership={(10, 1), (11, 4), (12, 5), (13, 3)})
        succ = {c: sorted(b for a, b in g.inclusion if a == c) for c in g.category_ids}
        tarjan = strongly_connected_components(sorted(g.category_ids), succ.__getitem__)
        assert [min(comp) for comp in tarjan] == [0, 5, 1, 2, 4]
        ls = leaf_sets(g)
        assert ls.comp_of == {0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 5: 4}
        assert ls.smallest_ids() == (0, 1, 2, 4, 5) == tuple(
            min(c for c, k in ls.comp_of.items() if k == comp) for comp in range(5))
        for c in g.category_ids:
            assert set(ls.pages_of(c)) == leaf_set_oracle(g, c), f"category {c}"

    @pytest.mark.parametrize("seed", range(25))
    def test_random_graphs_match_dfs_oracle(self, seed):
        rng = random.Random(seed)
        n_cats = rng.randint(2, 30)
        n_pages = rng.randint(1, 20)
        cats = set(range(n_cats))
        inclusion = {
            (a, b)
            for a in cats for b in cats
            if a != b and rng.random() < 0.1
        }
        membership = {
            (100 + p, rng.randrange(n_cats)) for p in range(n_pages)
        }
        g = make_graph(cats, inclusion, membership, pages={100 + p for p in range(n_pages)})
        ls = leaf_sets(g)
        for c in cats:
            assert set(ls.pages_of(c)) == leaf_set_oracle(g, c), f"category {c}"
        # numbered by smallest category id, which the helper gives
        smallest = [min(c for c in cats if ls.comp_of[c] == i) for i in range(len(ls.comp_pages))]
        assert list(ls.smallest_ids()) == smallest == sorted(smallest)


class TestCategoricalTfidf:
    def test_singleton_category_equals_classical(self, fixture_index, fixture_store):
        # A category holding exactly one page reproduces classical tfidf:
        # 1 + n_out is then exactly df(w).
        for page in fixture_store.pages:
            pid = page.page_id
            g = make_graph({0, 1}, inclusion={(1, 0)}, membership={(pid, 1)}, pages={pid})
            ls = leaf_sets(g)
            for tid, f in fixture_index.page_term_freqs[pid].items():
                got = categorical_tfidf(tid, 1, fixture_index, ls)
                want = tfidf(f, fixture_index.vocabulary.df(tid), fixture_index.n_pages)
                assert abs(got - want) <= 1e-12

    def test_term_everywhere_in_leaves_only(self, fixture_index):
        # Term in every leaf and nowhere else with aggregate frequency 1:
        # (1 + ln 1) * ln(#W / 1) = ln #W
        tid = fixture_index.vocabulary.term_to_id["organ"]  # page 0 only, freq 1
        g = make_graph({0, 1}, inclusion={(1, 0)}, membership={(0, 1)}, pages={0})
        ls = leaf_sets(g)
        got = categorical_tfidf(tid, 1, fixture_index, ls)
        assert got == pytest.approx(math.log(fixture_index.n_pages))

    def test_fixture_pairs_match_posting_scan_oracle(self, fixture_index, fixture_graph,
                                                     fixture_leaf_sets):
        for cid in sorted(fixture_graph.category_ids):
            leaves = set(fixture_leaf_sets.pages_of(cid))
            for tid in range(len(fixture_index.vocabulary)):
                postings = [(p, freqs[tid]) for p, freqs in fixture_index.page_term_freqs.items()
                            if tid in freqs]
                sum_f = sum(f for p, f in postings if p in leaves)
                n_out = sum(1 for p, _ in postings if p not in leaves)
                if sum_f < 1:
                    with pytest.raises(ValueError):
                        categorical_tfidf(tid, cid, fixture_index, fixture_leaf_sets)
                    continue
                want = (1 + math.log(sum_f)) * math.log(
                    fixture_index.n_pages / (1 + n_out))
                got = categorical_tfidf(tid, cid, fixture_index, fixture_leaf_sets)
                assert got == pytest.approx(want, abs=1e-12)
                assert got >= 0.0

    def test_monotone_decreasing_when_term_spreads_outside(self):
        # Adding a page containing w outside F(c) strictly decreases the value.
        base = (
            '{"kind":"meta","root":0,"version":1}\n'
            '{"kind":"category","id":0,"title":"Root","parents":[]}\n'
            '{"kind":"category","id":1,"title":"C","parents":[0]}\n'
            '{"kind":"page","id":0,"title":"A","text":"w q","categories":[1],"links":[]}\n'
            '{"kind":"page","id":1,"title":"B","text":"r s","categories":[],"links":[]}\n'
        )
        extra = '{"kind":"page","id":2,"title":"D","text":"w z","categories":[],"links":[]}\n'
        values = []
        for text in (base, base + extra):
            store = parse_corpus(text)
            a = Analyzer(stemmer=lambda w: w)
            index = build_index(store, a, build_vocabulary(store, a, 1))
            g = build_graph(store)
            ls = leaf_sets(g)
            tid = index.vocabulary.term_to_id["w"]
            values.append(categorical_tfidf(tid, 1, index, ls))
        assert values[1] < values[0]


class TestCategoryVector:
    def test_singleton_category_equals_document_vector(self, fixture_index, fixture_store):
        # For a category whose leaf set is one page, categorical tfidf equals
        # the page tfidf, so the vectors coincide.
        pid = 3
        g = make_graph({0, 1}, inclusion={(1, 0)}, membership={(pid, 1)}, pages={pid})
        ls = leaf_sets(g)
        got = category_vector(1, fixture_index, ls, max_nnz=1000)
        voc = fixture_index.vocabulary
        terms = [voc.id_to_term[t]
                 for t, f in fixture_index.page_term_freqs[pid].items()
                 for _ in range(f)]
        want = document_vector(fixture_index, terms)
        assert got.dims == want.dims
        np.testing.assert_allclose(got.weights, want.weights, atol=1e-12)

    def test_max_nnz_one_uses_most_frequent_term(self, fixture_index, fixture_graph,
                                                 fixture_leaf_sets):
        weights = category_term_weights(1, fixture_index, fixture_leaf_sets, max_nnz=1)
        assert len(weights) == 1
        # aggregate frequencies over F(1), ties to the smaller term id
        agg = Counter()
        for pid in fixture_leaf_sets.pages_of(1):
            for tid, f in fixture_index.page_term_freqs[pid].items():
                agg[tid] += f
        best = min(agg, key=lambda t: (-agg[t], t))
        assert set(weights) == {best}

    @pytest.mark.parametrize("max_nnz", [-1, 0, 2.5, True])
    def test_max_nnz_must_be_a_positive_integer(self, fixture_index, fixture_leaf_sets, max_nnz):
        with pytest.raises(ValueError, match="max_nnz"):
            category_term_weights(1, fixture_index, fixture_leaf_sets, max_nnz)
        with pytest.raises(ValueError, match="max_nnz"):
            category_vector(1, fixture_index, fixture_leaf_sets, max_nnz)

    def test_only_the_weight_table_takes_max_nnz_none(self, fixture_index, fixture_leaf_sets):
        assert category_term_weights(1, fixture_index, fixture_leaf_sets, None)
        with pytest.raises(ValueError, match="max_nnz"):
            category_vector(1, fixture_index, fixture_leaf_sets, None)

    def test_empty_leaf_set_zero_vector(self, fixture_index):
        g = make_graph({0, 1}, inclusion={(1, 0)}, membership=(), pages=())
        ls = leaf_sets(g)
        assert category_vector(1, fixture_index, ls).is_zero()

    def test_fixture_category_matches_dense_oracle(self, fixture_index, fixture_leaf_sets):
        m = dense_matrix(fixture_index)
        cid = 2  # Science: leaves {2, 3, 4, 6}
        agg = Counter()
        for pid in fixture_leaf_sets.pages_of(cid):
            for tid, f in fixture_index.page_term_freqs[pid].items():
                agg[tid] += f
        ranked = sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))[:1000]
        acc = np.zeros(fixture_index.n_pages)
        sq = 0.0
        for tid, _ in ranked:
            t = categorical_tfidf_scan(tid, cid, fixture_index, fixture_leaf_sets)
            sq += t * t
            acc += t * m[tid, :]
        expect = acc / math.sqrt(sq)
        expect /= np.linalg.norm(expect)
        got = to_dense(category_vector(cid, fixture_index, fixture_leaf_sets),
                       fixture_index.n_pages)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_unit_norm(self, fixture_index, fixture_graph, fixture_leaf_sets):
        for cid in sorted(fixture_graph.category_ids):
            vec = category_vector(cid, fixture_index, fixture_leaf_sets)
            if not vec.is_zero():
                assert abs(vec.norm() - 1.0) <= 1e-9


class TestWeightEdges:
    def test_identical_vectors_cost_zero(self):
        g = make_graph({0, 1}, inclusion={(1, 0)}, membership=(), pages=())
        v = SparseVector.from_dict({0: 1.0})
        edges = weight_edges(g, {Node.category(0): v, Node.category(1): v})
        assert edges[0].p == pytest.approx(1.0)
        assert edges[0].cost == pytest.approx(0.0)

    def test_orthogonal_vectors_cost_one(self):
        g = make_graph({0, 1}, inclusion={(1, 0)}, membership=(), pages=())
        edges = weight_edges(g, {
            Node.category(0): SparseVector.from_dict({0: 1.0}),
            Node.category(1): SparseVector.from_dict({1: 1.0}),
        })
        assert edges[0].p == 0.0
        assert edges[0].cost == 1.0

    def test_fixture_edges_match_dense_dot(self, fixture_store, fixture_graph,
                                           fixture_index, fixture_leaf_sets):
        vectors = {}
        for p in fixture_store.pages:
            voc = fixture_index.vocabulary
            terms = [voc.id_to_term[t]
                     for t, f in fixture_index.page_term_freqs[p.page_id].items()
                     for _ in range(f)]
            vectors[Node.page(p.page_id)] = document_vector(fixture_index, terms)
        for c in fixture_store.categories:
            vectors[Node.category(c.category_id)] = category_vector(
                c.category_id, fixture_index, fixture_leaf_sets)
        edges = weight_edges(fixture_graph, vectors)
        n = fixture_index.n_pages
        for e in edges:
            a = to_dense(vectors[e.src], n)
            b = to_dense(vectors[e.dst], n)
            assert e.p == pytest.approx(float(a @ b), abs=1e-12)
            assert 0.0 <= e.p <= 1.0
            assert e.cost + e.p == 1.0

    def test_a_node_without_a_vector_raises_key_error(self):
        g = make_graph({0, 1}, inclusion={(1, 0)}, membership=(), pages=())
        with pytest.raises(KeyError):
            weight_edges(g, {Node.category(0): SparseVector.from_dict({0: 1.0})})

    def test_zero_vector_node_p_zero(self):
        g = make_graph({0, 1}, inclusion={(1, 0)}, membership=(), pages=())
        edges = weight_edges(g, {
            Node.category(0): SparseVector.from_dict({0: 1.0}),
            Node.category(1): SparseVector.zero(),
        })
        assert edges[0].p == 0.0


class TestCycleCensus:
    def test_acyclic_graph_empty_report(self):
        g = make_graph({0, 1, 2}, inclusion={(1, 0), (2, 1)},
                       membership={(10, 2)}, pages={10})
        exact = cycle_census(g, "exact")
        assert exact.cycles == ()
        walk = cycle_census(g, "walk", seed=1)
        assert walk.n_cycle_walks == 0
        assert walk.n_root_walks == 1

    def test_planted_two_and_three_cycles(self):
        g = make_graph(
            {0, 1, 2, 3, 4, 5},
            inclusion={(1, 2), (2, 1), (3, 4), (4, 5), (5, 3), (1, 0)},
            membership=(), pages=())
        report = cycle_census(g, "exact")
        assert report.cycles == ((1, 2), (3, 4, 5))

    @pytest.mark.parametrize("seed", range(20))
    def test_planted_cycles_recovered_on_random_instances(self, seed):
        rng = random.Random(seed)
        # Build an acyclic backbone (edges only from higher to lower id),
        # then plant disjoint 2- and 3-cycles on reserved nodes.
        n = rng.randint(10, 25)
        cats = set(range(n))
        inclusion = {
            (a, b) for a in cats for b in cats
            if a > b + 5 and rng.random() < 0.15
        }
        planted = set()
        reserved = list(range(n, n + 10))
        expected = set()
        n2 = rng.randint(1, 2)
        n3 = rng.randint(1, 2)
        it = iter(reserved)
        for _ in range(n2):
            a, b = next(it), next(it)
            planted |= {(a, b), (b, a)}
            expected.add((a, b))
        for _ in range(n3):
            a, b, c = next(it), next(it), next(it)
            planted |= {(a, b), (b, c), (c, a)}
            expected.add((a, b, c))
        g = make_graph(cats | set(reserved), inclusion | planted,
                       membership=(), pages=())
        report = cycle_census(g, "exact")
        assert set(report.cycles) == expected

    def test_walk_mode_deterministic_per_seed(self, fixture_graph):
        a = cycle_census(fixture_graph, "walk", seed=3)
        b = cycle_census(fixture_graph, "walk", seed=3)
        assert a == b

    def test_walk_finds_planted_cycle(self):
        # One page whose only path runs into a 2-cycle off the root path.
        g = make_graph({0, 1, 2}, inclusion={(1, 2), (2, 1)},
                       membership={(10, 1)}, pages={10})
        report = cycle_census(g, "walk", seed=0)
        assert report.n_cycle_walks == 1
        assert report.cycles == ((1, 2),)


class TestDegreeStats:
    def test_regular_graph_degenerate_fit(self):
        # every category has identical in/out degree -> single histogram spike
        g = make_graph({0, 1, 2}, inclusion={(1, 0), (2, 1), (0, 2)},
                       membership=(), pages=())
        stats = degree_stats(g)
        assert stats.out_fit.degenerate
        assert math.isnan(stats.out_fit.alpha)

    def test_power_law_recovery(self):
        degrees = sample_power_law_degrees(2.5, 10_000, seed=42)
        fit = fit_power_law(degrees)
        assert not fit.degenerate
        assert 2.2 <= fit.alpha <= 2.8

    def test_histograms_count_categories(self, fixture_graph):
        stats = degree_stats(fixture_graph)
        assert sum(stats.in_hist.values()) == len(fixture_graph.category_ids)
        assert sum(stats.out_hist.values()) == len(fixture_graph.category_ids)


HEADER = "from\tto\tkind\tp\tcost\n"
# one edge, c:1 -> c:0: each row below names it, or fails before its edge is compared
ONE_EDGE = make_graph([0, 1], [(1, 0)])


@pytest.mark.parametrize("text, message", [
    ("x\np:1\tc:0\tmembership\t0.5\t0.5\n",
     "line 1: expected the header from<TAB>to<TAB>kind<TAB>p<TAB>cost"),
    ("", "line 1: expected the header from<TAB>to<TAB>kind<TAB>p<TAB>cost"),
    (HEADER + "p:1\tc:0\tbogus\t0.5\t0.5\n",
     "line 2: expected the graph's edge 1, c:1 c:0 inclusion, "
     "got 'p:1\\tc:0\\tbogus\\t0.5\\t0.5'"),
    (HEADER + "p:1\tc:0\tmembership\t0.5\n",
     "line 2: not enough values to unpack (expected 5, got 4), "
     "got 'p:1\\tc:0\\tmembership\\t0.5'"),
    (HEADER + "c:1\tc:0\tinclusion\t0.5\t0.5\np:1\tc:0\tmembership\tnan\t0.5\n",
     "line 3: nan is not in [0, 1], got 'p:1\\tc:0\\tmembership\\tnan\\t0.5'"),
    (HEADER + "p:1\tc:0\tmembership\t0.5\t-0.5\n",
     "line 2: -0.5 is not in [0, 1], got 'p:1\\tc:0\\tmembership\\t0.5\\t-0.5'"),
    (HEADER + "p:1\tc:0\tmembership\tx\t0.5\n",
     "line 2: could not convert string to float: 'x', got 'p:1\\tc:0\\tmembership\\tx\\t0.5'"),
    (HEADER + "p:1\tz:0\tmembership\t0.5\t0.5\n",
     "line 2: expected the graph's edge 1, c:1 c:0 inclusion, "
     "got 'p:1\\tz:0\\tmembership\\t0.5\\t0.5'"),
], ids=["header", "empty", "bogus-kind", "four-fields", "nan-p", "negative-cost", "bad-p",
        "bad-node"])
def test_weights_row_the_writer_never_writes_raises_naming_its_line(text, message):
    with pytest.raises(ValueError, match="^" + re.escape(f"weights {message}") + "$"):
        _weights_from_tsv(text, ONE_EDGE)


def test_weights_header_alone_is_no_edges():
    assert _weights_from_tsv(HEADER, make_graph([0], [])).shape == (0,)
    with pytest.raises(ValueError, match="^weights line 2: no row for the graph's edge 1, "
                                         "c:1 c:0 inclusion$"):
        _weights_from_tsv(HEADER, ONE_EDGE)


# three edges, in edges() order: p:1 -> c:0, c:1 -> c:0, c:2 -> c:1
THREE_EDGES = make_graph([0, 1, 2], [(1, 0), (2, 1)], [(1, 0)])
ROWS = ["p:1\tc:0\tmembership\t0.25\t0.75", "c:1\tc:0\tinclusion\t1\t0",
        "c:2\tc:1\tinclusion\t0.5\t0.5"]


def test_weights_tsv_names_the_graphs_edges_in_order():
    p = np.array([0.25, 1.0, 0.5])
    assert _weights_to_tsv(THREE_EDGES, p) == HEADER + "\n".join(ROWS) + "\n"
    assert _weights_from_tsv(HEADER + "\n".join(ROWS), THREE_EDGES).tolist() == p.tolist()


@pytest.mark.parametrize("rows, line, message", [
    (ROWS[::-1], 2, "expected the graph's edge 1, p:1 c:0 membership"),
    ([ROWS[0], ROWS[2], ROWS[1]], 3, "expected the graph's edge 2, c:1 c:0 inclusion"),
    (ROWS[:2], 4, "no row for the graph's edge 3, c:2 c:1 inclusion"),
    (ROWS + ROWS[2:], 5, "the graph has only 3 edges"),
    ([ROWS[0], "c:1\tc:2\tinclusion\t1\t0", ROWS[2]], 3,
     "expected the graph's edge 2, c:1 c:0 inclusion"),
    ([ROWS[0], "c:1\tc:0\tmembership\t1\t0", ROWS[2]], 3,
     "expected the graph's edge 2, c:1 c:0 inclusion"),
    ([*ROWS[:2], "c:2\tc:1\tinclusion\t0.5\t0.25"], 4, "cost 0.25 is not 1 - p"),
    ([*ROWS[:2], "c:2\tc:1\tinclusion\t0.5\t0.50000000000000011"], 4,
     "cost 0.50000000000000011 is not 1 - p"),
], ids=["reversed", "swapped", "missing", "extra", "other-edge", "other-kind", "cost",
        "cost-by-an-ulp"])
def test_weights_row_that_names_no_edge_of_the_graph_raises_naming_its_line(rows, line, message):
    with pytest.raises(ValueError, match="^" + re.escape(f"weights line {line}: {message}")):
        _weights_from_tsv(HEADER + "\n".join(rows) + "\n", THREE_EDGES)


def test_weights_reader_builds_no_node_and_no_labels(monkeypatch):
    text = _weights_to_tsv(THREE_EDGES, np.array([0.25, 1.0, 0.5]))
    THREE_EDGES._csr  # derived before the spies, as build_graph derives it
    calls = []
    monkeypatch.setattr(Node, "parse", lambda *args: calls.append("parse"))
    monkeypatch.setattr(_Labels, "of", lambda *args: calls.append("of"))
    assert _weights_from_tsv(text, THREE_EDGES).tolist() == [0.25, 1.0, 0.5]
    assert calls == []
