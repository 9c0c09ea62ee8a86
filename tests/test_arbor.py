import random

import pytest
from hypothesis import given, settings, strategies as st

from wikistrata.arbor import (
    ArborError,
    Arborescence,
    RootedCostDigraph,
    ancestors,
    arborescence_to_tsv,
    chu_liu_edmonds,
    parse_arborescence_tsv,
    reverse_and_cost,
)
from wikistrata.catgraph import CategoryGraph, Node, WeightedEdge

from oracles import brute_force_min_arborescence


def digraph(edges, root=0, nodes=None):
    if nodes is None:
        nodes = {root} | {u for u, _ in edges} | {v for _, v in edges}
    return RootedCostDigraph.from_edges(nodes, [(u, v, c) for (u, v), c in edges.items()], root)


def random_reachable_digraph(rng, n_nodes, cost_range=(0, 9)):
    """Random digraph guaranteed root-reachable: a random skeleton path
    from the root plus random extra edges, integer costs."""
    nodes = list(range(n_nodes))
    edges = {}
    order = nodes[1:]
    rng.shuffle(order)
    reached = [0]
    for v in order:
        u = rng.choice(reached)
        edges[(u, v)] = rng.randint(*cost_range)
        reached.append(v)
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < 0.4:
                edges.setdefault((u, v), rng.randint(*cost_range))
    return digraph(edges)


class TestReverseAndCost:
    def test_single_membership(self):
        g = CategoryGraph(page_ids=frozenset({5}), category_ids=frozenset({0}),
                          membership=frozenset({(5, 0)}), inclusion=frozenset(),
                          root_id=0)
        w = [WeightedEdge(Node.page(5), Node.category(0), "membership", 0.4, 0.6)]
        d = reverse_and_cost(g, w, 0)
        assert d.root == Node.category(0)
        assert d.edges == {(Node.category(0), Node.page(5)): 0.6}

    def test_p_one_gives_cost_zero(self):
        g = CategoryGraph(page_ids=frozenset({5}), category_ids=frozenset({0}),
                          membership=frozenset({(5, 0)}), inclusion=frozenset(),
                          root_id=0)
        w = [WeightedEdge(Node.page(5), Node.category(0), "membership", 1.0, 0.0)]
        d = reverse_and_cost(g, w, 0)
        assert d.edges[(Node.category(0), Node.page(5))] == 0.0

    def test_fixture_graph_manual_reversal(self, fixture_graph):
        weights = [
            WeightedEdge(Node.page(a), Node.category(b), "membership", 0.5, 0.5)
            for a, b in sorted(fixture_graph.membership)
        ] + [
            WeightedEdge(Node.category(a), Node.category(b), "inclusion", 0.25, 0.75)
            for a, b in sorted(fixture_graph.inclusion)
        ]
        d = reverse_and_cost(fixture_graph, weights, fixture_graph.root_id)
        expect = {(Node.category(b), Node.page(a)): 0.5
                  for a, b in fixture_graph.membership}
        expect.update({(Node.category(b), Node.category(a)): 0.75
                       for a, b in fixture_graph.inclusion})
        assert d.edges == expect

    @pytest.mark.parametrize("root", [99, 5])  # no node at all, and a page's id
    def test_a_root_that_names_no_category_raises_naming_it(self, root):
        g = CategoryGraph(page_ids=frozenset({5}), category_ids=frozenset({0}),
                          membership=frozenset({(5, 0)}), inclusion=frozenset(),
                          root_id=0)
        w = [WeightedEdge(Node.page(5), Node.category(0), "membership", 0.4, 0.6)]
        with pytest.raises(ValueError, match=f"^root {root} is not a category of the graph$"):
            reverse_and_cost(g, w, root)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])), max_size=30))
    def test_edges_equal_the_premerged_oracle(self, raw):
        # category pairs only, so repeated reversed pairs, self-loops and
        # equal-cost ties are all common
        g = CategoryGraph(page_ids=frozenset(), category_ids=frozenset(range(4)),
                          membership=frozenset(), inclusion=frozenset(), root_id=0)
        weights = [WeightedEdge(Node.category(a), Node.category(b), "inclusion", 1.0 - c, c)
                   for a, b, c in raw]
        got = reverse_and_cost(g, weights, 0)
        assert (got.nodes, got.root) == (tuple(g.nodes), Node.category(0))
        assert list(got.edges.items()) == list(premerged_edges(weights).items())


def premerged_edges(weights):
    """The edges of reverse_and_cost as it was: parallel reversed edges
    merged into the first of the cheapest, in first-seen order, and then
    the self-loops dropped by from_edges."""
    edge_costs = {}
    for e in weights:
        key = (e.dst, e.src)
        if key not in edge_costs or e.cost < edge_costs[key]:
            edge_costs[key] = e.cost
    return {(u, v): cost for (u, v), cost in edge_costs.items() if u != v}


class TestFromEdges:
    """Input the solver would get wrong is refused, naming what is wrong."""

    def test_a_node_given_twice_raises_naming_it(self):
        # the solver once named node 1 unreachable here
        with pytest.raises(ValueError, match=r"^node 1 is given twice$"):
            RootedCostDigraph.from_edges([0, 1, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)], 0)

    def test_a_root_that_is_not_a_node_raises_naming_it(self):
        with pytest.raises(ValueError, match=r"^root 5 is not one of the nodes$"):
            RootedCostDigraph.from_edges([0, 1], [(0, 1, 1.0)], 5)

    def test_an_edge_endpoint_that_is_not_a_node_raises_naming_the_edge(self):
        with pytest.raises(ValueError, match=r"^edge \(1, 2\) has an endpoint that is not a node$"):
            RootedCostDigraph.from_edges([0, 1], [(0, 1, 1.0), (1, 2, 1.0)], 0)

    @pytest.mark.parametrize("cost", [float("nan"), -1.0, float("inf")])
    def test_a_cost_that_is_negative_or_not_finite_raises_naming_it(self, cost):
        with pytest.raises(ValueError, match=rf"^edge \(0, 1\) has cost {cost!r}, not finite"):
            RootedCostDigraph.from_edges([0, 1], [(0, 1, cost)], 0)


class TestChuLiuEdmonds:
    def test_star_graph(self):
        edges = {(0, 1): 2, (0, 2): 3, (0, 3): 1}
        tree = chu_liu_edmonds(digraph(edges))
        assert tree.parent == {1: (0, 2), 2: (0, 3), 3: (0, 1)}
        assert tree.total_cost == 6

    def test_greedy_base_case(self):
        # each node's cheapest incoming edge already forms a tree
        edges = {(0, 1): 1, (0, 2): 5, (1, 2): 1, (2, 1): 9}
        tree = chu_liu_edmonds(digraph(edges))
        assert tree.parent == {1: (0, 1), 2: (1, 1)}

    def test_cycle_contraction_needed(self):
        # cheap 2-cycle between 1 and 2 must be broken optimally
        edges = {(0, 1): 10, (0, 2): 10, (1, 2): 1, (2, 1): 1}
        tree = chu_liu_edmonds(digraph(edges))
        assert tree.total_cost == 11
        oracle = brute_force_min_arborescence(digraph(edges))
        assert tree.total_cost == oracle.total_cost

    def test_unreachable_node_listed(self):
        d = digraph({(1, 2): 1}, root=0, nodes={0, 1, 2})
        with pytest.raises(ArborError) as err:
            chu_liu_edmonds(d)
        assert set(err.value.unreachable) == {1, 2}

    def test_counterexample_graph_has_no_arborescence(self):
        # 4 nodes, no path of length > 1, no vertex reaches all others
        edges = {(0, 1): 1, (3, 1): 1, (0, 2): 1, (3, 2): 1}
        with pytest.raises(ArborError):
            chu_liu_edmonds(digraph(edges, root=0))
        with pytest.raises(ArborError):
            brute_force_min_arborescence(digraph(edges, root=0))

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_brute_force_on_random_instances(self, seed):
        rng = random.Random(seed)
        d = random_reachable_digraph(rng, rng.randint(2, 6))
        fast = chu_liu_edmonds(d)
        slow = brute_force_min_arborescence(d)
        assert fast.total_cost == slow.total_cost

    @pytest.mark.parametrize("seed", range(20))
    def test_not_worse_than_random_arborescences(self, seed):
        rng = random.Random(1000 + seed)
        d = random_reachable_digraph(rng, rng.randint(3, 8))
        best = chu_liu_edmonds(d)
        in_edges = {}
        for (u, v), c in d.edges.items():
            in_edges.setdefault(v, []).append((u, c))
        non_root = [n for n in d.nodes if n != d.root]
        found = 0
        trials = 0
        while found < 200 and trials < 5000:
            trials += 1
            parent = {v: rng.choice(in_edges[v]) for v in non_root}
            ok = True
            for start in non_root:
                seen = set()
                v = start
                while v != d.root:
                    if v in seen:
                        ok = False
                        break
                    seen.add(v)
                    v = parent[v][0]
                if not ok:
                    break
            if not ok:
                continue
            found += 1
            total = sum(c for _u, c in parent.values())
            assert best.total_cost <= total + 1e-9

    def test_deterministic(self):
        rng = random.Random(7)
        d = random_reachable_digraph(rng, 6)
        a = chu_liu_edmonds(d)
        b = chu_liu_edmonds(d)
        assert a.parent == b.parent

    def test_parent_count_and_acyclicity(self):
        rng = random.Random(11)
        for _ in range(20):
            d = random_reachable_digraph(rng, rng.randint(2, 10))
            tree = chu_liu_edmonds(d)
            assert len(tree.parent) == len(d.nodes) - 1
            for start in tree.parent:
                seen = set()
                v = start
                while v != tree.root:
                    assert v not in seen
                    seen.add(v)
                    v = tree.parent[v][0]

    @pytest.mark.parametrize("seed", range(10))
    def test_uniform_cost_shift_invariance(self, seed):
        rng = random.Random(500 + seed)
        d = random_reachable_digraph(rng, rng.randint(3, 6))
        base = chu_liu_edmonds(d)
        shift = 5
        shifted = RootedCostDigraph(
            nodes=d.nodes,
            edges={e: c + shift for e, c in d.edges.items()},
            root=d.root,
        )
        moved = chu_liu_edmonds(shifted)
        n = len(d.nodes)
        assert moved.total_cost == pytest.approx(base.total_cost + (n - 1) * shift)
        assert {v: u for v, (u, _c) in moved.parent.items()} == \
               {v: u for v, (u, _c) in base.parent.items()}

    def test_equal_cost_ties_prefer_smaller_source(self):
        edges = {(0, 1): 1, (0, 2): 1, (1, 2): 1, (2, 1): 1}
        tree = chu_liu_edmonds(digraph(edges))
        # every incoming edge ties on cost; the smallest source wins per node
        assert tree.parent[1] == (0, 1)
        assert tree.parent[2] == (0, 1)


class TestBruteForce:
    def test_two_node_single_edge(self):
        tree = brute_force_min_arborescence(digraph({(0, 1): 3}))
        assert tree.parent == {1: (0, 3)}

    def test_agrees_with_fast_on_five_nodes(self):
        rng = random.Random(99)
        for _ in range(30):
            d = random_reachable_digraph(rng, 5)
            assert (brute_force_min_arborescence(d).total_cost
                    == chu_liu_edmonds(d).total_cost)

    def test_size_cap(self):
        edges = {(0, i): 1 for i in range(1, 10)}
        with pytest.raises(ValueError):
            brute_force_min_arborescence(digraph(edges))


class TestAncestors:
    def test_root_has_no_ancestors(self):
        tree = chu_liu_edmonds(digraph({(0, 1): 1}))
        assert ancestors(tree, 0, 3) == []

    def test_chain_readout(self):
        tree = Arborescence(parent={1: (0, 0.5), 2: (1, 0.5), 3: (2, 0.5)},
                            root=0, total_cost=1.5)
        assert ancestors(tree, 3, 2) == [2, 1]
        assert ancestors(tree, 3, 10) == [2, 1, 0]

    def test_matches_iterated_lookup(self):
        rng = random.Random(3)
        for _ in range(20):
            d = random_reachable_digraph(rng, rng.randint(2, 10))
            tree = chu_liu_edmonds(d)
            for node in list(tree.parent) + [tree.root]:
                for k in range(4):
                    chain = []
                    v = node
                    for _ in range(k):
                        if v == tree.root:
                            break
                        v = tree.parent[v][0]
                        chain.append(v)
                    assert ancestors(tree, node, k) == chain

    def test_unknown_node_raises(self):
        tree = chu_liu_edmonds(digraph({(0, 1): 1}))
        with pytest.raises(KeyError):
            ancestors(tree, 42, 1)


class TestTsv:
    def test_roundtrip(self):
        tree = Arborescence(
            parent={Node.page(3): (Node.category(1), 0.25),
                    Node.category(1): (Node.category(0), 0.5)},
            root=Node.category(0),
            total_cost=0.75,
        )
        text = arborescence_to_tsv(tree)
        back = parse_arborescence_tsv(text)
        assert back.parent == tree.parent
        assert back.root == tree.root
        assert back.total_cost == pytest.approx(tree.total_cost)
