"""The iterative Chu-Liu/Edmonds solver against the recursive one it
replaced, which is kept here unchanged as the oracle.

The recursive solver scans each level's nodes in the iteration order of a
Python ``set`` of integer labels. That order is sorted while every label is
smaller than the set's hash table; once many contractions have shrunk the
set, fresh labels can wrap around the table and be scanned first. The
iterative solver always scans in sorted order (its rule 5). So its parents
must equal the oracle's wherever the oracle contracted, at every level, the
cycle that a sorted scan finds, and must equal a sorted-scan run of the
same oracle everywhere.

Further checks: totals that do not depend on ``PYTHONHASHSEED``, the
contraction counts that made the recursive solver fail, networkx's total
cost where it is installed, and the digests the pipeline cache takes and
keeps.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

import wikistrata
from wikistrata import catgraph, corpus as corpus_mod, pipeline
from wikistrata.arbor import (
    Arborescence,
    RootedCostDigraph,
    arborescence_to_tsv,
    chu_liu_edmonds,
    parse_arborescence_tsv,
    reverse_and_cost,
)
from wikistrata.catgraph import Node

from conftest import settle
from oracles import _check_reachable


# -- oracle: the recursive solver as it was ----------------------------------

def _find_cycle(best_parent: dict) -> list | None:
    # best_parent maps node -> chosen source; returns one cycle's nodes.
    color = {}
    for start in best_parent:
        if color.get(start):
            continue
        path = []
        v = start
        while v in best_parent and color.get(v) is None:
            color[v] = "open"
            path.append(v)
            v = best_parent[v]
        if color.get(v) == "open":
            return path[path.index(v):]
        for w in path:
            color[w] = "done"
        color[v] = color.get(v, "done")
    return None


def recursive_chu_liu_edmonds(g: RootedCostDigraph) -> Arborescence:
    """Minimum-cost spanning arborescence rooted at g.root.

    Deterministic: among equal-cost incoming edges the one with the
    smallest source id wins; nodes are relabeled to dense integers in
    sorted order, so any sortable node labels work.
    """
    _check_reachable(g)
    labels = sorted(g.nodes)
    idx = {n: i for i, n in enumerate(labels)}
    root = idx[g.root]
    # Edge payloads carry the original (u, v) pair so contraction levels
    # can always report back in terms of the input graph.
    edges = {
        (idx[u], idx[v]): (cost, (u, v))
        for (u, v), cost in g.edges.items()
    }
    next_label = len(labels)

    def solve(nodes: set, edges: dict, root: int, next_label: int) -> set:
        in_edges: dict[int, list] = {v: [] for v in nodes if v != root}
        for (u, v), (cost, orig) in edges.items():
            if v != root and u in nodes and v in nodes:
                in_edges[v].append((cost, u, orig))
        best = {}
        for v, cands in in_edges.items():
            best[v] = min(cands)  # (cost, source, orig): cost then smallest source
        cycle = _find_cycle({v: u for v, (_c, u, _o) in best.items()})
        if cycle is None:
            return {orig for (_c, _u, orig) in best.values()}
        cyc = set(cycle)
        super_node = next_label
        entry_targets = {}  # orig edge -> the cycle node it pointed at
        new_edges = {}
        for (u, v), (cost, orig) in edges.items():
            if u not in nodes or v not in nodes:
                continue
            if u in cyc and v in cyc:
                continue
            if v in cyc:
                reduced = cost - best[v][0]
                key = (u, super_node)
                if key not in new_edges or (reduced, v) < (new_edges[key][0], entry_targets[new_edges[key][1]]):
                    new_edges[key] = (reduced, orig)
                    entry_targets[orig] = v
            elif u in cyc:
                key = (super_node, v)
                if key not in new_edges or cost < new_edges[key][0]:
                    new_edges[key] = (cost, orig)
            else:
                new_edges[(u, v)] = (cost, orig)
        sub_nodes = (nodes - cyc) | {super_node}
        chosen = solve(sub_nodes, new_edges, root, next_label + 1)
        entering = [o for o in chosen if o in entry_targets]
        assert len(entering) == 1
        broken = entry_targets[entering[0]]
        for v in cycle:
            if v != broken:
                chosen.add(best[v][2])
        return chosen

    chosen = solve(set(range(len(labels))), edges, root, next_label)
    parent = {}
    total = 0.0
    for (u, v) in chosen:
        cost = g.edges[(u, v)]
        parent[v] = (u, cost)
        total += cost
    return Arborescence(parent=parent, root=g.root, total_cost=total)


def run_oracle(g, sorted_scan=False):
    """(oracle result, whether every level contracted the cycle a sorted
    scan finds, number of contractions). ``sorted_scan`` hands each level's
    nodes to ``_find_cycle`` in sorted order, the iterative solver's rule 5."""
    scans = []
    find_cycle = globals()["_find_cycle"]

    def watched(best_parent):
        in_order = find_cycle(dict(sorted(best_parent.items())))
        found = find_cycle(best_parent)
        scans.append(set(found or ()) == set(in_order or ()))
        return in_order if sorted_scan else found

    globals()["_find_cycle"] = watched
    try:
        tree = recursive_chu_liu_edmonds(g)
    finally:
        globals()["_find_cycle"] = find_cycle
    return tree, all(scans), len(scans) - 1


def assert_matches_oracle(g):
    """The iterative result equals the oracle's as far as the oracle's own
    scan order allows; returns (contractions, whether that was all the way)."""
    new = chu_liu_edmonds(g)
    old, same_cycles, contractions = run_oracle(g)
    if same_cycles:
        assert new.parent == old.parent
    else:
        assert new.parent == run_oracle(g, sorted_scan=True)[0].parent
        assert new.total_cost == pytest.approx(old.total_cost, rel=1e-12, abs=1e-12)
    return contractions, same_cycles


# -- graphs ------------------------------------------------------------------

# Few distinct costs, so most choices are ties; 0.1 + 0.2 != 0.3 in floats.
COST_POOLS = (
    (0, 1),
    (0, 1, 2),
    (0.1, 0.2, 0.30000000000000004, 0.3),
    (0.125, 0.25, 1 / 3, 0.5),
)


def random_tie_heavy_digraph(rng):
    """2-12 nodes, root 0 reaches all through a random skeleton, extra
    edges at a random density; costs from one small pool."""
    n = rng.randint(2, 12)
    costs = rng.choice(COST_POOLS)
    order = list(range(1, n))
    rng.shuffle(order)
    edges = {}
    reached = [0]
    for v in order:
        edges[(rng.choice(reached), v)] = rng.choice(costs)
        reached.append(v)
    density = rng.uniform(0.2, 0.9)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                edges.setdefault((u, v), rng.choice(costs))
    return RootedCostDigraph.from_edges(range(n), ((u, v, c) for (u, v), c in edges.items()), 0)


def planted_cycle_digraph(rng, n, ring_share=1.0,
                          costs=(0.1, 0.2, 0.30000000000000004, 0.7)):
    """Root 0 reaches every node through a skeleton of cost-1 edges. Disjoint
    rings of 2-4 nodes, over a share ``ring_share`` of the nodes, get cheap
    edges, and consecutive rings are linked in rings of rings, so
    contractions nest. Extra edges take the same few costs, so ties are
    common."""
    nodes = list(range(1, n))
    rng.shuffle(nodes)
    edges = {}
    reached = [0]
    for v in nodes:
        edges[(rng.choice(reached), v)] = 1.0
        reached.append(v)
    rings = []
    rest = nodes[:round(ring_share * len(nodes))]
    while len(rest) >= 4:
        size = rng.randint(2, 4)
        ring, rest = rest[:size], rest[size:]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edges[(a, b)] = rng.choice(costs[:2])
        rings.append(ring)
    for i in range(0, len(rings) - 2, 3):
        group = rings[i:i + 3]
        for ra, rb in zip(group, group[1:] + group[:1]):
            edges[(rng.choice(ra), rng.choice(rb))] = rng.choice(costs[1:3])
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(1, n)
        if u != v:
            edges.setdefault((u, v), rng.choice(costs))
    return RootedCostDigraph.from_edges(range(n), ((u, v, c) for (u, v), c in edges.items()), 0)


# -- equivalence -------------------------------------------------------------

def test_random_tie_heavy_graphs_match_recursive_oracle():
    rng = random.Random(4)
    graphs = 3200
    contractions = other_order = 0
    for _ in range(graphs):
        made, same_cycles = assert_matches_oracle(random_tie_heavy_digraph(rng))
        contractions += made
        other_order += not same_cycles
    assert contractions > graphs // 3
    # the unchanged oracle is the reference on nearly every graph
    assert other_order < graphs // 10


@pytest.mark.parametrize("seed", [4, 5])
def test_planted_cycle_graphs_match_recursive_oracle(seed):
    # Rings over half the nodes, as in a category graph whose pages never
    # contract: the oracle contracts the cycles a sorted scan finds.
    g = planted_cycle_digraph(random.Random(seed), 1000, ring_share=0.5)
    contractions, same_cycles = assert_matches_oracle(g)
    assert same_cycles and contractions > 300


@pytest.mark.parametrize("seed", [1, 2])
def test_heavily_contracted_graphs_match_sorted_scan_oracle(seed):
    # Rings over every node: once about a third of the nodes are contracted
    # the oracle's set scan can wrap and contract another cycle first, and
    # then only the sorted-scan oracle and the total cost must agree.
    g = planted_cycle_digraph(random.Random(seed), 800)
    contractions, _ = assert_matches_oracle(g)
    assert contractions > 150


def with_node_labels(g):
    """g relabeled with pipeline nodes, odd numbers as pages, so that the
    sorted order of the labels is not the order of the numbers."""
    node = {n: Node.page(n) if n % 2 else Node.category(n) for n in g.nodes}
    return RootedCostDigraph.from_edges(
        node.values(), [(node[u], node[v], c) for (u, v), c in g.edges.items()], node[g.root])


def test_node_labelled_graph_matches_recursive_oracle():
    g = with_node_labels(planted_cycle_digraph(random.Random(7), 300, ring_share=0.5))
    contractions, same_cycles = assert_matches_oracle(g)
    assert same_cycles and contractions > 50


def cyclic_corpus(seed, topics=4, subcats=24, pages_per_topic=10):
    """A file corpus whose category graph has shared parents and planted
    2- and 3-cycles among sibling subcategories, with its labels TSV."""
    rng = random.Random(seed)
    parents = {0: []}
    topic_ids = list(range(1, topics + 1))
    for t in topic_ids:
        parents[t] = [0]
    rows = [list(range(topics + 1 + t * subcats, topics + 1 + (t + 1) * subcats))
            for t in range(topics)]
    for t, row in enumerate(rows):
        for cid in row:
            parents[cid] = [topic_ids[t]]
        for cid in rng.sample(row, subcats // 4):
            parents[cid].append(rng.choice(rows[(t + 1) % topics]))
        pool = row[:]
        rng.shuffle(pool)
        for i in range(subcats // 4):
            ring, pool = pool[:2 + i % 2], pool[2 + i % 2:]
            for a, b in zip(ring, ring[1:] + ring[:1]):
                parents[a].append(b)
    lines = [json.dumps({"kind": "meta", "root": 0, "version": 1})]
    for cid in sorted(parents):
        lines.append(json.dumps({"kind": "category", "id": cid, "title": f"c{cid}",
                                 "parents": sorted(set(parents[cid]))}))
    labels = []
    pid = 0
    for t, row in enumerate(rows):
        words = [f"t{t}w{j}" for j in range(12)] + [f"shared{j}" for j in range(4)]
        for _ in range(pages_per_topic):
            cats = sorted(set(rng.sample(row, rng.randint(1, 3))))
            text = " ".join(rng.choice(words) for _ in range(15))
            lines.append(json.dumps({"kind": "page", "id": pid, "title": f"p{pid}",
                                     "text": text, "categories": cats, "links": []}))
            labels.append(f"{pid}\ttopic{t}\n")
            pid += 1
    return "\n".join(lines) + "\n", "".join(labels)


@pytest.mark.parametrize("seed", [1, 2])
def test_pipeline_arborescence_equals_recursive_oracle_bytes(tmp_path, seed):
    text, labels = cyclic_corpus(seed)
    (tmp_path / "corpus.jsonl").write_text(text)
    (tmp_path / "labels.tsv").write_text(labels)
    cache = tmp_path / "cache"
    pipeline.run_pipeline(pipeline.merge_config({
        "corpus": {"path": str(tmp_path / "corpus.jsonl"), "labels": str(tmp_path / "labels.tsv")},
        "eval": {"k": 2}, "cache": {"dir": str(cache)}}))
    store = corpus_mod.parse_corpus((cache / "filtered.jsonl").read_text())
    graph = catgraph.build_graph(store)
    assert catgraph.cycle_census(graph).cycles
    p = catgraph._weights_from_tsv((cache / "weights.tsv").read_text(), graph).tolist()
    edges = [catgraph.WeightedEdge(*e, w, 1.0 - w) for e, w in zip(graph.edges(), p, strict=True)]
    oracle, same_cycles, contractions = run_oracle(
        reverse_and_cost(graph, edges, store.root_category_id))
    assert same_cycles and contractions >= 10
    assert (cache / "arborescence.tsv").read_bytes() == arborescence_to_tsv(oracle).encode()


# -- total cost --------------------------------------------------------------

TOTAL_COST_SCRIPT = """
import random
from wikistrata.arbor import RootedCostDigraph, chu_liu_edmonds
from wikistrata.catgraph import Node
rng = random.Random(5)
nodes = [Node.category(i) for i in range(400)]
edges = {}
for i in range(1, 400):
    edges[(nodes[rng.randrange(i)], nodes[i])] = rng.random()
    j = rng.randrange(1, 400)
    if j != i:
        edges[(nodes[i], nodes[j])] = rng.random() / 4
triples = [(u, v, c) for (u, v), c in edges.items()]
print(repr(chu_liu_edmonds(RootedCostDigraph.from_edges(nodes, triples, nodes[0])).total_cost))
"""


def test_total_cost_does_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(wikistrata.__file__))
    totals = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", TOTAL_COST_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        totals.add(out.stdout.strip())
    assert len(totals) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_total_cost_survives_tsv_round_trip_exactly(seed):
    rng = random.Random(seed)
    g = planted_cycle_digraph(rng, 200, costs=tuple(rng.random() for _ in range(4)))
    tree = chu_liu_edmonds(with_node_labels(g))
    assert parse_arborescence_tsv(arborescence_to_tsv(tree)).total_cost == tree.total_cost


# -- scale: both cases raised RecursionError in the recursive solver ----------

def test_fifteen_hundred_disjoint_two_cycles():
    k = 1500
    edges = {}
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        edges.update({(0, a): 5, (0, b): 6, (a, b): 0, (b, a): 0})
    start = time.perf_counter()
    tree = chu_liu_edmonds(RootedCostDigraph.from_edges(
        range(2 * k + 1), [(u, v, c) for (u, v), c in edges.items()], 0))
    assert time.perf_counter() - start < 2.0
    assert tree.total_cost == 5 * k
    assert all(tree.parent[2 * i + 2][0] == 2 * i + 1 for i in range(k))
    assert all(tree.parent[2 * i + 1][0] == 0 for i in range(k))


def test_fifteen_hundred_deep_nested_chain():
    # Every contraction's cycle holds the previous one: {1, 2}, then that
    # with 3, and so on. The optimum enters 1 from the root and runs the chain.
    n = 1500
    edges = {(0, v): 10 * n for v in range(1, n + 1)}
    edges.update({(k - 1, k): 0 for k in range(2, n + 1)})
    edges.update({(k, 1): k - 1 for k in range(2, n + 1)})
    start = time.perf_counter()
    tree = chu_liu_edmonds(RootedCostDigraph.from_edges(
        range(n + 1), [(u, v, c) for (u, v), c in edges.items()], 0))
    assert time.perf_counter() - start < 2.0
    assert tree.total_cost == 10 * n
    assert tree.parent[1] == (0, 10 * n)
    assert all(tree.parent[k] == (k - 1, 0) for k in range(2, n + 1))


# -- networkx as a total-cost oracle ------------------------------------------

@pytest.mark.parametrize("n,seed", [(40, 1), (120, 2), (200, 3)])
def test_total_cost_equals_networkx(n, seed):
    nx = pytest.importorskip("networkx")
    g = planted_cycle_digraph(random.Random(seed), n)
    nxg = nx.DiGraph()
    nxg.add_nodes_from(g.nodes)
    nxg.add_weighted_edges_from((u, v, c) for (u, v), c in g.edges.items())
    expected = sum(nxg.edges[u, v]["weight"]
                   for u, v in nx.minimum_spanning_arborescence(nxg).edges)
    assert chu_liu_edmonds(g).total_cost == pytest.approx(expected, rel=1e-12)


# -- pipeline: each artifact is hashed at most once per run ------------------

def test_each_artifact_is_hashed_at_most_once_per_run(tmp_path, artifact_reads):
    """The cold run reads back no artifact: each digest is taken as the file
    is written. Once every artifact is settled, the first hit takes the
    digest of each artifact that a stage's entry holds from its write, and
    reads only each report, which keys the report's memo, exactly once, and
    a second hit in the same process reads none."""
    cache = tmp_path / "cache"
    cfg = pipeline.merge_config({"corpus": {"synthetic": {"seed": 0, "n_topics": 3,
                                                          "pages_per_topic": 10, "vocab_per_topic": 20,
                                                          "depth": 1}},
                                 "cache": {"dir": str(cache)}})
    reports = {"report_baseline.tsv", "report_stratified.tsv"}
    pipeline.run_pipeline(cfg)
    assert artifact_reads == []
    settle(cache)
    for expected in (sorted(reports), []):
        artifact_reads.clear()
        result = pipeline.run_pipeline(cfg)
        assert {status for _stage, status in result.stages} == {"hit"}
        assert sorted(artifact_reads) == expected


def test_recomputing_stage_drops_the_digests_of_its_outputs(tmp_path):
    cfg = pipeline.merge_config({"corpus": {"synthetic": {"seed": 0}},
                                 "cache": {"dir": str(tmp_path)}})
    run = pipeline._Run(cfg, {})
    cache = run.cache
    cache.write("labels.tsv", "old")
    old = cache.file_hash("labels.tsv")
    pipeline._stage(run, "s", {"in": "0" * 64}, ["labels.tsv"],
                    lambda: [("new", {})])
    assert run.result.stages == [("s", "run")]
    assert cache.file_hash("labels.tsv") != old
    assert cache.file_hash("labels.tsv") == pipeline._Cache(str(tmp_path)).file_hash("labels.tsv")
