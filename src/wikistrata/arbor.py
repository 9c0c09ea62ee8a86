"""Minimum-cost spanning arborescence via Chu-Liu/Edmonds.

Edges point from the root downward (the reversed membership/inclusion
relations), so every node must be reachable from the root. The solver
contracts cycles in a loop: each contraction rewrites only the in-edges
of the cycle's members and of the nodes the cycle points at, and takes
time in proportion to them. There is no recursion limit on the number of
contractions and no copy of the graph per contraction. Ties are broken by
fixed rules (see ``chu_liu_edmonds``), so the result is the same on every
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wikistrata.catgraph import CategoryGraph, Node, WeightedEdge, _formatted

__all__ = [
    "ArborError",
    "RootedCostDigraph",
    "Arborescence",
    "reverse_and_cost",
    "chu_liu_edmonds",
    "ancestors",
    "arborescence_to_tsv",
    "parse_arborescence_tsv",
]


class ArborError(ValueError):
    """Raised when no spanning arborescence exists (unreachable nodes)."""

    def __init__(self, unreachable):
        self.unreachable = sorted(unreachable)
        super().__init__(
            "no spanning arborescence: unreachable nodes "
            + ", ".join(str(n) for n in self.unreachable)
        )


@dataclass(frozen=True)
class RootedCostDigraph:
    """Digraph with non-negative finite edge costs and a designated root.

    No self-loops; parallel edges on the same ordered pair collapse to the
    cheapest one at construction.
    """

    nodes: tuple
    edges: dict
    root: object

    @classmethod
    def from_edges(cls, nodes, edge_costs, root) -> "RootedCostDigraph":
        """The digraph of ``(u, v, cost)`` triples over ``nodes``. ValueError
        names a node given twice, a root or an edge endpoint that is not a
        node, and a cost that is negative or not finite."""
        nodes = tuple(sorted(nodes))
        known, twice = set(nodes), [a for a, b in zip(nodes, nodes[1:]) if a == b]
        if twice:
            raise ValueError(f"node {twice[0]!r} is given twice")
        if root not in known:
            raise ValueError(f"root {root!r} is not one of the nodes")
        edges = {}
        for u, v, cost in edge_costs:
            if u not in known or v not in known:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not a node")
            if not 0 <= cost < math.inf:
                raise ValueError(f"edge ({u!r}, {v!r}) has cost {cost!r}, not finite and >= 0")
            if u == v:
                continue
            if (u, v) not in edges or cost < edges[(u, v)]:
                edges[(u, v)] = cost
        return cls(nodes=nodes, edges=edges, root=root)


@dataclass(frozen=True)
class Arborescence:
    """Parent function over non-root nodes, with per-edge and total costs."""

    parent: dict
    root: object
    total_cost: float


def reverse_and_cost(g: CategoryGraph, weights: list[WeightedEdge], root_id: int) -> RootedCostDigraph:
    """Reverse each membership/inclusion edge and attach cost 1 - p."""
    if root_id not in g.category_ids:
        raise ValueError(f"root {root_id!r} is not a category of the graph")
    return RootedCostDigraph.from_edges(g.nodes, ((e.dst, e.src, e.cost) for e in weights),
                                        Node.category(root_id))


def chu_liu_edmonds(g: RootedCostDigraph) -> Arborescence:
    """Minimum-cost spanning arborescence rooted at g.root.

    Nodes are relabeled to dense integers in sorted order, so any sortable
    node labels work. Each node keeps its in-edges as ``{source label:
    entry}``, where an input edge's entry is ``(cost, orig, pos)``: ``orig``
    is the edge as given and ``pos`` its index in ``g.edges``. The loop
    follows cheapest in-edges to a cycle and contracts it into a fresh
    node, rewriting only the entries of the cycle's members and of the
    nodes it points at. At the end the contractions are undone in reverse:
    the edge chosen for a contracted cycle enters one member, which keeps
    that edge, and every other member keeps its cheapest in-edge.

    Deterministic, by five tie rules:

    1. A node's cheapest in-edge is the smallest ``(cost, source label)``.
       A node's label is its index in sorted order; a contracted cycle gets
       a fresh label, larger than every earlier one.
    2. Edges from one outside node into a cycle collapse to the smallest
       ``(reduced cost, member label)``.
    3. Edges from a cycle to one outside node collapse to the smallest
       ``(cost, pos)``: the cheapest, then the earliest in ``g.edges``
       order. The collapsed edge takes the smallest ``pos`` of all the
       edges it replaces, not only the winner's.
    4. A reduced cost is ``cost - cheapest``, the member's cheapest in-edge
       cost subtracted once, when the cycle is contracted; so a cost
       carries exactly the roundings of one subtraction per level.
    5. The cycle contracted next is the one reached by following cheapest
       in-edges from the smallest-labelled node that does not reach the
       root that way. A node found to reach the root keeps doing so, so
       that scan only moves forward.

    ``ArborError`` names every node that the root does not reach.

    ``total_cost`` is summed in sorted node order, as
    ``parse_arborescence_tsv`` sums the rows of ``arborescence_to_tsv``,
    so it survives that round trip exactly.
    """
    labels = sorted(g.nodes)
    idx = {n: i for i, n in enumerate(labels)}
    root = idx[g.root]
    inn = [{} for _ in labels]
    # out[u]: every node u has had an edge into. Contracted nodes stay in
    # it and are skipped, because their cycle's node was added next to them.
    out = [set() for _ in labels]
    for pos, ((u, v), cost) in enumerate(g.edges.items()):
        iu, iv = idx[u], idx[v]
        if iv != root:
            inn[iv][iu] = (cost, (u, v), pos)
            out[iu].add(iv)
    reached, frontier = {root}, [root]
    while frontier:
        for v in out[frontier.pop()] - reached:
            reached.add(v)
            frontier.append(v)
    if len(reached) < len(labels):
        raise ArborError(n for i, n in enumerate(labels) if i not in reached)

    def cheapest(v):
        return min((e[0], u, e) for u, e in inn[v].items())

    best = [None if v == root else cheapest(v) for v in range(len(labels))]
    # 0: not yet known to reach the root; 1: on the current walk;
    # 2: reaches the root; 3: contracted
    state = [0] * len(labels)
    state[root] = 2
    contractions = []  # (fresh label, cycle, the members' cheapest origs)
    inside = {}  # contracted label -> the fresh label of its cycle
    start = 0
    while start < len(inn):
        if state[start]:
            start += 1
            continue
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = best[v][1]
        if state[v] == 2:
            for w in path:
                state[w] = 2
            continue
        at = path.index(v)
        for w in path[:at]:
            state[w] = 0
        cycle = path[at:]
        for x in cycle:
            state[x] = 3
        s = len(inn)
        # rule 2: (reduced cost, orig, smallest pos, member) per outside source
        into = {}
        for x in cycle:
            bx = best[x][0]
            for u, e in inn[x].items():
                if state[u] == 3:
                    continue
                entry = (e[0] - bx, e[1], e[2], x)
                prev = into.get(u)
                if prev is not None:
                    if (prev[0], prev[3]) < (entry[0], x):
                        entry = prev
                    entry = (entry[0], entry[1], min(prev[2], e[2]), entry[3])
                into[u] = entry
        # rule 3: (winning entry, smallest pos) per outside target
        from_cycle = {}
        for x in cycle:
            for v in out[x]:
                if state[v] == 3:
                    continue
                e = inn[v].pop(x)
                prev = from_cycle.get(v)
                if prev is None:
                    from_cycle[v] = (e, e[2])
                else:
                    win = prev[0] if (prev[0][0], prev[0][2]) < (e[0], e[2]) else e
                    from_cycle[v] = (win, min(prev[1], e[2]))
        contractions.append((s, cycle, [best[x][2][1] for x in cycle]))
        for x in cycle:
            inn[x] = out[x] = None
            inside[x] = s
        for u in into:
            out[u].add(s)
        inn.append(into)
        out.append(set(from_cycle))
        state.append(0)
        best.append(cheapest(s))
        for v, (e, p) in from_cycle.items():
            inn[v][s] = (e[0], e[1], p)
            best[v] = cheapest(v)

    # every remaining node reaches the root; expand the cycles in reverse
    chosen = {v: best[v][2][1] for v in range(len(inn)) if state[v] == 2 and v != root}
    entered = {}  # fresh label -> the member its chosen edge enters
    for s, cycle, cheapest_origs in reversed(contractions):
        o = chosen.pop(s)
        if s not in entered:
            # o enters every cycle on the way up from its target to s
            y = idx[o[1]]
            while y != s:
                entered[inside[y]] = y
                y = inside[y]
        broken = entered.pop(s)
        for x, cx in zip(cycle, cheapest_origs):
            chosen[x] = o if x == broken else cx
    parent = {}
    total = 0.0
    for v in sorted(chosen):
        u, node = chosen[v]
        cost = g.edges[(u, node)]
        parent[node] = (u, cost)
        total += cost
    return Arborescence(parent=parent, root=g.root, total_cost=total)


def ancestors(a: Arborescence, node, k: int) -> list:
    """Up to k successive parents of a node, truncated at the root."""
    if node != a.root and node not in a.parent:
        raise KeyError(f"unknown node {node}")
    out = []
    v = node
    for _ in range(k):
        if v == a.root:
            break
        v = a.parent[v][0]
        out.append(v)
    return out


def arborescence_to_tsv(a: Arborescence) -> str:
    nodes = sorted(a.parent)
    costs = _formatted(np.array([a.parent[v][1] for v in nodes], np.float64), ".17g")
    return "".join(["node\tparent\tcost\n", f"{a.root}\t-\t0\n", *(
        f"{v}\t{a.parent[v][0]}\t{c}\n" for v, c in zip(nodes, costs))])


def parse_arborescence_tsv(text: str) -> Arborescence:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    root = None
    parent = {}
    total = 0.0
    for ln in lines[1:]:
        node_s, parent_s, cost_s = ln.split("\t")
        if parent_s == "-":
            root = Node.parse(node_s)
        else:
            cost = float(cost_s)
            parent[Node.parse(node_s)] = (Node.parse(parent_s), cost)
            total += cost
    if root is None:
        raise ValueError("arborescence file has no root row")
    return Arborescence(parent=parent, root=root, total_cost=total)
