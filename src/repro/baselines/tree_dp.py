"""Exact polynomial-time optimum for unit heights on a single tree.

The unit-height, single-tree special case of the throughput
maximization problem -- maximum-weight edge-disjoint paths in a tree --
is solvable in polynomial time (Tarjan [18] via clique separators).  We
implement the standard bottom-up dynamic program:

Root the tree.  Every demand is *anchored* at the top vertex of its
path (the LCA of its endpoints), where it occupies one or two child
edges (its wings) plus a descending chain of edges in each wing's
subtree.  Processing vertices in post-order:

* ``best[v]`` -- optimal profit from demands anchored inside ``v``'s
  subtree -- equals the sum of the children's ``best`` plus the value
  of a maximum-weight matching over the demands anchored at ``v``
  (each demand is an edge joining its one or two wing children; two
  demands may not share a wing child).
* A demand's matching weight is its profit plus, for each wing chain,
  the *replacement cost* of blocking that chain: along the chain the
  anchored-demand matchings are re-solved with the chain's child edge
  banned.

Matchings are solved with :func:`networkx.max_weight_matching` on a
star gadget (single-wing demands get an auxiliary partner node).  The
function returns the optimal *value*; the test-suite cross-checks it
against branch-and-bound on random instances.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.demand import DemandInstance
from repro.core.problem import Problem
from repro.core.types import Vertex
from repro.trees.tree import TreeNetwork


class TreeDPError(ValueError):
    """Raised when the input is outside this solver's special case."""


def _anchored_demands(
    network: TreeNetwork, instances: Sequence[DemandInstance]
) -> Dict[Vertex, List[DemandInstance]]:
    anchored: Dict[Vertex, List[DemandInstance]] = {}
    for d in instances:
        top = min(d.path_vertex_seq, key=network.depth_of)
        anchored.setdefault(top, []).append(d)
    return anchored


def _wing_children(network: TreeNetwork, d: DemandInstance, top: Vertex) -> List[Vertex]:
    """Children of *top* through which ``path(d)`` descends (1 or 2)."""
    seq = d.path_vertex_seq
    i = seq.index(top)
    wings = []
    if i > 0:
        wings.append(seq[i - 1])
    if i < len(seq) - 1:
        wings.append(seq[i + 1])
    return wings


def _chain_below(d: DemandInstance, top: Vertex, wing: Vertex) -> List[Vertex]:
    """The descending path vertices from *wing* to the endpoint of *d*."""
    seq = list(d.path_vertex_seq)
    i = seq.index(top)
    if i > 0 and seq[i - 1] == wing:
        return list(reversed(seq[:i]))
    return seq[i + 1 :]


def solve_tree_dp(problem: Problem) -> float:
    """Exact optimum value for a unit-height single-tree problem
    (networkx is imported on the first call, like scipy in
    :func:`repro.core.lp.lp_upper_bound`)."""
    import networkx as nx

    if len(problem.networks) != 1:
        raise TreeDPError("tree DP requires exactly one network")
    if not problem.is_unit_height:
        raise TreeDPError("tree DP requires unit heights")
    (network,) = problem.networks.values()
    instances = problem.instances
    per_demand: Dict[int, int] = {}
    for d in instances:
        per_demand[d.demand_id] = per_demand.get(d.demand_id, 0) + 1
    if any(count > 1 for count in per_demand.values()):
        raise TreeDPError("tree DP requires one instance per demand")

    anchored = _anchored_demands(network, instances)
    best: Dict[Vertex, float] = {}
    matching_cache: Dict[Tuple[Vertex, Optional[Vertex]], float] = {}

    def children_sum(v: Vertex) -> float:
        return sum(best[c] for c in network.children_of(v))

    def chain_value(d: DemandInstance, top: Vertex, wing: Vertex) -> float:
        """Profit obtainable inside ``subtree(wing)`` while the chain of
        ``path(d)`` through it is blocked."""
        chain = _chain_below(d, top, wing)
        value = best[chain[-1]]  # endpoint vertex: nothing blocked below it
        for i in range(len(chain) - 2, -1, -1):
            y, nxt = chain[i], chain[i + 1]
            value += children_sum(y) - best[nxt] + matching_value(y, nxt)
        return value

    def demand_weight(d: DemandInstance, top: Vertex) -> float:
        w = d.profit
        for wing in _wing_children(network, d, top):
            w += chain_value(d, top, wing) - best[wing]
        return w

    def matching_value(v: Vertex, banned: Optional[Vertex]) -> float:
        """Max-weight selection of demands anchored at *v*, no two
        sharing a wing child, none using the *banned* child."""
        key = (v, banned)
        if key in matching_cache:
            return matching_cache[key]
        graph = nx.Graph()
        single_best: Dict[Vertex, float] = {}
        for d in anchored.get(v, []):
            wings = _wing_children(network, d, v)
            if banned is not None and banned in wings:
                continue
            w = demand_weight(d, v)
            if w <= 0:
                continue
            if len(wings) == 1:
                c = wings[0]
                single_best[c] = max(single_best.get(c, 0.0), w)
            else:
                c1, c2 = wings
                if not graph.has_edge(c1, c2) or graph[c1][c2]["weight"] < w:
                    graph.add_edge(c1, c2, weight=w)
        for c, w in single_best.items():
            graph.add_edge(c, ("aux", c), weight=w)
        if graph.number_of_edges() == 0:
            matching_cache[key] = 0.0
            return 0.0
        matching = nx.max_weight_matching(graph, maxcardinality=False)
        value = sum(graph[a][b]["weight"] for a, b in matching)
        matching_cache[key] = value
        return value

    # Post-order over the rooted tree.
    order: List[Vertex] = []
    stack = [network.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(network.children_of(v))
    for v in reversed(order):
        best[v] = children_sum(v) + matching_value(v, None)
    return best[network.root]
