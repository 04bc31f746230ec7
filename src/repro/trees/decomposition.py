"""Tree decompositions (Section 4.1).

A tree decomposition of a tree-network ``T`` is a rooted tree ``H`` over
the same vertex set such that

1. (LCA property) every path in ``T`` through vertices ``x`` and ``y``
   also passes through ``LCA_H(x, y)``; equivalently, the minimum-depth
   ``H``-node on any ``T``-path is unique, and
2. (component property) for every node ``z``, the set ``C(z)`` of ``z``
   and its ``H``-descendants induces a connected subtree of ``T``.

Its efficacy is measured by its *depth* and its *pivot size*
``theta = max_z |Gamma[C(z)]|``.  This module provides the decomposition
container, pivot-set computation, capture nodes, and a full verifier used
throughout the test suite.
"""
from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.demand import DemandInstance
from repro.core.types import Vertex
from repro.trees.tree import TreeNetwork


class InvalidDecompositionError(ValueError):
    """Raised when a claimed tree decomposition violates its properties."""


class TreeDecomposition:
    """A rooted tree ``H`` over the vertex set of a tree-network ``T``."""

    def __init__(self, network: TreeNetwork, parent: Dict[Vertex, Optional[Vertex]]):
        self.network = network
        self.parent = dict(parent)
        roots = [v for v, p in self.parent.items() if p is None]
        if len(roots) != 1:
            raise InvalidDecompositionError(
                f"expected exactly one root, found {len(roots)}"
            )
        self.root = roots[0]
        if set(self.parent) != set(network.vertices):
            raise InvalidDecompositionError(
                "decomposition must cover exactly the network's vertices"
            )
        self.children: Dict[Vertex, List[Vertex]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                if p not in self.children:
                    raise InvalidDecompositionError(f"unknown parent {p}")
                self.children[p].append(v)
        for kids in self.children.values():
            kids.sort()
        self._index_tree()
        self._pivot_sets: Optional[Dict[Vertex, FrozenSet[Vertex]]] = None

    def _index_tree(self) -> None:
        """DFS order, depths (root has depth 1) and Euler intervals."""
        self.depth: Dict[Vertex, int] = {}
        self._tin: Dict[Vertex, int] = {}
        self._tout: Dict[Vertex, int] = {}
        clock = 0
        stack: List[Tuple[Vertex, bool]] = [(self.root, False)]
        self.depth[self.root] = 1
        visited = 0
        while stack:
            v, done = stack.pop()
            if done:
                self._tout[v] = clock
                continue
            self._tin[v] = clock
            clock += 1
            visited += 1
            stack.append((v, True))
            for c in self.children[v]:
                if c in self.depth:
                    raise InvalidDecompositionError("cycle in decomposition tree")
                self.depth[c] = self.depth[v] + 1
                stack.append((c, False))
        if visited != len(self.parent):
            raise InvalidDecompositionError("decomposition tree is disconnected")

    # ------------------------------------------------------------------
    @cached_property
    def max_depth(self) -> int:
        """Depth of ``H`` (root at depth 1, per the paper)."""
        return max(self.depth.values())

    def is_ancestor_or_self(self, z: Vertex, x: Vertex) -> bool:
        """Whether ``x in C(z)``, i.e. ``z`` is ``x`` or an ancestor of it."""
        return self._tin[z] <= self._tin[x] and self._tin[x] <= self._tout[z] - 1

    def component_of(self, z: Vertex) -> FrozenSet[Vertex]:
        """``C(z)``: ``z`` together with its descendants in ``H``."""
        out = []
        stack = [z]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children[v])
        return frozenset(out)

    def ancestors_or_self(self, x: Vertex) -> List[Vertex]:
        """``x`` and all its ancestors, bottom-up."""
        out = [x]
        p = self.parent[x]
        while p is not None:
            out.append(p)
            p = self.parent[p]
        return out

    # ------------------------------------------------------------------
    # Pivot sets
    # ------------------------------------------------------------------
    def _compute_pivot_sets(self) -> Dict[Vertex, FrozenSet[Vertex]]:
        """All pivot sets ``chi(z) = Gamma[C(z)]`` in ``O(#edges * depth)``.

        For a network edge ``(x, y)``: ``y in chi(z)`` exactly when
        ``x in C(z)`` and ``y not in C(z)``; the nodes with ``x in C(z)``
        are the ancestors-or-self of ``x`` in ``H``.
        """
        pivots: Dict[Vertex, Set[Vertex]] = {v: set() for v in self.parent}
        for (_, x, y) in self.network.edges():
            for z in self.ancestors_or_self(x):
                if not self.is_ancestor_or_self(z, y):
                    pivots[z].add(y)
            for z in self.ancestors_or_self(y):
                if not self.is_ancestor_or_self(z, x):
                    pivots[z].add(x)
        return {v: frozenset(s) for v, s in pivots.items()}

    def pivot_set(self, z: Vertex) -> FrozenSet[Vertex]:
        """``chi(z)``: the neighborhood of ``C(z)`` in the network."""
        if self._pivot_sets is None:
            self._pivot_sets = self._compute_pivot_sets()
        return self._pivot_sets[z]

    @property
    def pivot_size(self) -> int:
        """``theta``: the maximum pivot-set cardinality over all nodes."""
        if self._pivot_sets is None:
            self._pivot_sets = self._compute_pivot_sets()
        return max(len(s) for s in self._pivot_sets.values())

    # ------------------------------------------------------------------
    # Capture nodes
    # ------------------------------------------------------------------
    def capture_node(self, d: DemandInstance) -> Vertex:
        """``mu(d)``: the least-depth ``H``-node on ``path(d)``.

        Uniqueness is guaranteed by the LCA property of tree
        decompositions (and asserted by :meth:`verify`).
        """
        return min(d.path_vertex_seq, key=lambda v: (self.depth[v], v))

    def capture_node_of_path(self, path_vertices: Sequence[Vertex]) -> Vertex:
        """``mu`` for an explicit vertex path."""
        return min(path_vertices, key=lambda v: (self.depth[v], v))

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self, exhaustive_pairs: bool = True) -> None:
        """Check both tree-decomposition properties; raise on violation.

        With ``exhaustive_pairs`` the LCA property is checked for every
        vertex pair (quadratic; meant for tests).
        """
        net = self.network
        for z in self.parent:
            comp = self.component_of(z)
            if not net.is_component(comp):
                raise InvalidDecompositionError(
                    f"C({z}) does not induce a connected subtree"
                )
        if exhaustive_pairs:
            verts = net.vertices
            for i, x in enumerate(verts):
                for y in verts[i + 1 :]:
                    path = net.path_vertices(x, y)
                    w = self._lca(x, y)
                    if w not in path:
                        raise InvalidDecompositionError(
                            f"path {x}..{y} misses LCA_H({x},{y}) = {w}"
                        )

    def _lca(self, u: Vertex, v: Vertex) -> Vertex:
        du, dv = self.depth[u], self.depth[v]
        while du > dv:
            u = self.parent[u]  # type: ignore[assignment]
            du -= 1
        while dv > du:
            v = self.parent[v]  # type: ignore[assignment]
            dv -= 1
        while u != v:
            u = self.parent[u]  # type: ignore[assignment]
            v = self.parent[v]  # type: ignore[assignment]
        return u

    def __repr__(self) -> str:
        return (
            f"TreeDecomposition(network={self.network.network_id}, "
            f"depth={self.max_depth}, n={len(self.parent)})"
        )
