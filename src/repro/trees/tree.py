"""Tree-network substrate.

A :class:`TreeNetwork` is the paper's tree-network ``T``: an undirected
tree over a set of integer vertices.  It provides the primitive queries
every other layer is built on:

* unique paths between vertex pairs (``path_vertices`` / ``path_edges``),
* least common ancestors with respect to an arbitrary internal root,
* component manipulation (split by a vertex, neighborhoods ``Gamma[C]``),
* balancers (centroids) and medians (junctions), used by the tree
  decompositions of Section 4.

Line-networks are path-shaped tree-networks (see :mod:`repro.lines.line`),
so Sections 5-7 of the paper all run on this one substrate.

**Memo.**  Everything a solve derives from a network alone -- its
instance paths, window placements, tree decompositions and their
per-path layerings (Lemmas 4.1-4.3, Section 7) -- is computed once per
network object and kept in its :class:`NetworkMemo`.  The contract is
the one the fingerprint memo already relies on: a network is an
immutable value once built.  The memo lives exactly as long as the
networks holding it (no global table, no size to tune), holds one entry
per distinct path asked of it, and threads racing to fill an entry
compute equal values.  A rebuilt twin -- same id, same ordered
adjacency -- may share an existing network's memo instead of building
its own (:meth:`TreeNetwork.adopt_memo`), which is how a service lets a
wire request reuse layouts it already built; so asking a network its
shape (:meth:`TreeNetwork.is_path_graph`) creates no memo, since a
network that has one can no longer adopt.  Only exact-``int`` endpoints
are memoized: a float, bool or numpy-int endpoint keys equal to an int
but yields differently typed paths, so it is always computed fresh.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.types import EdgeKey, NetworkId, Vertex, edge_key

#: An instance path: its vertex sequence and its edge set.
InstancePath = Tuple[Tuple[Vertex, ...], FrozenSet[EdgeKey]]


class NotATreeError(ValueError):
    """Raised when the supplied edge set does not form a tree."""


class NetworkMemo:
    """What the write path derives from one network alone.

    Each field is a pure function of the network's id and ordered
    adjacency, filled on first use by the code that derives it:
    :meth:`TreeNetwork.instance_path` here,
    :attr:`repro.core.problem.Problem.instances` (window placements),
    :func:`repro.algorithms.base.tree_layouts` and
    :func:`repro.algorithms.base.line_layouts` (layerings).
    """

    __slots__ = ("paths", "windows", "trees", "line_slots")

    def __init__(self) -> None:
        #: ``(u, v)`` -> :data:`InstancePath`.
        self.paths: Dict[Tuple[Vertex, Vertex], InstancePath] = {}
        #: ``(release, deadline, processing)`` -> the window's placements
        #: ``(start, end vertex, vertex path, edge set)`` on this line.
        self.windows: Dict[Tuple[int, int, int], Tuple] = {}
        #: decomposition name -> ``(tree decomposition, {vertex path:
        #: (group, critical edges)})`` (Lemma 4.2).
        self.trees: Dict[str, Tuple[object, Dict]] = {}
        #: ``(u, v)`` -> critical edges of the length-class layering.
        self.line_slots: Dict[Tuple[Vertex, Vertex], Tuple[EdgeKey, ...]] = {}


class TreeNetwork:
    """An undirected tree over integer vertices, with path/LCA queries.

    A network is an immutable value: nothing changes it after
    construction, and :attr:`memo` (see the module docstring) relies on
    that.

    Parameters
    ----------
    network_id:
        Identifier of this network; baked into every :data:`EdgeKey`.
    edges:
        Iterable of ``(u, v)`` pairs.  They must form a connected acyclic
        graph (a tree).  A single-vertex network may be created by passing
        no edges and ``vertices={v}``.
    vertices:
        Optional explicit vertex set; defaults to the endpoints of *edges*.
    """

    def __init__(
        self,
        network_id: NetworkId,
        edges: Iterable[Tuple[Vertex, Vertex]],
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> None:
        self.network_id = network_id
        self._adj: Dict[Vertex, List[Vertex]] = {}
        if vertices is not None:
            for v in vertices:
                self._adj.setdefault(int(v), [])
        edge_list = [(int(u), int(v)) for u, v in edges]
        for u, v in edge_list:
            if u == v:
                raise NotATreeError(f"self-loop ({u}, {v})")
            self._adj.setdefault(u, [])
            self._adj.setdefault(v, [])
            self._adj[u].append(v)
            self._adj[v].append(u)
        if not self._adj:
            raise NotATreeError("a tree-network needs at least one vertex")
        if len(edge_list) != len(self._adj) - 1:
            raise NotATreeError(
                f"{len(edge_list)} edges over {len(self._adj)} vertices cannot be a tree"
            )
        self._vertices: Tuple[Vertex, ...] = tuple(sorted(self._adj))
        self._is_path = all(len(nbrs) <= 2 for nbrs in self._adj.values())
        self._root = self._vertices[0]
        self._parent: Dict[Vertex, Optional[Vertex]] = {}
        self._depth: Dict[Vertex, int] = {}
        self._build_rooted_index()

    # ------------------------------------------------------------------
    # Memo
    # ------------------------------------------------------------------
    @property
    def memo(self) -> NetworkMemo:
        """This network's :class:`NetworkMemo`, created on first use.

        ``dict.setdefault`` installs it atomically, so threads racing
        on a new network end up sharing one memo.
        """
        memo = self.__dict__.get("_memo")
        if memo is None:
            memo = self.__dict__.setdefault("_memo", NetworkMemo())
        return memo

    @property
    def has_memo(self) -> bool:
        """Whether this network carries a memo yet, its own or adopted."""
        return "_memo" in self.__dict__

    def adopt_memo(self, other: "TreeNetwork") -> bool:
        """Share *other*'s memo; return whether it was adopted.

        Only a network without a memo of its own adopts, and only from
        one with the same id (value and type) and the identical ordered
        adjacency: every list in the same order, since decompositions
        follow adjacency order.  Equal payloads are not enough -- the
        same edges listed in another order can build another
        decomposition.
        """
        memo = other.__dict__.get("_memo")
        if memo is None or "_memo" in self.__dict__:
            return False
        if (
            type(self.network_id) is not type(other.network_id)
            or self.network_id != other.network_id
            or self._adj != other._adj
        ):
            return False
        return self.__dict__.setdefault("_memo", memo) is memo

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices in this network."""
        return len(self._vertices)

    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        """All vertices, sorted ascending."""
        return self._vertices

    def edges(self) -> List[EdgeKey]:
        """All edges of the network as canonical :data:`EdgeKey` triples."""
        out = []
        for u in self._vertices:
            for v in self._adj[u]:
                if u < v:
                    out.append(edge_key(self.network_id, u, v))
        return out

    def neighbors(self, v: Vertex) -> Tuple[Vertex, ...]:
        """Vertices adjacent to *v*."""
        return tuple(self._adj[v])

    def degree(self, v: Vertex) -> int:
        """Degree of vertex *v*."""
        return len(self._adj[v])

    def has_vertex(self, v: Vertex) -> bool:
        """Whether *v* belongs to this network."""
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether the edge ``(u, v)`` belongs to this network."""
        return u in self._adj and v in self._adj[u]

    def edge(self, u: Vertex, v: Vertex) -> EdgeKey:
        """Canonical key of the existing edge ``(u, v)``."""
        if not self.has_edge(u, v):
            raise KeyError(f"({u}, {v}) is not an edge of network {self.network_id}")
        return edge_key(self.network_id, u, v)

    def is_path_graph(self) -> bool:
        """Whether the network is a line (every vertex has degree <= 2)."""
        return self._is_path

    # ------------------------------------------------------------------
    # Rooted index and path queries
    # ------------------------------------------------------------------
    def _build_rooted_index(self) -> None:
        """BFS from an arbitrary fixed root, recording parent and depth."""
        root = self._root
        parent: Dict[Vertex, Optional[Vertex]] = {root: None}
        depth: Dict[Vertex, int] = {root: 0}
        frontier = [root]
        while frontier:
            nxt: List[Vertex] = []
            for u in frontier:
                for w in self._adj[u]:
                    if w not in depth:
                        parent[w] = u
                        depth[w] = depth[u] + 1
                        nxt.append(w)
            frontier = nxt
        if len(depth) != len(self._adj):
            raise NotATreeError("edge set is not connected")
        self._parent = parent
        self._depth = depth

    @property
    def root(self) -> Vertex:
        """The fixed internal root (smallest vertex)."""
        return self._root

    def parent_of(self, v: Vertex) -> Optional[Vertex]:
        """Parent of *v* w.r.t. the internal root (None for the root)."""
        return self._parent[v]

    def depth_of(self, v: Vertex) -> int:
        """Depth of *v* w.r.t. the internal root (root has depth 0)."""
        return self._depth[v]

    def children_of(self, v: Vertex) -> Tuple[Vertex, ...]:
        """Children of *v* w.r.t. the internal root."""
        return tuple(w for w in self._adj[v] if self._parent.get(w) == v)

    def lca(self, u: Vertex, v: Vertex) -> Vertex:
        """Least common ancestor of *u* and *v* w.r.t. the internal root."""
        du, dv = self._depth[u], self._depth[v]
        while du > dv:
            u = self._parent[u]  # type: ignore[assignment]
            du -= 1
        while dv > du:
            v = self._parent[v]  # type: ignore[assignment]
            dv -= 1
        while u != v:
            u = self._parent[u]  # type: ignore[assignment]
            v = self._parent[v]  # type: ignore[assignment]
        return u

    def path_vertices(self, u: Vertex, v: Vertex) -> Tuple[Vertex, ...]:
        """The unique path from *u* to *v*, inclusive of both endpoints."""
        if u not in self._adj or v not in self._adj:
            raise KeyError(f"({u}, {v}) not in network {self.network_id}")
        w = self.lca(u, v)
        up: List[Vertex] = []
        x = u
        while x != w:
            up.append(x)
            x = self._parent[x]  # type: ignore[assignment]
        down: List[Vertex] = []
        x = v
        while x != w:
            down.append(x)
            x = self._parent[x]  # type: ignore[assignment]
        return tuple(up + [w] + list(reversed(down)))

    def path_edges(self, u: Vertex, v: Vertex) -> Tuple[EdgeKey, ...]:
        """Edges of the unique path from *u* to *v*, in path order."""
        return self._edges_along(self.path_vertices(u, v))

    def _edges_along(self, verts: Tuple[Vertex, ...]) -> Tuple[EdgeKey, ...]:
        nid = self.network_id
        return tuple(edge_key(nid, a, b) for a, b in zip(verts, verts[1:]))

    def instance_path(self, u: Vertex, v: Vertex) -> InstancePath:
        """``(path_vertices(u, v), frozenset(path_edges(u, v)))``.

        Memoized for exact-``int`` endpoints; any other endpoint type is
        computed fresh and never stored (see the module docstring).
        """
        if type(u) is not int or type(v) is not int:
            verts = self.path_vertices(u, v)
            return verts, frozenset(self._edges_along(verts))
        paths = self.memo.paths
        path = paths.get((u, v))
        if path is None:
            verts = self.path_vertices(u, v)
            path = paths[(u, v)] = (verts, frozenset(self._edges_along(verts)))
        return path

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Number of edges on the unique path between *u* and *v*."""
        w = self.lca(u, v)
        return self._depth[u] + self._depth[v] - 2 * self._depth[w]

    # ------------------------------------------------------------------
    # Component operations (Section 4 machinery)
    # ------------------------------------------------------------------
    def is_component(self, component: Iterable[Vertex]) -> bool:
        """Whether *component* induces a connected subtree of this network."""
        comp = set(component)
        if not comp:
            return False
        if not comp <= set(self._adj):
            return False
        start = next(iter(comp))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for w in self._adj[x]:
                if w in comp and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == comp

    def component_neighborhood(self, component: Iterable[Vertex]) -> FrozenSet[Vertex]:
        """``Gamma[C]``: vertices outside *component* adjacent to it."""
        comp = set(component)
        out: Set[Vertex] = set()
        for x in comp:
            for w in self._adj[x]:
                if w not in comp:
                    out.add(w)
        return frozenset(out)

    def split_component(
        self, component: Iterable[Vertex], pivot: Vertex
    ) -> List[FrozenSet[Vertex]]:
        """Split *component* by *pivot*: components of ``C - {pivot}``.

        This is the paper's "node z splits C into components C1..Cs".
        """
        comp = set(component)
        if pivot not in comp:
            raise ValueError(f"pivot {pivot} is not in the component")
        comp.discard(pivot)
        pieces: List[FrozenSet[Vertex]] = []
        unvisited = set(comp)
        for seed in self._adj[pivot]:
            if seed not in unvisited:
                continue
            piece = {seed}
            unvisited.discard(seed)
            stack = [seed]
            while stack:
                x = stack.pop()
                for w in self._adj[x]:
                    if w in unvisited:
                        unvisited.discard(w)
                        piece.add(w)
                        stack.append(w)
            pieces.append(frozenset(piece))
        if unvisited:
            raise ValueError("input set was not a connected component")
        return pieces

    def balancer(self, component: Iterable[Vertex]) -> Vertex:
        """A balancer (centroid) of *component*.

        Returns a vertex ``z`` such that every component of ``C - {z}`` has
        at most ``floor(|C|/2)`` vertices (the paper's balancer, Section 4.2;
        one always exists).
        """
        comp = set(component)
        if not comp:
            raise ValueError("empty component has no balancer")
        root = next(iter(comp))
        # Iterative post-order subtree sizes within the induced subtree.
        parent: Dict[Vertex, Optional[Vertex]] = {root: None}
        order: List[Vertex] = []
        stack = [root]
        seen = {root}
        while stack:
            x = stack.pop()
            order.append(x)
            for w in self._adj[x]:
                if w in comp and w not in seen:
                    seen.add(w)
                    parent[w] = x
                    stack.append(w)
        if len(seen) != len(comp):
            raise ValueError("input set is not a connected component")
        size = {v: 1 for v in comp}
        for x in reversed(order):
            p = parent[x]
            if p is not None:
                size[p] += size[x]
        total = len(comp)
        v = root
        while True:
            heavy = None
            for w in self._adj[v]:
                if w in comp and parent.get(w) == v and size[w] > total // 2:
                    heavy = w
                    break
            if heavy is None:
                return v
            v = heavy

    def median(self, a: Vertex, b: Vertex, c: Vertex) -> Vertex:
        """The unique vertex lying on all three pairwise paths of a, b, c.

        This is the "junction" of Section 4.3, case 2(b).
        """
        on_ab = set(self.path_vertices(a, b))
        for x in self.path_vertices(c, a):
            if x in on_ab:
                return x
        raise AssertionError("tree paths must intersect")  # pragma: no cover

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"TreeNetwork(id={self.network_id}, n={self.n_vertices}, "
            f"edges={self.n_vertices - 1})"
        )


def make_line_network(network_id: NetworkId, n_slots: int) -> TreeNetwork:
    """Build a line-network with *n_slots* timeslots.

    Timeslot ``t`` (``0 <= t < n_slots``) is the edge ``(t, t+1)``; the
    network is the path on vertices ``0..n_slots``.  This realizes the
    paper's reformulation of line-networks as timelines (Section 1).
    """
    if n_slots < 1:
        raise ValueError("a line-network needs at least one timeslot")
    return TreeNetwork(network_id, [(t, t + 1) for t in range(n_slots)])


def path_between(network: TreeNetwork, u: Vertex, v: Vertex) -> Tuple[EdgeKey, ...]:
    """Convenience alias for ``network.path_edges(u, v)``."""
    return network.path_edges(u, v)
