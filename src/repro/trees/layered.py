"""Layered decompositions (Section 4.4).

A layered decomposition of a tree-network ``T`` is a partitioning
``sigma`` of ``D(T)`` into groups ``G1..Gl`` plus a map ``pi`` assigning
each instance a set of *critical edges* on its path, such that whenever
``d1 in Gi`` and ``d2 in Gj`` with ``i <= j`` overlap, ``path(d2)``
includes a critical edge of ``d1``.  This is exactly the interference
property the two-phase framework needs.

Lemma 4.2 turns any tree decomposition with pivot size ``theta`` and
depth ``l`` into a layered decomposition with ``Delta = 2 (theta + 1)``
and length ``l``: instances captured at depth ``i`` of ``H`` go into
group ``l - i + 1`` (deepest first), and the critical edges of ``d`` are
the wings of its capture node plus, for each pivot ``u`` of
``C(mu(d))``, the wings of the bending point of ``d`` w.r.t. ``u``.

With the ideal decomposition this yields ``Delta = 6`` and length
``O(log n)`` (Lemma 4.3).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.demand import DemandInstance
from repro.core.types import EdgeKey, InstanceId, Vertex, edge_key
from repro.trees.decomposition import TreeDecomposition
from repro.trees.tree import TreeNetwork


class LayeredDecompositionError(ValueError):
    """Raised when a layered decomposition violates its defining property."""


def wings(d: DemandInstance, y: Vertex) -> Tuple[EdgeKey, ...]:
    """The wing(s) of ``y`` on ``path(d)``: path edges adjacent to ``y``.

    One edge if ``y`` is an endpoint of the path, two otherwise.
    """
    if y not in d.path_vertex_seq:
        raise LayeredDecompositionError(f"{y} is not on the path of instance {d.instance_id}")
    return _wings(d.network_id, d.path_vertex_seq, y)


def _wings(network_id: int, seq: Sequence[Vertex], y: Vertex) -> Tuple[EdgeKey, ...]:
    i = seq.index(y)
    out: List[EdgeKey] = []
    if i > 0:
        out.append(edge_key(network_id, seq[i - 1], seq[i]))
    if i < len(seq) - 1:
        out.append(edge_key(network_id, seq[i], seq[i + 1]))
    return tuple(out)


def bending_point(network: TreeNetwork, d: DemandInstance, u: Vertex) -> Vertex:
    """The bending point of ``d`` w.r.t. ``u``.

    The unique vertex ``y`` on ``path(d)`` such that the path from ``u``
    to ``y`` avoids every other vertex of ``path(d)`` -- equivalently,
    the vertex of ``path(d)`` closest to ``u`` in the tree.
    """
    return _bending_point(network, d.path_vertex_seq, set(d.path_vertex_seq), u)


def _bending_point(
    network: TreeNetwork, seq: Sequence[Vertex], on_path: Set[Vertex], u: Vertex
) -> Vertex:
    if u in on_path:
        return u
    for x in network.path_vertices(u, seq[0]):
        if x in on_path:
            return x
    raise AssertionError("path to an endpoint must hit the demand path")  # pragma: no cover


def path_layering(
    decomposition: TreeDecomposition, path: Sequence[Vertex]
) -> Tuple[int, Tuple[EdgeKey, ...]]:
    """Lemma 4.2 for one instance: ``(group, critical edges)`` of an
    instance of the decomposed network whose vertex path is *path*.

    Both depend on the decomposition and the path alone, which is what
    lets :func:`repro.algorithms.base.tree_layouts` memoize them per
    path on the network.
    """
    network = decomposition.network
    nid = network.network_id
    z = decomposition.capture_node_of_path(path)
    critical: Set[EdgeKey] = set(_wings(nid, path, z))
    on_path = set(path)
    for u in decomposition.pivot_set(z):
        critical.update(_wings(nid, path, _bending_point(network, path, on_path, u)))
    group = decomposition.max_depth - decomposition.depth[z] + 1
    return group, tuple(sorted(critical))


@dataclass
class LayeredDecomposition:
    """Groups ``sigma`` and critical edges ``pi`` for one network's instances."""

    network_id: int
    #: instance id -> group index ``k`` (1-based; group 1 is processed first).
    group_of: Dict[InstanceId, int]
    #: instance id -> critical edges ``pi(d)`` (a subset of ``path(d)``).
    pi: Dict[InstanceId, Tuple[EdgeKey, ...]]
    #: number of groups ``l``.
    length: int

    @property
    def critical_set_size(self) -> int:
        """``Delta``: the largest critical set over all instances."""
        if not self.pi:
            return 0
        return max(len(edges) for edges in self.pi.values())

    def verify(self, instances: Sequence[DemandInstance]) -> None:
        """Check the layered-decomposition property exhaustively.

        For every ordered pair ``(d1, d2)`` with ``group(d1) <=
        group(d2)`` that overlaps, ``path(d2)`` must include a critical
        edge of ``d1``.  Quadratic; intended for tests and benches.
        """
        for d in instances:
            if d.instance_id not in self.group_of:
                raise LayeredDecompositionError(f"instance {d.instance_id} has no group")
            crit = self.pi[d.instance_id]
            if not crit:
                raise LayeredDecompositionError(f"instance {d.instance_id} has empty pi")
            if not set(crit) <= d.path_edges:
                raise LayeredDecompositionError(
                    f"critical edges of {d.instance_id} leave its path"
                )
        for d1 in instances:
            for d2 in instances:
                if d1.instance_id == d2.instance_id:
                    continue
                if self.group_of[d1.instance_id] > self.group_of[d2.instance_id]:
                    continue
                if not d1.overlaps(d2):
                    continue
                if d2.path_edges.isdisjoint(self.pi[d1.instance_id]):
                    raise LayeredDecompositionError(
                        f"overlapping pair ({d1.instance_id} -> {d2.instance_id}) "
                        f"violates the layered property"
                    )


def layered_from_tree_decomposition(
    decomposition: TreeDecomposition,
    instances: Sequence[DemandInstance],
) -> LayeredDecomposition:
    """Lemma 4.2: transform a tree decomposition into a layered one.

    Produces critical sets of size at most ``2 (theta + 1)`` and length
    equal to the decomposition depth.  Instances captured deepest in
    ``H`` land in group 1 (processed first).
    """
    network = decomposition.network
    group_of: Dict[InstanceId, int] = {}
    pi: Dict[InstanceId, Tuple[EdgeKey, ...]] = {}
    for d in instances:
        if d.network_id != network.network_id:
            raise LayeredDecompositionError(
                f"instance {d.instance_id} belongs to network {d.network_id}, "
                f"not {network.network_id}"
            )
        group_of[d.instance_id], pi[d.instance_id] = path_layering(
            decomposition, d.path_vertex_seq
        )
    return LayeredDecomposition(
        network_id=network.network_id,
        group_of=group_of,
        pi=pi,
        length=decomposition.max_depth,
    )
