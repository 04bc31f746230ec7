"""Problem model: networks + demands + accessibility -> demand instances.

A :class:`Problem` bundles the paper's input (Section 2): the
tree-networks ``calT``, the demands ``calA`` (one per processor), and the
accessibility map ``Acc(P)``.  Its main job is the paper's reformulation:
expanding demands into the set ``D`` of demand instances, each a concrete
(network, path) possibility.

Window demands (Section 7) expand into one instance per accessible
resource per feasible start slot.

Paths and window placements depend on the network alone, so they come
from each network's memo (:class:`~repro.trees.tree.NetworkMemo`),
which checks each path once, when it stores it; expansion itself only
constructs the :class:`DemandInstance` objects, whose ids depend on
the problem, field by field and without re-checking their paths.

A problem is an immutable value, like its networks and demands: ``D``
is a pure function of the input, so the expansions are cached on the
problem, and the service memoizes its fingerprint there too
(:mod:`repro.service.fingerprint`).  To change a problem, build a new
one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import (
    Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.core.demand import (
    Demand,
    DemandInstance,
    WindowDemand,
    check_instance_path,
)
from repro.core.types import DemandId, EdgeKey, NetworkId, Vertex
from repro.trees.tree import TreeNetwork

AnyDemand = Union[Demand, WindowDemand]


class ProblemError(ValueError):
    """Raised when the problem input is inconsistent."""


def _window_placements(a: WindowDemand, net: TreeNetwork) -> Tuple:
    """``(start, end vertex, vertex path, edge set)`` of every placement
    of *a* that fits on the line *net*, each path checked by
    :func:`~repro.core.demand.check_instance_path`."""
    n_slots = net.n_vertices - 1
    out = []
    for s in a.start_slots:
        end_vertex = s + a.processing
        if end_vertex > n_slots:
            continue  # placement falls off the timeline
        verts = tuple(range(s, end_vertex + 1))
        edges = frozenset(net.path_edges(s, end_vertex))
        check_instance_path(verts, edges)
        out.append((s, end_vertex, verts, edges))
    return tuple(out)


_new_object = object.__new__
_set_field = object.__setattr__


def _instance(
    instance_id: int,
    a: AnyDemand,
    network_id: NetworkId,
    u: Vertex,
    v: Vertex,
    verts: Tuple[Vertex, ...],
    edges: FrozenSet[EdgeKey],
    start_slot: Optional[Tuple[int, ...]],
) -> DemandInstance:
    """The :class:`DemandInstance` of demand *a* on the checked path
    ``(verts, edges)``, built without the dataclass ``__init__``.

    Equal to the dataclass-built instance.  Its path was checked where
    the network memo stored it (:meth:`TreeNetwork.instance_path`,
    :func:`_window_placements`), so ``__post_init__`` is skipped.  The
    fields are set in declaration order, as the dataclass ``__init__``
    sets them, so every instance keeps the class's key-sharing
    ``__dict__``.
    """
    d = _new_object(DemandInstance)
    _set_field(d, "instance_id", instance_id)
    _set_field(d, "demand_id", a.demand_id)
    _set_field(d, "network_id", network_id)
    _set_field(d, "u", u)
    _set_field(d, "v", v)
    _set_field(d, "profit", a.profit)
    _set_field(d, "height", a.height)
    _set_field(d, "path_vertex_seq", verts)
    _set_field(d, "path_edges", edges)
    _set_field(d, "start_slot", start_slot)
    return d


@dataclass(frozen=True)
class Problem:
    """The throughput maximization problem input.

    A problem is an immutable value: it keeps private copies of the
    containers it is given, ``demands`` as a tuple and ``networks`` and
    ``access`` as read-only mappings with tuple values, so nothing can
    edit it after construction.  Its expansions and fingerprint are
    cached on it, and a copy or an unpickled problem starts without
    them.

    Parameters
    ----------
    networks:
        The tree-networks, keyed by network id.
    demands:
        The demands, one per processor.  Demand ids must be unique.
    access:
        ``Acc``: demand id -> network ids its processor can access.
        If omitted, every processor can access every network.
    """

    networks: Mapping[NetworkId, TreeNetwork]
    demands: Tuple[AnyDemand, ...]
    access: Mapping[DemandId, Tuple[NetworkId, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.networks:
            raise ProblemError("at least one network is required")
        if not self.demands:
            raise ProblemError("at least one demand is required")
        networks = MappingProxyType(dict(self.networks))
        demands = tuple(self.demands)
        ids = [a.demand_id for a in demands]
        if len(set(ids)) != len(ids):
            raise ProblemError("demand ids must be unique")
        for nid, net in networks.items():
            if net.network_id != nid:
                raise ProblemError(
                    f"network keyed {nid} reports network_id={net.network_id}"
                )
        if self.access:
            # ``tuple(t) is t``: shared access tuples keep their identity.
            access = {i: tuple(nets) for i, nets in self.access.items()}
        else:
            everything = tuple(sorted(networks))
            access = {a.demand_id: everything for a in demands}
        object.__setattr__(self, "networks", networks)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "access", MappingProxyType(access))
        for a in demands:
            nets = access.get(a.demand_id)
            if not nets:
                raise ProblemError(f"demand {a.demand_id} can access no network")
            for nid in nets:
                if nid not in networks:
                    raise ProblemError(
                        f"demand {a.demand_id} lists unknown network {nid}"
                    )

    def __reduce__(self):
        # Rebuild from plain containers: a mappingproxy does not pickle,
        # and the cached expansions and fingerprint stay behind.
        return (
            type(self), (dict(self.networks), self.demands, dict(self.access))
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """``n``: the largest vertex count over the networks."""
        return max(net.n_vertices for net in self.networks.values())

    @property
    def pmax(self) -> float:
        """Maximum demand profit."""
        return max(a.profit for a in self.demands)

    @property
    def pmin(self) -> float:
        """Minimum demand profit."""
        return min(a.profit for a in self.demands)

    @property
    def hmin(self) -> float:
        """Minimum demand height."""
        return min(a.height for a in self.demands)

    @property
    def is_unit_height(self) -> bool:
        """Whether every demand has height exactly 1."""
        return all(a.height == 1.0 for a in self.demands)

    def demand_by_id(self, demand_id: DemandId) -> AnyDemand:
        """Look up a demand by id."""
        return self._demand_index[demand_id]

    @cached_property
    def _demand_index(self) -> Dict[DemandId, AnyDemand]:
        return {a.demand_id: a for a in self.demands}

    # ------------------------------------------------------------------
    # Instance expansion (the paper's reformulation, Section 2)
    # ------------------------------------------------------------------
    @cached_property
    def instances(self) -> Tuple[DemandInstance, ...]:
        """All demand instances ``D``, in a deterministic order."""
        out: List[DemandInstance] = []
        next_id = 0
        for a in self.demands:
            for nid in sorted(self.access[a.demand_id]):
                net = self.networks[nid]
                if isinstance(a, WindowDemand):
                    next_id = self._expand_window(a, net, out, next_id)
                else:
                    next_id = self._expand_point_to_point(a, net, out, next_id)
        if not out:
            raise ProblemError("no demand produced any instance")
        return tuple(out)

    def _expand_point_to_point(
        self, a: Demand, net: TreeNetwork, out: List[DemandInstance], next_id: int
    ) -> int:
        if not (net.has_vertex(a.u) and net.has_vertex(a.v)):
            raise ProblemError(
                f"demand {a.demand_id} endpoints <{a.u}, {a.v}> missing from "
                f"network {net.network_id}"
            )
        verts, edges = net.instance_path(a.u, a.v)
        out.append(
            _instance(next_id, a, net.network_id, a.u, a.v, verts, edges, None)
        )
        return next_id + 1

    def _expand_window(
        self, a: WindowDemand, net: TreeNetwork, out: List[DemandInstance], next_id: int
    ) -> int:
        if not net.is_path_graph():
            raise ProblemError(
                f"window demand {a.demand_id} requires a line-network; "
                f"network {net.network_id} is not a path"
            )
        window = (a.release, a.deadline, a.processing)
        exact = type(a.release) is type(a.deadline) is type(a.processing) is int
        placements = net.memo.windows.get(window) if exact else None
        if placements is None:
            placements = _window_placements(a, net)
            if exact:
                net.memo.windows[window] = placements
        nid = net.network_id
        for s, end_vertex, verts, edges in placements:
            out.append(
                _instance(next_id, a, nid, s, end_vertex, verts, edges, (s,))
            )
            next_id += 1
        return next_id

    @cached_property
    def instances_by_network(self) -> Dict[NetworkId, Tuple[DemandInstance, ...]]:
        """``D(T)`` for each network ``T``."""
        buckets: Dict[NetworkId, List[DemandInstance]] = {
            nid: [] for nid in self.networks
        }
        for d in self.instances:
            buckets[d.network_id].append(d)
        return {nid: tuple(ds) for nid, ds in buckets.items()}

    @cached_property
    def all_edges(self) -> Tuple[EdgeKey, ...]:
        """``calE``: every edge of every network."""
        out: List[EdgeKey] = []
        for nid in sorted(self.networks):
            out.extend(self.networks[nid].edges())
        return tuple(out)

    # ------------------------------------------------------------------
    # Communication structure (Section 2)
    # ------------------------------------------------------------------
    @cached_property
    def communication_edges(self) -> Tuple[Tuple[DemandId, DemandId], ...]:
        """Pairs of processors allowed to communicate.

        Two processors may exchange messages iff they share an accessible
        resource: ``Acc(P1) & Acc(P2) != {}``.
        """
        by_network: Dict[NetworkId, List[DemandId]] = {}
        for a in self.demands:
            for nid in self.access[a.demand_id]:
                by_network.setdefault(nid, []).append(a.demand_id)
        pairs = set()
        for members in by_network.values():
            members = sorted(members)
            for i, p in enumerate(members):
                for q in members[i + 1 :]:
                    pairs.add((p, q))
        return tuple(sorted(pairs))

    def split_by_width(self) -> Tuple["Problem", "Problem"]:
        """Split into (wide, narrow) subproblems (Section 6).

        Either side may be empty; callers must check ``demands`` before use.
        Raises :class:`ProblemError` if a side would be empty -- use
        :meth:`has_wide` / :meth:`has_narrow` to guard.
        """
        wide = [a for a in self.demands if a.is_wide]
        narrow = [a for a in self.demands if a.is_narrow]
        if not wide or not narrow:
            raise ProblemError("split_by_width needs both wide and narrow demands")
        return (
            Problem(self.networks, wide, {a.demand_id: self.access[a.demand_id] for a in wide}),
            Problem(self.networks, narrow, {a.demand_id: self.access[a.demand_id] for a in narrow}),
        )

    @property
    def has_wide(self) -> bool:
        """Whether any demand is wide (``h > 1/2``)."""
        return any(a.is_wide for a in self.demands)

    @property
    def has_narrow(self) -> bool:
        """Whether any demand is narrow (``h <= 1/2``)."""
        return any(a.is_narrow for a in self.demands)

    def restricted_to(self, demands: Sequence[AnyDemand]) -> "Problem":
        """A sub-problem over the given subset of this problem's demands."""
        return Problem(
            self.networks,
            list(demands),
            {a.demand_id: self.access[a.demand_id] for a in demands},
        )
