"""Demands, window demands, and demand instances.

The paper's input objects (Section 2 and Section 7):

* :class:`Demand` -- a point-to-point demand ``a = <u, v>`` with a profit
  ``p(a)`` and a height ``h(a) <= 1`` (``h = 1`` is the unit-height case).
* :class:`WindowDemand` -- a line-network job with a window
  ``[release, deadline]`` and a processing time ``rho``; it may execute on
  any segment of ``rho`` consecutive timeslots inside the window.
* :class:`DemandInstance` -- one concrete scheduling possibility of a
  demand: a (network, path) pair, optionally pinned to a start slot for
  window demands.  The set of all instances is the paper's ``D``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

from repro.core.types import DemandId, EdgeKey, InstanceId, NetworkId, Vertex


def check_instance_path(
    path_vertex_seq: Tuple[Vertex, ...], path_edges: FrozenSet[EdgeKey]
) -> None:
    """The path invariants of a :class:`DemandInstance`: at least one
    edge, and one edge per consecutive vertex pair.

    Raises ``ValueError`` otherwise.  Problem expansion checks each
    memoized path once, where the memo is filled, and builds its
    instances without re-checking.
    """
    if len(path_vertex_seq) < 2:
        raise ValueError("a demand instance must span at least one edge")
    if len(path_edges) != len(path_vertex_seq) - 1:
        raise ValueError("path_edges inconsistent with path_vertex_seq")


def _check_profit_height(profit: float, height: float) -> None:
    if not profit > 0:
        raise ValueError(f"profit must be positive, got {profit}")
    if not 0 < height <= 1:
        raise ValueError(f"height must lie in (0, 1], got {height}")


@dataclass(frozen=True)
class Demand:
    """A point-to-point demand ``<u, v>`` with profit and height.

    ``height == 1`` corresponds to the paper's unit-height case, in which
    selected demands on the same network must use edge-disjoint paths.
    """

    demand_id: DemandId
    u: Vertex
    v: Vertex
    profit: float
    height: float = 1.0

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"demand endpoints must differ, got <{self.u}, {self.v}>")
        _check_profit_height(self.profit, self.height)

    @property
    def is_wide(self) -> bool:
        """Wide means ``h > 1/2`` (Section 6); two overlapping wide
        instances can never be scheduled together."""
        return self.height > 0.5

    @property
    def is_narrow(self) -> bool:
        """Narrow means ``h <= 1/2`` (Section 6)."""
        return not self.is_wide


@dataclass(frozen=True)
class WindowDemand:
    """A line-network demand with a release/deadline window (Section 7).

    The job needs ``processing`` consecutive timeslots, all within
    ``[release, deadline]`` (slot indices, inclusive).  Each feasible
    placement on each accessible resource yields one demand instance.
    """

    demand_id: DemandId
    release: int
    deadline: int
    processing: int
    profit: float
    height: float = 1.0

    def __post_init__(self) -> None:
        if self.processing < 1:
            raise ValueError("processing time must be at least one slot")
        if self.release < 0:
            raise ValueError("release slot must be non-negative")
        if self.deadline - self.release + 1 < self.processing:
            raise ValueError(
                f"window [{self.release}, {self.deadline}] is shorter than "
                f"processing time {self.processing}"
            )
        _check_profit_height(self.profit, self.height)

    @property
    def start_slots(self) -> range:
        """All feasible start slots of the execution segment."""
        return range(self.release, self.deadline - self.processing + 2)

    @property
    def is_wide(self) -> bool:
        """Wide means ``h > 1/2`` (Section 6)."""
        return self.height > 0.5

    @property
    def is_narrow(self) -> bool:
        """Narrow means ``h <= 1/2`` (Section 6)."""
        return not self.is_wide


@dataclass(frozen=True)
class DemandInstance:
    """One scheduling possibility of a demand on one network.

    ``path_edges`` is ``path(d)`` as a frozenset of canonical edge keys;
    ``path_vertex_seq`` is the same path as an ordered vertex tuple (used
    by the decomposition machinery for wings and bending points).
    """

    instance_id: InstanceId
    demand_id: DemandId
    network_id: NetworkId
    u: Vertex
    v: Vertex
    profit: float
    height: float
    path_vertex_seq: Tuple[Vertex, ...]
    path_edges: FrozenSet[EdgeKey] = field(repr=False)
    #: Start slot for window-demand placements (None for point-to-point).
    start_slot: Tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_instance_path(self.path_vertex_seq, self.path_edges)

    @property
    def length(self) -> int:
        """Number of edges on ``path(d)`` (for lines: number of timeslots)."""
        return len(self.path_edges)

    @property
    def is_wide(self) -> bool:
        """Wide means ``h > 1/2`` (Section 6)."""
        return self.height > 0.5

    @property
    def is_narrow(self) -> bool:
        """Narrow means ``h <= 1/2`` (Section 6)."""
        return not self.is_wide

    def is_active_on(self, e: EdgeKey) -> bool:
        """The paper's ``d ~ e``: whether ``path(d)`` includes edge *e*."""
        return e in self.path_edges

    def overlaps(self, other: "DemandInstance") -> bool:
        """Whether the two instances share an edge of the same network."""
        if self.network_id != other.network_id:
            return False
        return not self.path_edges.isdisjoint(other.path_edges)

    def conflicts_with(self, other: "DemandInstance") -> bool:
        """The paper's conflict relation: same demand, or overlapping."""
        if self.demand_id == other.demand_id:
            return True
        return self.overlaps(other)
