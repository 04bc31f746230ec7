"""Per-epoch planning for the first phase.

The first phase (Figure 7) runs epoch ``k`` on the group ``Gk`` alone:
its MIS looks only at conflicts among ``Gk``'s members, and its
dirty-set queries only ever need members.  :class:`EpochPlan`
materializes, per epoch,

* the slice of the instance set (members, in input order),
* the conflict adjacency induced on the group -- all any engine's MIS
  ever looks at -- and
* a :class:`~repro.distributed.conflict.InstanceIndex` reverse index
  over the members (dirty-set queries restricted to the group).

The incremental engine (:mod:`repro.core.engines.incremental`) runs
every epoch, in order, on these slices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.core.demand import DemandInstance
from repro.core.engines.artifacts import InstanceLayout, group_members
from repro.core.types import InstanceId
from repro.distributed.conflict import ConflictAdjacency, InstanceIndex


@dataclass
class EpochPlan:
    """Per-epoch slices of a first phase."""

    n_epochs: int
    #: epoch -> its group members, in global instance order.
    members: Dict[int, List[DemandInstance]]
    #: epoch -> conflict adjacency induced on its members.
    adjacency: Dict[int, ConflictAdjacency]
    #: epoch -> reverse edge/demand index over its members.
    index: Dict[int, InstanceIndex]

    @staticmethod
    def build(
        instances: Sequence[DemandInstance], layout: InstanceLayout
    ) -> "EpochPlan":
        """Build the plan for *instances* under *layout*.

        Each group's conflict graph is built directly from the group's
        own edge and demand buckets, so cross-epoch conflict pairs are
        never materialized.  The incremental engine runs every epoch on
        these slices.
        """
        groups = group_members(instances, layout)
        members: Dict[int, List[DemandInstance]] = {}
        adjacency: Dict[int, ConflictAdjacency] = {}
        index: Dict[int, InstanceIndex] = {}
        for epoch, mine in groups.items():
            members[epoch] = mine
            # One bucketing pass per epoch feeds both the reverse index
            # and the group conflict adjacency.
            by_edge: Dict[object, Set[InstanceId]] = {}
            by_demand: Dict[int, Set[InstanceId]] = {}
            for d in mine:
                by_demand.setdefault(d.demand_id, set()).add(d.instance_id)
                for e in d.path_edges:
                    by_edge.setdefault(e, set()).add(d.instance_id)
            # Plain sets instead of InstanceIndex's canonical frozensets:
            # nothing mutates the buckets after this point, and skipping
            # the conversion keeps plan construction cheap.
            index[epoch] = InstanceIndex(by_edge=by_edge, by_demand=by_demand)
            adj: ConflictAdjacency = {d.instance_id: set() for d in mine}
            for bucket in list(by_edge.values()) + list(by_demand.values()):
                if len(bucket) < 2:
                    continue
                for i in bucket:
                    adj[i] |= bucket
            for i, nbrs in adj.items():
                nbrs.discard(i)
            adjacency[epoch] = adj
        return EpochPlan(
            n_epochs=layout.n_epochs,
            members=members,
            adjacency=adjacency,
            index=index,
        )
