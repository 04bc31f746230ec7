"""Per-epoch planning for the first phase.

The first phase (Figure 7) runs epoch ``k`` on the group ``Gk`` alone:
its MIS looks only at conflicts among ``Gk``'s members, and its
dirty-set queries only ever need members.  :class:`EpochPlan`
materializes, per epoch,

* the slice of the instance set (members, in input order) and
* a :class:`~repro.distributed.conflict.InstanceIndex` reverse index
  over the members: one bucket per edge and per demand.

Two instances conflict exactly when they share a bucket, so the index
is also the epoch's conflict graph in bucket form: each stage the
incremental engine (:mod:`repro.core.engines.incremental`) enters
links only its unsatisfied members, through the buckets they touch
(:func:`stage_adjacency`), and no pairwise adjacency is built for the
whole epoch.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Set

from repro.core.demand import DemandInstance
from repro.core.engines.artifacts import InstanceLayout, group_members
from repro.core.types import DemandId, EdgeKey, InstanceId
from repro.distributed.conflict import ConflictAdjacency, InstanceIndex


@dataclass
class EpochPlan:
    """Per-epoch slices of a first phase."""

    n_epochs: int
    #: epoch -> its group members, in global instance order.
    members: Dict[int, List[DemandInstance]]
    #: epoch -> reverse edge/demand index over its members.
    index: Dict[int, InstanceIndex]

    @staticmethod
    def build(
        instances: Sequence[DemandInstance], layout: InstanceLayout
    ) -> "EpochPlan":
        """Build the plan for *instances* under *layout*: one bucketing
        pass per epoch, over the epoch's own members."""
        groups = group_members(instances, layout)
        index: Dict[int, InstanceIndex] = {}
        for epoch, mine in groups.items():
            by_edge: Dict[object, Set[InstanceId]] = {}
            by_demand: Dict[int, Set[InstanceId]] = {}
            for d in mine:
                i = d.instance_id
                bucket = by_demand.get(d.demand_id)
                if bucket is None:
                    by_demand[d.demand_id] = {i}
                else:
                    bucket.add(i)
                for e in d.path_edges:
                    bucket = by_edge.get(e)
                    if bucket is None:
                        by_edge[e] = {i}
                    else:
                        bucket.add(i)
            # Plain sets instead of InstanceIndex's canonical frozensets:
            # nothing mutates the buckets after this point, and skipping
            # the conversion keeps plan construction cheap.
            index[epoch] = InstanceIndex(by_edge=by_edge, by_demand=by_demand)
        return EpochPlan(n_epochs=layout.n_epochs, members=groups, index=index)


def stage_adjacency(
    index: InstanceIndex, instances: Iterable[DemandInstance]
) -> ConflictAdjacency:
    """The conflict graph induced on *instances*, every one of which
    *index* covers.

    Two instances conflict exactly when they share a demand or an edge
    bucket, so the induced graph links the given instances within every
    bucket that two or more of them fall in.  Only the buckets
    *instances* touch are visited.  Equals
    ``restrict(build_conflict_graph(covered), ids)`` for the instances
    *index* covers and the ids of *instances*.
    """
    ids: Set[InstanceId] = set()
    demands: Set[DemandId] = set()
    edges: Set[EdgeKey] = set()
    for d in instances:
        ids.add(d.instance_id)
        demands.add(d.demand_id)
        edges |= d.path_edges
    adj: ConflictAdjacency = {i: set() for i in ids}
    if len(adj) < 2:
        return adj
    by_demand, by_edge = index.by_demand, index.by_edge
    for bucket in chain(
        [by_demand[a] for a in demands], [by_edge[e] for e in edges]
    ):
        shared = bucket & ids
        if len(shared) > 1:
            for i in shared:
                adj[i] |= shared
    for i, nbrs in adj.items():
        nbrs.discard(i)
    return adj
