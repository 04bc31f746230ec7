"""Epoch-graph planning for the first phase.

The first phase (Figure 7) iterates epochs strictly in sequence, but the
dual variables live only on edges (``beta``) and demands (``alpha``):
epoch ``k``'s behaviour depends on an earlier epoch ``j`` only if some
instance of ``Gk`` reads a dual variable that some instance of ``Gj``
writes.  Raises on ``d`` write ``alpha(a_d)`` and ``beta`` on
``pi(d) <= path(d)``; the satisfaction test of ``d'`` reads
``alpha(a_d')`` and ``beta`` over ``path(d')``.  Hence the conservative
*interaction* test used here: **two epochs interact iff their groups
share a path edge or a demand** -- the same reverse-index buckets that
power :class:`repro.distributed.conflict.InstanceIndex`.

:class:`EpochPlan` materializes

* per-epoch slices of the instance set (members, in input order),
* per-epoch conflict adjacency (the conflict graph induced on the
  group -- all any engine's MIS ever looks at),
* per-epoch :class:`~repro.distributed.conflict.InstanceIndex` reverse
  indices (dirty-set queries restricted to the group), and
* the epoch-interaction graph, along which
  :func:`~repro.core.engines.journal.predict_dirty_epochs` propagates a
  perturbation to the later epochs it can reach.

The incremental engine (:mod:`repro.core.engines.incremental`) runs
every epoch, in order, on these slices.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Sequence, Set

from repro.core.demand import DemandInstance
from repro.core.engines.artifacts import InstanceLayout, group_members
from repro.core.types import InstanceId
from repro.distributed.conflict import ConflictAdjacency, InstanceIndex


@dataclass
class EpochPlan:
    """Per-epoch slices of a first phase, plus the epochs' interactions."""

    n_epochs: int
    #: epoch -> its group members, in global instance order.
    members: Dict[int, List[DemandInstance]]
    #: epoch -> conflict adjacency induced on its members.
    adjacency: Dict[int, ConflictAdjacency]
    #: epoch -> reverse edge/demand index over its members.
    index: Dict[int, InstanceIndex]
    #: epoch -> interacting epochs (symmetric, irreflexive).
    interactions: Dict[int, Set[int]]

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
        # Reverse buckets over *all* instances: which epochs touch each
        # path edge / demand.  Any bucket with >= 2 epochs makes all its
        # epoch pairs interact.
        epochs_by_edge: Dict[object, Set[int]] = {}
        epochs_by_demand: Dict[int, Set[int]] = {}
        for epoch, mine in groups.items():
            members[epoch] = mine
            # One bucketing pass per epoch feeds all three products: the
            # reverse index, the group conflict adjacency, and the
            # epoch-interaction buckets.
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
            for e in by_edge:
                epochs_by_edge.setdefault(e, set()).add(epoch)
            for a in by_demand:
                epochs_by_demand.setdefault(a, set()).add(epoch)
        interactions: Dict[int, Set[int]] = {
            k: set() for k in range(1, layout.n_epochs + 1)
        }
        for bucket in chain(epochs_by_edge.values(), epochs_by_demand.values()):
            if len(bucket) < 2:
                continue
            for a in bucket:
                interactions[a] |= bucket
        for k, nbrs in interactions.items():
            nbrs.discard(k)
        return EpochPlan(
            n_epochs=layout.n_epochs,
            members=members,
            adjacency=adjacency,
            index=index,
            interactions=interactions,
        )
