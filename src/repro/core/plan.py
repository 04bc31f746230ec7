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
  indices (dirty-set queries restricted to the group),
* the epoch-interaction graph, and
* *waves*: the longest-path layering of the interaction precedence DAG
  (``j -> k`` iff ``j < k`` and they interact).  Epochs in one wave are
  pairwise non-interacting, and every interacting predecessor of an
  epoch sits in an earlier wave -- so a wave's epochs can execute
  concurrently while the whole schedule stays equivalent to the strict
  sequential order.  Waves are the independence classes the parallel
  engine (:mod:`repro.core.engines.parallel`) executes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.core.demand import DemandInstance
from repro.core.engines.artifacts import InstanceLayout, group_members
from repro.core.types import InstanceId
from repro.distributed.conflict import ConflictAdjacency, InstanceIndex


@dataclass
class EpochPlan:
    """A plan for executing the first phase's epochs out of strict order.

    ``waves[w]`` lists the epochs (ascending) executable concurrently in
    wave ``w``; empty epochs (no members) carry no constraints and land
    in wave 0.
    """

    n_epochs: int
    #: epoch -> its group members, in global instance order.
    members: Dict[int, List[DemandInstance]]
    #: epoch -> conflict adjacency induced on its members.
    adjacency: Dict[int, ConflictAdjacency]
    #: epoch -> reverse edge/demand index over its members.
    index: Dict[int, InstanceIndex]
    #: epoch -> interacting epochs (symmetric, irreflexive).
    interactions: Dict[int, Set[int]]
    #: epoch -> path edges / demands it shares with *other* epochs: the
    #: only dual-variable keys whose master values an epoch can inherit
    #: from earlier waves (everything else it touches is private to it).
    shared_edges: Dict[int, Set] = field(default_factory=dict)
    shared_demands: Dict[int, Set] = field(default_factory=dict)
    #: independence classes in execution order.
    waves: List[List[int]] = field(default_factory=list)

    @property
    def n_waves(self) -> int:
        """Length of the wave schedule (sequential depth)."""
        return len(self.waves)

    @property
    def width(self) -> int:
        """Max number of *non-empty* epochs in one wave -- the measured
        epoch-independence width (1 means no exploitable parallelism)."""
        widths = [
            sum(1 for k in wave if self.members.get(k))
            for wave in self.waves
        ]
        return max(widths, default=0)

    def verify(self) -> None:
        """Check the plan's defining invariants (for tests and benches).

        Raises ``AssertionError`` if a wave contains interacting epochs,
        if an interacting pair is not ordered by wave the way epoch order
        demands, or if the waves don't partition ``1..n_epochs``.
        """
        seen: List[int] = []
        wave_of: Dict[int, int] = {}
        for w, wave in enumerate(self.waves):
            for k in wave:
                wave_of[k] = w
            seen.extend(wave)
            for a in wave:
                inside = self.interactions.get(a, set()).intersection(wave)
                assert not inside, f"wave {w} contains interacting epochs {a} and {inside}"
        assert sorted(seen) == list(range(1, self.n_epochs + 1)), (
            "waves must partition the epochs"
        )
        for k, nbrs in self.interactions.items():
            for j in nbrs:
                if j < k:
                    assert wave_of[j] < wave_of[k], (
                        f"interacting epochs {j} < {k} must run in earlier waves"
                    )

    @staticmethod
    def build(
        instances: Sequence[DemandInstance], layout: InstanceLayout
    ) -> "EpochPlan":
        """Build the plan for *instances* under *layout*.

        Each group's conflict graph is built directly from the group's
        own edge and demand buckets, so cross-epoch conflict pairs are
        never materialized.  The incremental and parallel engines run
        every epoch on these slices.
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
        shared_edges: Dict[int, Set] = {k: set() for k in groups}
        shared_demands: Dict[int, Set] = {k: set() for k in groups}
        for e, bucket in epochs_by_edge.items():
            if len(bucket) < 2:
                continue
            for a in bucket:
                interactions[a] |= bucket
                shared_edges[a].add(e)
        for dem, bucket in epochs_by_demand.items():
            if len(bucket) < 2:
                continue
            for a in bucket:
                interactions[a] |= bucket
                shared_demands[a].add(dem)
        for k, nbrs in interactions.items():
            nbrs.discard(k)
        # Longest-path layering of the precedence DAG (edges j -> k for
        # interacting j < k): wave(k) = 1 + max wave over predecessors.
        level: Dict[int, int] = {}
        for k in range(1, layout.n_epochs + 1):
            preds = [level[j] for j in interactions[k] if j < k]
            level[k] = (1 + max(preds)) if preds else 0
        waves: List[List[int]] = [[] for _ in range(max(level.values(), default=-1) + 1)]
        for k in sorted(level):
            waves[level[k]].append(k)
        return EpochPlan(
            n_epochs=layout.n_epochs,
            members=members,
            adjacency=adjacency,
            index=index,
            interactions=interactions,
            shared_edges=shared_edges,
            shared_demands=shared_demands,
            waves=waves,
        )
