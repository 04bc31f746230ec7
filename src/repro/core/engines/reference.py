"""The reference first-phase engine: the literal Figure 7 loop.

Every step rescans all group members for ``tau``-satisfaction and
rebuilds the restricted conflict graph from scratch, ``O(steps x
group^2)`` work per stage.  It is the executable specification against
which the incremental engine is golden-tested.
"""
from __future__ import annotations

from typing import List, Sequence

from repro.core.demand import DemandInstance
from repro.core.dual import DualState, RaiseEvent, RaiseRule
from repro.core.engines.artifacts import (
    FirstPhaseArtifacts,
    InstanceLayout,
    PhaseCounters,
    group_members,
    stall_error,
)
from repro.distributed.conflict import ConflictAdjacency, restrict
from repro.distributed.mis import MISOracle


def run_first_phase_reference(
    instances: Sequence[DemandInstance],
    layout: InstanceLayout,
    raise_rule: RaiseRule,
    thresholds: Sequence[float],
    mis_oracle: MISOracle,
    conflict_adj: ConflictAdjacency,
) -> FirstPhaseArtifacts:
    """The literal Figure 7 loop: full rescans, per-step ``restrict()``."""
    dual = DualState(use_height_rule=raise_rule.use_height_rule)
    by_id = {d.instance_id: d for d in instances}
    groups = group_members(instances, layout)
    events: List[RaiseEvent] = []
    stack: List[List[DemandInstance]] = []
    counters = PhaseCounters()
    order = 0
    for epoch in range(1, layout.n_epochs + 1):
        members = groups.get(epoch, [])
        counters.epochs += 1
        if not members:
            continue
        for stage_no, tau in enumerate(thresholds, start=1):
            counters.stages += 1
            counters.stages_entered += 1
            step = 0
            while True:
                counters.satisfaction_checks += len(members)
                unsatisfied = [d for d in members if not dual.is_satisfied(d, tau)]
                if not unsatisfied:
                    break
                step += 1
                if step > len(members):  # each step must satisfy >= 1 member
                    raise stall_error(epoch, stage_no, len(members))
                unsatisfied_ids = [d.instance_id for d in unsatisfied]
                for i in unsatisfied_ids:
                    counters.adjacency_touches += 1 + len(conflict_adj[i])
                mis_ids, rounds = mis_oracle(
                    unsatisfied,
                    restrict(conflict_adj, unsatisfied_ids),
                    (epoch, stage_no, step),
                )
                counters.mis_rounds += rounds
                chosen = [by_id[i] for i in sorted(mis_ids)]
                for d in chosen:
                    delta = raise_rule.apply(dual, d, layout.pi[d.instance_id])
                    events.append(
                        RaiseEvent(
                            order=order,
                            instance=d,
                            delta=delta,
                            critical_edges=layout.pi[d.instance_id],
                            step_tuple=(epoch, stage_no, step),
                        )
                    )
                    order += 1
                    counters.raises += 1
                stack.append(chosen)
                counters.steps += 1
            counters.max_steps_per_stage = max(counters.max_steps_per_stage, step)
    return dual, stack, events, counters
