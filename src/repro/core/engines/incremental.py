"""The incremental (dirty-set) first-phase engine.

Semantically identical to the reference engine, but maintains a
per-(epoch, stage) *unsatisfied* set updated via dirty-sets, and enters
only the stages some member fails; see
:func:`run_first_phase_incremental` for the correctness argument.

The per-epoch loop body lives in :func:`run_epoch_incremental`, and
every epoch runs it on the slices of an
:class:`~repro.core.plan.EpochPlan`: the epoch's members and their
edge/demand reverse index.  Each stage the loop enters builds the
conflict graph induced on its unsatisfied members from the buckets
they touch; each due-stage check runs through
:func:`due_stage_finder`, the specification
:func:`first_failing_stage` with its per-call overhead taken out.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence

from repro.core.demand import DemandInstance
from repro.core.dual import DualState, RaiseEvent, RaiseRule
from repro.core.engines.artifacts import (
    FirstPhaseArtifacts,
    InstanceLayout,
    PhaseCounters,
    stall_error,
)
from repro.core.plan import EpochPlan, stage_adjacency
from repro.core.types import EPS, InstanceId
from repro.distributed.conflict import InstanceIndex
from repro.distributed.mis import MISOracle


def first_failing_stage(
    lhs: float, profit: float, thresholds: Sequence[float], lo: int = 0
) -> int:
    """Index of the first threshold at or after *lo* that *lhs* fails.

    Returns ``len(thresholds)`` when *lhs* satisfies every threshold
    from *lo* on.  The schedule never decreases, so failing is monotone
    in the stage and bisecting with :meth:`DualState.lhs_satisfies`
    finds exactly the stage a linear scan would.
    """
    satisfies = DualState.lhs_satisfies
    hi = len(thresholds)
    while lo < hi:
        mid = (lo + hi) // 2
        if satisfies(lhs, profit, thresholds[mid]):
            lo = mid + 1
        else:
            hi = mid
    return lo


def due_stage_finder(
    dual: DualState, thresholds: Sequence[float]
) -> Callable[[DemandInstance, int], int]:
    """``due(d, lo)``: the first stage at or after *lo* that *d* fails now.

    Exactly ``first_failing_stage(dual.lhs(d), d.profit, thresholds,
    lo)``, with the per-call overhead taken out: the LHS adds the same
    terms in the same left-to-right order through locally bound dict
    lookups, and the search inlines :meth:`DualState.lhs_satisfies`.
    Failing is monotone in the stage, so a member past the last stage
    stays there, and the search probes stage *lo* and the last stage
    first -- most evaluations end there, a member still due where it
    was or satisfying the whole schedule -- and bisects only between
    them.  The dual's dicts are bound once, so *dual* must only be
    mutated in place (as every raise rule does).
    """
    beta_get = dual.beta.get
    alpha_get = dual.alpha.get
    use_height_rule = dual.use_height_rule
    n_stages = len(thresholds)
    last = thresholds[-1]

    def due(d: DemandInstance, lo: int) -> int:
        if lo >= n_stages:
            return lo
        beta_sum = 0.0
        for e in d.path_edges:
            beta_sum += beta_get(e, 0.0)
        coeff = d.height if use_height_rule else 1.0
        lhs = alpha_get(d.demand_id, 0.0) + coeff * beta_sum
        profit = d.profit
        if lhs >= thresholds[lo] * profit - EPS:
            if lhs >= last * profit - EPS:
                return n_stages
            # Stage lo holds and the last fails: bisect in between.
            lo += 1
            hi = n_stages - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if lhs >= thresholds[mid] * profit - EPS:
                    lo = mid + 1
                else:
                    hi = mid
        return lo

    return due


def run_epoch_incremental(
    epoch: int,
    members: Sequence[DemandInstance],
    by_id: Mapping[InstanceId, DemandInstance],
    dual: DualState,
    index: InstanceIndex,
    layout: InstanceLayout,
    raise_rule: RaiseRule,
    thresholds: Sequence[float],
    mis_oracle: MISOracle,
    events: List[RaiseEvent],
    stack: List[List[DemandInstance]],
    counters: PhaseCounters,
    order: int,
) -> int:
    """Run one epoch of the dirty-set engine; returns the next raise order.

    ``index`` may be the global instance index or one restricted to
    *members*: dirty sets are always intersected with the member set,
    and a stage's conflict graph is induced on its unsatisfied members
    (:func:`~repro.core.plan.stage_adjacency`), so both give identical
    behaviour (the restricted one is just cheaper, which is why every
    epoch runs on plan slices).
    """
    n_stages = len(thresholds)
    due_stage = due_stage_finder(dual, thresholds)
    # Each member's *due stage*: the first stage (0-based) whose
    # threshold its LHS, as of its last evaluation, fails; n_stages
    # once it fails none.  One full evaluation per member per epoch;
    # afterwards only dirty members are re-evaluated.
    due: Dict[InstanceId, int] = {}
    waiting: Dict[int, set] = {}  # due stage -> members due there
    counters.satisfaction_checks += len(members)
    for d in members:
        k = due[d.instance_id] = due_stage(d, 0)
        if k < n_stages:
            waiting.setdefault(k, set()).add(d.instance_id)
    # A stage no member is due at would rescan to an empty unsatisfied
    # set and do nothing else, so it is counted, not entered.
    counters.stages += n_stages
    while waiting:
        k = min(waiting)
        unsat = waiting.pop(k)
        stage_no = k + 1
        counters.stages_entered += 1
        # The conflict graph induced on the stage's unsatisfied members,
        # built once from the buckets they touch and shrunk in place as
        # instances satisfy.
        active_adj = stage_adjacency(index, [by_id[i] for i in unsat])
        counters.adjacency_touches += len(active_adj) + sum(
            map(len, active_adj.values())
        )
        step = 0
        while unsat:
            step += 1
            if step > len(members):  # each step must satisfy >= 1 member
                raise stall_error(epoch, stage_no, len(members))
            candidates = [by_id[i] for i in sorted(unsat)]
            mis_ids, rounds = mis_oracle(
                candidates, active_adj, (epoch, stage_no, step)
            )
            counters.mis_rounds += rounds
            chosen = [by_id[i] for i in sorted(mis_ids)]
            dirty: set = set()
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
                dirty.add(d.instance_id)
                dirty |= index.affected_by(d.demand_id, layout.pi[d.instance_id])
            stack.append(chosen)
            counters.steps += 1
            # Re-evaluate dirty members.  An LHS never falls, so a due
            # stage only moves later: members due now retire when
            # tau-satisfied, later ones move to a later bucket.
            newly_satisfied = []
            recheck = sorted(dirty & due.keys())
            counters.satisfaction_checks += len(recheck)
            for i in recheck:
                old = due[i]
                new = due_stage(by_id[i], old)
                if new == old:
                    continue
                due[i] = new
                if old == k:
                    newly_satisfied.append(i)
                else:
                    bucket = waiting[old]
                    bucket.discard(i)
                    if not bucket:
                        del waiting[old]
                if new < n_stages:
                    waiting.setdefault(new, set()).add(i)
            for i in newly_satisfied:
                unsat.discard(i)
                nbrs = active_adj.pop(i)
                counters.adjacency_touches += 1 + len(nbrs)
                for nb in nbrs:
                    if nb in active_adj:
                        active_adj[nb].discard(i)
        counters.max_steps_per_stage = max(counters.max_steps_per_stage, step)
    return order


def run_first_phase_incremental(
    instances: Sequence[DemandInstance],
    layout: InstanceLayout,
    raise_rule: RaiseRule,
    thresholds: Sequence[float],
    mis_oracle: MISOracle,
) -> FirstPhaseArtifacts:
    """Dirty-set engine: same semantics, incremental satisfaction state.

    Correctness rests on three facts.  (1) The LHS of an instance's dual
    constraint changes only when some neighbor's raise touches it: a
    raise on ``d`` moves ``alpha`` only for demand ``a_d`` and ``beta``
    only on ``pi(d)``, so the instances whose LHS moved (the *dirty
    set*) are exactly what :class:`InstanceIndex` returns.  (2) Raises
    only *increase* LHS values, so within one (epoch, stage) a satisfied
    instance stays satisfied -- only dirty instances can change status.
    (3) The schedule never decreases (:func:`run_first_phase` checks
    it), so with its LHS fixed a member that fails stage ``j`` fails
    every later stage too: its first failing stage -- its *due stage*
    -- can be bisected, and by (2) re-evaluating it only ever moves it
    later.

    Together these let the engine evaluate each member's LHS once per
    epoch and again only when dirty, keep just its due stage, and jump
    straight to the next stage some member is due at: the stages in
    between are exactly the ones whose rescan would find nothing
    unsatisfied, which the reference loop skips without a draw or a
    raise (they still count in ``stages``).  Within a stage the engine
    maintains the *unsatisfied* set plus an active-set adjacency view
    that shrinks in place as instances satisfy, replacing the reference
    engine's per-step full rescan and ``restrict()`` rebuild.

    Each epoch runs on its :class:`~repro.core.plan.EpochPlan` slices
    (Figure 7's MIS only ever looks at the current group, so
    cross-epoch conflict pairs are never built), and a stage's
    adjacency view is built from the epoch's edge and demand buckets
    that its unsatisfied members touch: conflicts among members that
    are already satisfied when the stage opens are never built either.
    """
    dual = DualState(use_height_rule=raise_rule.use_height_rule)
    by_id = {d.instance_id: d for d in instances}
    plan = EpochPlan.build(instances, layout)
    events: List[RaiseEvent] = []
    stack: List[List[DemandInstance]] = []
    counters = PhaseCounters()
    order = 0
    for epoch in range(1, layout.n_epochs + 1):
        counters.epochs += 1
        members = plan.members.get(epoch)
        if members:
            order = run_epoch_incremental(
                epoch, members, by_id, dual, plan.index[epoch], layout,
                raise_rule, thresholds, mis_oracle, events, stack,
                counters, order,
            )
    return dual, stack, events, counters
