"""The parallel first-phase engine: plan -> execute -> merge.

Executes the epoch waves of an :class:`~repro.core.plan.EpochPlan` on a
pluggable :class:`~repro.core.engines.backends.EpochExecutorBackend`
(``backend="thread"`` (default) / ``"process"`` / ``"serial"``,
``workers=`` knob) and deterministically merges the per-job artifacts
back into the sequential epoch order, so the result is **bit-identical**
to ``engine="incremental"``:

* Each job runs :func:`~repro.core.engines.incremental.run_epoch_incremental`
  -- the exact incremental loop body -- over *plan-sliced* state: the
  epoch's members, its member-restricted conflict adjacency and reverse
  index, and a local :class:`~repro.core.dual.DualState` primed with the
  master dual values its members can read (``alpha`` of member demands,
  ``beta`` on member path edges).
* Epochs in one wave share no path edge and no demand, so their dual
  reads/writes are disjoint: each job sees exactly the dual assignment
  the sequential engine would have shown it, and the per-wave merge
  (applied in epoch order) reproduces the sequential float arithmetic
  exactly.
* Events are renumbered and stacks concatenated in epoch order;
  counters are summed (``max_steps_per_stage`` maxed).  The incremental
  engine runs the same kernel on the same plan slices, so only the
  worker-attribution fields (``wavefronts``, ``workers_used``) differ
  from it.

Determinism does not depend on scheduling: wave membership is
data-dependent only, jobs are sealed off from each other, and every
merge walks epochs in ascending order -- which is why the *same*
artifacts come back from a thread pool, a process pool, or inline
serial execution.  The bundled MIS oracles are safe to share across
epoch threads (``greedy`` and ``hash`` are stateless; ``luby`` keeps
one independent substream per epoch) and picklable for the process
backend.  A custom oracle must likewise not share mutable state across
epochs, and must pickle if the process backend is used.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.demand import DemandInstance
from repro.core.dual import DualState, RaiseEvent, RaiseRule
from repro.core.engines.artifacts import (
    FirstPhaseArtifacts,
    InstanceLayout,
    PhaseCounters,
)
from repro.core.engines.backends import (
    MAX_DEFAULT_WORKERS,
    EpochExecutorBackend,
    EpochJob,
    EpochOutcome,
    default_workers,
    make_backend,
    resolve_workers,
    usable_cpu_count,
)
from repro.core.plan import EpochPlan
from repro.core.types import DemandId, EdgeKey
from repro.distributed.mis import MISOracle
from repro.obs.metrics import default_registry

__all__ = [
    "MAX_DEFAULT_WORKERS",
    "ParallelEpochExecutor",
    "default_workers",
    "run_first_phase_parallel",
    "usable_cpu_count",
]


class ParallelEpochExecutor:
    """Runs a first phase as planned epoch waves on an execution backend."""

    def __init__(
        self, workers: Optional[int] = None, backend: Optional[str] = None
    ) -> None:
        backend_name, self.workers = resolve_workers(workers, backend)
        self.backend: EpochExecutorBackend = make_backend(
            backend_name, self.workers
        )

    @property
    def backend_name(self) -> str:
        """The resolved execution backend ('thread', 'process' or 'serial')."""
        return self.backend.name

    def run(
        self,
        instances: Sequence[DemandInstance],
        layout: InstanceLayout,
        raise_rule: RaiseRule,
        thresholds: Sequence[float],
        mis_oracle: MISOracle,
    ) -> FirstPhaseArtifacts:
        """Execute the first phase; artifacts match ``engine="incremental"``."""
        plan = EpochPlan.build(instances, layout)
        thresholds = tuple(thresholds)
        master = DualState(use_height_rule=raise_rule.use_height_rule)
        outcomes: Dict[int, EpochOutcome] = {}
        for wave in plan.waves:
            jobs: List[EpochJob] = []
            for epoch in wave:
                members = plan.members.get(epoch)
                if not members:
                    continue
                primed_alpha, primed_beta = self._primed(master, plan, epoch)
                jobs.append(
                    EpochJob(
                        epoch, members, plan.index[epoch],
                        plan.adjacency[epoch], layout, raise_rule,
                        thresholds, mis_oracle, primed_alpha, primed_beta,
                    )
                )
            if not jobs:
                continue
            # Always-on wave telemetry into the process-default
            # registry: one gauge write per wave (see backends'
            # _record_wave for the pool-side counterpart).
            default_registry().gauge(
                "repro_wave_width", backend=self.backend.name
            ).set(len(jobs))
            for out in self.backend.run_wave(jobs):
                outcomes[out.epoch] = out
            # The master dual is frozen while a wave runs; merge the
            # wave's (disjoint) writes afterwards, in epoch order.
            for epoch in sorted(job.epoch for job in jobs):
                master.alpha.update(outcomes[epoch].alpha_writes)
                master.beta.update(outcomes[epoch].beta_writes)
        return self._merge(plan, layout, master, outcomes)

    @staticmethod
    def _primed(
        master: DualState, plan: EpochPlan, epoch: int
    ) -> Tuple[Dict[DemandId, float], Dict[EdgeKey, float]]:
        """Master dual values *epoch*'s members can read.

        Only keys *shared* with other epochs can carry inherited values
        -- everything else the epoch touches is private to it -- so the
        scan is over the plan's (typically tiny) shared-key sets rather
        than all member path edges.  The first wave always sees an empty
        master and skips even that.
        """
        primed_alpha: Dict[DemandId, float] = {}
        primed_beta: Dict[EdgeKey, float] = {}
        if master.alpha or master.beta:
            for a in plan.shared_demands[epoch]:
                if a in master.alpha:
                    primed_alpha[a] = master.alpha[a]
            for e in plan.shared_edges[epoch]:
                if e in master.beta:
                    primed_beta[e] = master.beta[e]
        return primed_alpha, primed_beta

    def _merge(
        self,
        plan: EpochPlan,
        layout: InstanceLayout,
        master: DualState,
        outcomes: Dict[int, EpochOutcome],
    ) -> FirstPhaseArtifacts:
        """Reassemble artifacts in sequential epoch order.

        The master dual accumulated its writes in *wave* order, but dict
        iteration order is insertion order and ``DualState.value()`` sums
        the values in that order -- float addition is not associative, so
        the sequential engines' epoch-major key order must be reproduced
        exactly.  Replaying the per-job writes into a fresh dual in
        ascending epoch order recreates it: a key keeps the position of
        the first epoch that wrote it (later writes only overwrite the
        value), which is precisely when the incremental engine would have
        created it.
        """
        final = DualState(use_height_rule=master.use_height_rule)
        for key in sorted(outcomes):
            final.alpha.update(outcomes[key].alpha_writes)
            final.beta.update(outcomes[key].beta_writes)
        events: List[RaiseEvent] = []
        stack: List[List[DemandInstance]] = []
        counters = PhaseCounters(
            epochs=layout.n_epochs,
            wavefronts=plan.n_waves,
            workers_used=self.backend.workers,
        )
        order = 0
        for key in sorted(outcomes):
            out = outcomes[key]
            for ev in out.events:
                # The event objects are exclusively ours (created by this
                # run's epoch jobs), so renumbering them in place is safe
                # and much cheaper than dataclasses.replace on every event.
                # The first epoch's events are already numbered from 0.
                if ev.order != order:
                    object.__setattr__(ev, "order", order)
                events.append(ev)
                order += 1
            stack.extend(out.stack)
            counters.fold_phase1(out.counters)
        return final, stack, events, counters


def run_first_phase_parallel(
    instances: Sequence[DemandInstance],
    layout: InstanceLayout,
    raise_rule: RaiseRule,
    thresholds: Sequence[float],
    mis_oracle: MISOracle,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
) -> FirstPhaseArtifacts:
    """Engine entry point matching the incremental signature."""
    executor = ParallelEpochExecutor(workers=workers, backend=backend)
    return executor.run(instances, layout, raise_rule, thresholds, mis_oracle)
