"""The two-phase primal-dual framework (Section 3.2, Figure 7).

The engine is the common core of every algorithm in the paper:

* **First phase** -- iterate over *epochs* (one per layered-decomposition
  group), *stages* (a sequence of satisfaction thresholds ``tau``), and
  *steps*: in each step, find an MIS of the still-``tau``-unsatisfied
  instances of the current group, raise the dual variables of every MIS
  member simultaneously (leaving their constraints tight), and push the
  MIS onto a stack.
* **Second phase** -- pop the stack in reverse and greedily admit
  instances that keep the solution feasible.

Algorithms differ only in (a) the layout (group + critical edges per
instance, i.e. the layered decomposition), (b) the threshold schedule
(the paper's multi-stage ``1 - xi^j`` thresholds, or Panconesi-Sozio's
single ``1/(5+eps)`` threshold), (c) the raise rule (unit or heights),
and (d) the MIS oracle.  The approximation guarantees of Lemma 3.1 and
Lemma 6.1 follow from the interference property of the layout.

Engines
-------

This module is the stable facade over the engine implementations in
:mod:`repro.core.engines`; three interchangeable first-phase engines sit
behind the ``engine=`` switch of :func:`run_two_phase` /
:func:`run_first_phase`, all of them serial:

* ``engine="reference"`` (default) -- the literal Figure 7 loop: every
  step rescans all group members for ``tau``-satisfaction and rebuilds
  the restricted conflict graph from scratch, ``O(steps x group^2)``
  work per stage.  It is the executable specification
  (:mod:`repro.core.engines.reference`).
* ``engine="incremental"`` -- semantically identical, but maintains a
  per-(epoch, stage) *unsatisfied* set updated via dirty-sets: a dual
  raise on instance ``d`` moves ``alpha`` only for demand ``a_d`` and
  ``beta`` only on ``pi(d)``, so the instances whose satisfaction can
  flip are found through the epoch's edge->instance index.  Because
  raises only increase constraint LHS values, satisfaction is monotone
  within a stage and the set never needs a full rescan.  Because the
  schedule never decreases either, each member's first failing stage
  is found by bisection, and the engine jumps from one stage some
  member fails to the next instead of visiting every threshold.  The
  per-step ``restrict()`` rebuild is replaced by an active-set
  adjacency view that shrinks as instances satisfy.  Every epoch runs
  on the slices of an :class:`~repro.core.plan.EpochPlan` -- its
  members and their edge/demand reverse index, never the global
  cross-epoch graph -- and each stage it enters builds its adjacency
  view from the buckets its unsatisfied members touch
  (:mod:`repro.core.engines.incremental`).
* ``engine="vectorized"`` -- the array-native columnar kernel
  (:mod:`repro.core.engines.columnar`): the whole phase is re-encoded
  once into numpy struct-of-arrays blocks (CSR path/critical-edge
  columns, conflict *buckets* instead of pairwise adjacency) and every
  per-step operation -- tau-satisfaction, MIS, dual raises, dirty-set
  recomputation -- runs as vectorized kernels over persistent float64
  dual arrays, committing back to dict form at each epoch boundary.
  Bit-identical to ``incremental`` for the bundled raise rules and MIS
  oracles; custom rules/oracles fall back to an exact shadow mode.

All engines produce bit-identical artifacts (solutions, raise events,
stacks, schedule counters) for the bundled MIS oracles; the golden
suites in ``tests/test_engine_equivalence.py`` enforce this.
:class:`PhaseCounters` exposes ``satisfaction_checks``,
``stages_entered`` and ``adjacency_touches`` so the asymptotic win is
measurable (see ``benchmarks/bench_e16_engine_scaling.py``;
``benchmarks/bench_e21_vectorized_kernel.py`` times the columnar
kernel against the incremental engine).  Figure 7 runs epochs strictly
in sequence and distributes only each step's MIS, which
:mod:`repro.distributed` simulates message for message; multi-core
serving forks whole services (:mod:`repro.service.shard`) instead of
splitting one first phase.

The second phase has a single implementation, the literal
reversed-stack pop of :mod:`repro.core.engines.admission`, and every
path runs it, the delta-serving path included.
"""
from __future__ import annotations

import math
from typing import List, Sequence

from repro.core.demand import DemandInstance
from repro.core.dual import RaiseEvent, RaiseRule
from repro.core.engines import (
    FirstPhaseArtifacts,
    InstanceLayout,
    PhaseCounters,
    run_first_phase_incremental,
    run_first_phase_reference,
    run_first_phase_vectorized,
    run_second_phase,
)
from repro.core.result import TwoPhaseResult
from repro.distributed.conflict import build_conflict_graph
from repro.distributed.mis import MISOracle, make_mis_oracle

#: The interchangeable first-phase engines (see the module docstring).
ENGINES = ("reference", "incremental", "vectorized")


def validate_engine(engine: str) -> str:
    """Validate a first-phase engine name (the single source of truth)."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    return engine


def geometric_thresholds(xi: float, epsilon: float) -> List[float]:
    """The paper's stage thresholds ``1 - xi^j`` for ``j = 1..b``.

    ``b`` is the smallest integer with ``xi^b <= epsilon``, so after the
    last stage every instance of the epoch's group is ``(1-eps)``-satisfied.
    """
    if not 0 < xi < 1:
        raise ValueError(f"xi must lie in (0, 1), got {xi}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    b = max(1, math.ceil(math.log(epsilon) / math.log(xi)))
    return [1.0 - xi**j for j in range(1, b + 1)]


def validate_thresholds(thresholds: Sequence[float]) -> None:
    """Check a stage schedule: non-empty, each ``tau`` in ``(0, 1]``,
    never decreasing (equal neighbours are allowed).

    The final threshold is the run's slackness, and a non-decreasing
    schedule is what lets the incremental engine bisect for each
    member's first failing stage.
    """
    if not thresholds:
        raise ValueError("at least one stage threshold is required")
    for j, tau in enumerate(thresholds):
        if not 0 < tau <= 1:
            raise ValueError(
                f"stage threshold {j} must lie in (0, 1], got {tau}"
            )
        if j and tau < thresholds[j - 1]:
            raise ValueError(
                f"stage thresholds must never decrease: threshold {j} "
                f"({tau}) is below threshold {j - 1} ({thresholds[j - 1]})"
            )


def unit_xi(delta: int) -> float:
    """``xi = 2 Delta' / (2 Delta' + 1)`` with ``Delta' = Delta + 1``.

    Gives ``14/15`` for trees (``Delta = 6``) and ``8/9`` for lines
    (``Delta = 3``), the constants used in Sections 5 and 7.  This is
    the largest ``xi`` for which the kill-factor of Claim 5.2 is 2.
    """
    dprime = delta + 1
    return (2 * dprime) / (2 * dprime + 1)


def narrow_xi(delta: int, hmin: float) -> float:
    """``xi = c / (c + hmin)`` with ``c = 2 (1 + 2 Delta^2)`` (Section 6).

    Chosen so the kill-chain argument of Lemma 5.1 keeps a profit-doubling
    factor of at least 2 under the height raise rule, yielding
    ``O((1/hmin) log(1/eps))`` stages per epoch.
    """
    if not 0 < hmin <= 0.5:
        raise ValueError(f"hmin must lie in (0, 1/2], got {hmin}")
    c = 2.0 * (1 + 2 * delta * delta)
    return c / (c + hmin)


def run_first_phase(
    instances: Sequence[DemandInstance],
    layout: InstanceLayout,
    raise_rule: RaiseRule,
    thresholds: Sequence[float],
    mis_oracle: MISOracle,
    engine: str = "reference",
) -> FirstPhaseArtifacts:
    """Run the first phase (Figure 7) and return its artifacts.

    *thresholds* is the stage schedule: at least one ``tau``, each in
    ``(0, 1]``, never decreasing (see :func:`validate_thresholds`); its
    last entry is the slackness every instance ends up satisfying.
    ``engine`` selects the implementation (see the module docstring);
    all engines produce identical artifacts for the bundled MIS oracles.
    Only the reference engine builds the global conflict graph; the
    others work on per-epoch slices or conflict buckets.
    """
    validate_thresholds(thresholds)
    validate_engine(engine)
    if engine == "reference":
        return run_first_phase_reference(
            instances, layout, raise_rule, thresholds, mis_oracle,
            build_conflict_graph(instances),
        )
    if engine == "vectorized":
        return run_first_phase_vectorized(
            instances, layout, raise_rule, thresholds, mis_oracle
        )
    return run_first_phase_incremental(
        instances, layout, raise_rule, thresholds, mis_oracle
    )


def run_two_phase(
    instances: Sequence[DemandInstance],
    layout: InstanceLayout,
    raise_rule: RaiseRule,
    thresholds: Sequence[float],
    mis: str = "luby",
    seed: int = 0,
    engine: str = "reference",
) -> TwoPhaseResult:
    """Run both phases and assemble a :class:`TwoPhaseResult`.

    ``mis`` selects the oracle (``'luby'``, ``'hash'`` or ``'greedy'``);
    ``seed`` makes randomized runs reproducible; ``engine`` selects the
    first-phase implementation (``'reference'``, ``'incremental'`` or
    ``'vectorized'``, equivalent by construction -- see the module
    docstring).
    """
    oracle = make_mis_oracle(mis, seed)
    dual, stack, events, counters = run_first_phase(
        instances, layout, raise_rule, thresholds, oracle,
        engine=engine,
    )
    solution = run_second_phase(stack, counters=counters)
    return TwoPhaseResult(
        solution=solution,
        dual=dual,
        events=events,
        stack=stack,
        slackness=thresholds[-1],
        layout=layout,
        counters=counters,
        thresholds=list(thresholds),
    )
