"""The result object of a full two-phase run.

Separated from the engine selection logic in
:mod:`repro.core.framework` (which re-exports it) so the engines
package, the planner and downstream consumers can all name the type
without importing the facade.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.canonical import stable_digest
from repro.core.demand import DemandInstance
from repro.core.dual import DualState, RaiseEvent
from repro.core.engines.artifacts import InstanceLayout, PhaseCounters
from repro.core.solution import Solution


@dataclass
class TwoPhaseResult:
    """Everything produced by one run of the framework."""

    solution: Solution
    dual: DualState
    events: List[RaiseEvent]
    stack: List[List[DemandInstance]]
    slackness: float
    layout: InstanceLayout
    counters: PhaseCounters
    thresholds: List[float]

    @property
    def profit(self) -> float:
        """``p(S)``."""
        return self.solution.profit

    @property
    def certified_upper_bound(self) -> float:
        """``val(alpha, beta) / lambda >= p(Opt)`` by weak duality."""
        return self.dual.scaled_value(self.slackness)

    @property
    def certified_ratio(self) -> float:
        """Per-run certified approximation factor (``>= Opt/p(S)``)."""
        if self.profit <= 0:
            return float("inf")
        return self.certified_upper_bound / self.profit

    @property
    def raised_delta(self) -> int:
        """Largest critical set actually used by a raise."""
        if not self.events:
            return 0
        return max(len(ev.critical_edges) for ev in self.events)

    def semantic_tuple(self):
        """The run's engine-independent artifact, as one comparable value.

        Everything the bit-identity contract covers, in one tuple: the
        selected instance ids, the full raise log (order, instance,
        exact float delta, critical edges, step coordinate), the stack
        shape, the schedule counters
        (:meth:`~repro.core.engines.artifacts.PhaseCounters.semantic_tuple`),
        and the final dual assignments *as ordered items* -- so two runs
        compare equal only if their dual dicts also agree on insertion
        order, which ``DualState.value()`` (float summation order) and
        downstream certificates depend on.  The cross-engine golden
        suites (``tests/test_engine_equivalence.py``) compare each of
        these fields.
        """
        return (
            tuple(d.instance_id for d in self.solution.selected),
            tuple(
                (e.order, e.instance.instance_id, e.delta,
                 e.critical_edges, e.step_tuple)
                for e in self.events
            ),
            tuple(
                tuple(d.instance_id for d in batch) for batch in self.stack
            ),
            self.counters.semantic_tuple(),
            tuple(self.dual.alpha.items()),
            tuple(self.dual.beta.items()),
        )

    def semantic_digest(self) -> str:
        """Stable hex digest of :meth:`semantic_tuple`.

        The cache-safety form of the bit-identity contract: the tuple
        itself holds ids, exact floats, edge keys and *ordered* dual
        items, and :func:`repro.core.canonical.stable_digest` encodes
        all of those deterministically (floats via ``float.hex``, no
        dependence on per-process hash randomization).  The service
        layer's disk tier records this digest when a result is admitted
        and re-verifies it after unpickling, so a corrupted or stale
        cache file can never impersonate a live solve.
        """
        return stable_digest(self.semantic_tuple())
