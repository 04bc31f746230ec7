"""The second phase: the reversed-stack greedy pop.

The second phase of the framework pops the first phase's MIS stack in
reverse and greedily admits every instance that keeps the solution
feasible (:class:`~repro.core.solution.CapacityLedger`).  The pop here
is byte-for-byte the historical ``run_second_phase`` loop -- the
executable specification -- plus an account of the admission work it
did.  It is a pure function of the stack, and every path, delta
solves included, runs this one pop.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.demand import DemandInstance
from repro.core.engines.artifacts import PhaseCounters
from repro.core.solution import CapacityLedger, Solution

__all__ = ["run_second_phase"]

Stack = Sequence[Sequence[DemandInstance]]


def run_second_phase(
    stack: Stack,
    counters: Optional[PhaseCounters] = None,
) -> Solution:
    """Run the second phase: pop in reverse, admit greedily if feasible.

    ``counters``, when given, receives the real admission work account
    (``phase2_rounds`` = non-empty batches popped, plus
    ``admission_checks`` -- one per (batch, instance) visit -- /
    ``admitted`` / ``rejected``).
    """
    ledger = CapacityLedger()
    selected: List[DemandInstance] = []
    checks = 0
    for batch in reversed(stack):
        for d in sorted(batch, key=lambda x: x.instance_id):
            checks += 1
            if ledger.fits(d):
                ledger.add(d)
                selected.append(d)
    if counters is not None:
        counters.phase2_rounds = sum(1 for batch in stack if batch)
        counters.admission_checks = checks
        counters.admitted = len(selected)
        counters.rejected = checks - len(selected)
    return Solution.from_instances(selected)
