"""Shared artifacts of the first-phase engines.

Every engine (reference, incremental, vectorized) consumes an
:class:`InstanceLayout` and produces the same artifact bundle: a final
:class:`~repro.core.dual.DualState`, the raise-event log, the stack of
MIS batches for the second phase, and a :class:`PhaseCounters` work
account -- the :data:`FirstPhaseArtifacts` tuple.  Keeping these types
(and the stall guard) in one module lets the engines live in separate
files without import cycles through the :mod:`repro.core.framework`
facade.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.demand import DemandInstance
from repro.core.dual import DualState, RaiseEvent
from repro.core.types import EdgeKey, InstanceId
from repro.trees.layered import LayeredDecomposition


@dataclass
class InstanceLayout:
    """Group index and critical edges for every instance of a problem.

    ``group_of`` is 1-based; epoch ``k`` of the first phase processes the
    union ``Gk`` of the ``k``-th groups of all per-network layered
    decompositions (Figure 7).
    """

    group_of: Dict[InstanceId, int]
    pi: Dict[InstanceId, Tuple[EdgeKey, ...]]
    n_epochs: int

    @property
    def critical_set_size(self) -> int:
        """``Delta``: the largest critical set over all instances."""
        if not self.pi:
            return 0
        return max(len(p) for p in self.pi.values())

    @staticmethod
    def from_layered(decompositions: Iterable[LayeredDecomposition]) -> "InstanceLayout":
        """Merge per-network layered decompositions (``Gk = U_q G(q)_k``)."""
        group_of: Dict[InstanceId, int] = {}
        pi: Dict[InstanceId, Tuple[EdgeKey, ...]] = {}
        n_epochs = 0
        for dec in decompositions:
            group_of.update(dec.group_of)
            pi.update(dec.pi)
            n_epochs = max(n_epochs, dec.length)
        return InstanceLayout(group_of=group_of, pi=pi, n_epochs=n_epochs)


@dataclass
class PhaseCounters:
    """Work and communication accounting for one two-phase run."""

    epochs: int = 0
    stages: int = 0
    steps: int = 0
    raises: int = 0
    mis_rounds: int = 0
    #: max steps observed in any single (epoch, stage) -- Lemma 5.1's L.
    max_steps_per_stage: int = 0
    #: communication rounds: per step, Time(MIS) + 1 round to broadcast the
    #: new dual values; phase 2 costs one announcement round per stack entry.
    phase2_rounds: int = 0
    #: satisfaction evaluations made by the first phase -- the reference
    #: engine pays steps x group ``DualState.is_satisfied`` calls per
    #: stage, the incremental engine one due-stage evaluation per member
    #: per epoch plus one per dirty-set recheck.
    satisfaction_checks: int = 0
    #: (epoch, stage) pairs the engine worked in.  The reference and
    #: columnar engines enter every stage of a non-empty epoch; the
    #: incremental engine jumps straight to the stages some member
    #: fails, so only stages with at least one raise are entered.
    stages_entered: int = 0
    #: adjacency entries materialized or mutated while preparing each
    #: step's restricted conflict graph, each counted as entry plus
    #: neighbor-set size.  The reference engine counts every unsatisfied
    #: member's global neighbor set per step; the incremental engine
    #: counts each entry of the graph a stage builds on its unsatisfied
    #: members (neighbors restricted to them) plus each entry it drops
    #: as a member satisfies; the columnar kernel, which builds no
    #: adjacency, counts one per unsatisfied row at stage entry and one
    #: per retired row.
    adjacency_touches: int = 0
    #: Second-phase work accounting: fits-checks attempted, instances
    #: admitted, and instances rejected during the stack pop.
    #: Engine-independent, but kept out of the default semantic tuple so
    #: golden digests recorded before these fields existed stay stable.
    admission_checks: int = 0
    admitted: int = 0
    rejected: int = 0

    @property
    def communication_rounds(self) -> int:
        """Total synchronous rounds of the simulated distributed run."""
        return self.mis_rounds + self.steps + self.phase2_rounds

    #: Fields that must be identical across engines for the same run.
    #: ``satisfaction_checks``/``stages_entered``/``adjacency_touches``
    #: measure *engine* work, so they are not part of the semantic
    #: artifact.
    SEMANTIC_FIELDS = (
        "epochs", "stages", "steps", "raises", "mis_rounds",
        "max_steps_per_stage", "phase2_rounds",
    )

    #: Second-phase admission fields: semantic, but only folded into
    #: :meth:`semantic_tuple` on request (compat guard -- digests
    #: recorded before these fields existed must keep verifying).
    ADMISSION_FIELDS = ("admission_checks", "admitted", "rejected")

    def semantic_tuple(self, include_admission: bool = False) -> Tuple[int, ...]:
        """The engine-independent schedule counters, for equivalence checks."""
        fields = self.SEMANTIC_FIELDS
        if include_admission:
            fields = fields + self.ADMISSION_FIELDS
        return tuple(getattr(self, f) for f in fields)


FirstPhaseArtifacts = Tuple[
    DualState, List[List[DemandInstance]], List[RaiseEvent], PhaseCounters
]


def stall_error(epoch: int, stage_no: int, n_members: int) -> RuntimeError:
    """A progress-guard failure: the MIS oracle stopped satisfying members."""
    return RuntimeError(
        f"first phase made no progress in epoch {epoch}, stage {stage_no}: "
        f"exceeded {n_members} steps for a group of {n_members} members "
        "(each step must tau-satisfy at least one instance; the MIS oracle "
        "is returning empty or non-raising sets)"
    )


def group_members(
    instances: Sequence[DemandInstance], layout: InstanceLayout
) -> Dict[int, List[DemandInstance]]:
    """Bucket *instances* into epoch groups, preserving input order."""
    groups: Dict[int, List[DemandInstance]] = {}
    for d in instances:
        groups.setdefault(layout.group_of[d.instance_id], []).append(d)
    return groups
