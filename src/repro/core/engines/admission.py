"""The second phase: the reversed-stack greedy pop and its journal.

The second phase of the framework pops the first phase's MIS stack in
reverse and greedily admits every instance that keeps the solution
feasible (:class:`~repro.core.solution.CapacityLedger`).  The pop here
is byte-for-byte the historical ``run_second_phase`` loop -- the
executable specification -- plus an account of the admission work it
did.

Journal integration (delta serving)
-----------------------------------

When a :class:`~repro.core.engines.journal.FirstPhaseJournal` is
installed (the service's delta path), :func:`run_second_phase` pops
each *capacity-disjoint component* of the stack on its own
(:func:`stack_components`: union-find over shared path edges and shared
demand ids) and records one
:class:`~repro.core.engines.journal.AdmissionRecord` per component --
its input signature (member content in pop order, the restricted dual
digest, the capacity configuration) and its selected ids -- into the
solve's :class:`~repro.core.engines.journal.SolveJournal`.  Components
share no capacity constraint and no demand, so the union of the
per-component pops *is* the global pop: the reference pop admits
instance ``d`` iff its demand is unused and every edge of ``path(d)``
has residual capacity -- state that lives entirely inside ``d``'s
component, whose pop visits its members in the global pop's relative
order -- and :meth:`Solution.from_instances` sorts by instance id,
which collapses any merge-order difference.

A later delta solve replays the selections of every component whose
signature still matches its ancestor's and re-pops only the dirty ones,
with the same certify-vs-rerun parity as the first-phase epoch replay:
a signature match proves the cold pop would have made identical
decisions, so replaying *is* running.
``repro_admission_components_total`` / ``repro_admission_replayed_total``
count that work in the process telemetry registry (always-on, like the
backend wave counters).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.demand import DemandInstance
from repro.core.dual import DualState
from repro.core.engines.artifacts import PhaseCounters
from repro.core.engines.journal import (
    AdmissionRecord,
    active_journal,
    admission_config,
    admission_signature,
)
from repro.core.solution import CapacityLedger, Solution
from repro.core.types import InstanceId
from repro.obs.metrics import default_registry

__all__ = [
    "AdmissionComponent",
    "run_second_phase",
    "stack_components",
]

Stack = Sequence[Sequence[DemandInstance]]


# ----------------------------------------------------------------------
# Capacity-disjoint components of a stack
# ----------------------------------------------------------------------


@dataclass
class AdmissionComponent:
    """One capacity-disjoint slice of a stack.

    ``key`` is the smallest member instance id -- the stable identity
    the journal records components under (positions shift when churn
    merges or splits components; the smallest-id key makes unrelated
    components collide as rarely as possible, and a collision only ever
    costs a re-pop, never a wrong replay).  ``batches`` is the stack
    restricted to the component's members, empty batches dropped, in
    original stack order -- popping it reversed reproduces exactly the
    reference loop's visit order for these members.
    """

    key: InstanceId
    batches: List[List[DemandInstance]]


def stack_components(stack: Stack) -> List[AdmissionComponent]:
    """Partition *stack*'s instances into capacity-disjoint components.

    Union-find over the conflict relation the admission loop actually
    consults: two instances interact iff they share a path edge (edge
    capacity) or a demand id (one-instance-per-demand).  Instances in
    different components therefore read and write disjoint ledger
    state, which is what makes per-component admission exact.
    Components are ordered by ascending smallest member id.
    """
    parent: Dict[InstanceId, InstanceId] = {}

    def find(i: InstanceId) -> InstanceId:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    def union(a: InstanceId, b: InstanceId) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            # Smaller root wins, so a component's root is its key.
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    demand_owner: Dict[object, InstanceId] = {}
    edge_owner: Dict[object, InstanceId] = {}
    for batch in stack:
        for d in batch:
            i = d.instance_id
            if i not in parent:
                parent[i] = i
            union(i, demand_owner.setdefault(d.demand_id, i))
            for e in d.path_edges:
                union(i, edge_owner.setdefault(e, i))

    # One pass over the stack assigns every occurrence to its
    # component's sub-stack, preserving batch order and within-batch
    # input order (the per-component pop re-sorts by id exactly like
    # the reference loop does).
    per_root: Dict[InstanceId, List[List[DemandInstance]]] = {}
    for batch in stack:
        touched: Dict[InstanceId, List[DemandInstance]] = {}
        for d in batch:
            touched.setdefault(find(d.instance_id), []).append(d)
        for root, sub in touched.items():
            per_root.setdefault(root, []).append(sub)
    return [
        AdmissionComponent(key=root, batches=per_root[root])
        for root in sorted(per_root)
    ]


# ----------------------------------------------------------------------
# Reference pop (the executable specification)
# ----------------------------------------------------------------------


def _pop_reference(stack: Stack) -> Tuple[List[DemandInstance], int]:
    """The literal reversed-stack greedy pop; returns (selected, checks).

    Byte-for-byte the historical ``run_second_phase`` loop -- the only
    addition is the candidate count, one per (batch, instance) visit.
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
    return selected, checks


# ----------------------------------------------------------------------
# Journaled pop (record per component, replay certified ones)
# ----------------------------------------------------------------------


def _run_second_phase_journaled(
    stack: Stack,
    dual: Optional[DualState],
    journal,
) -> Tuple[List[DemandInstance], int]:
    """Record/replay admission per component; returns
    ``(selected, checks)``.

    Mirrors the first-phase journaled runner: each component's inputs
    are captured by :func:`~repro.core.engines.journal.admission_signature`
    (member content in pop order, restricted dual digest, capacity
    config); a component whose ancestor record carries the same
    signature replays its recorded selection -- by construction the
    cold pop's exact output, since greedy admission is a pure function
    of exactly the signed inputs -- and everything else re-pops fresh.
    Both outcomes are recorded into the fresh journal, so every delta
    solve hands a complete admission log to the next one.  Dirty
    components re-pop inline on the calling thread: the latency win of
    a delta solve is the replay, not pop parallelism.
    """
    components = stack_components(stack)
    past, log = journal.begin_admission(admission_config())
    selected: List[DemandInstance] = []
    checks = 0
    replayed = 0
    for component in components:
        signature = admission_signature(component.batches, dual)
        record = past.records.get(component.key) if past is not None else None
        if record is not None and record.signature == signature:
            by_id = {
                d.instance_id: d
                for batch in component.batches
                for d in batch
            }
            selected.extend(by_id[i] for i in record.selected_ids)
            checks += record.checks
            journal.admission_replayed += 1
            replayed += 1
        else:
            sel, comp_checks = _pop_reference(component.batches)
            selected.extend(sel)
            checks += comp_checks
            journal.admission_rerun += 1
            record = AdmissionRecord(
                signature=signature,
                selected_ids=tuple(d.instance_id for d in sel),
                checks=comp_checks,
            )
        log.records[component.key] = record
    journal.admission_components += len(components)
    _record_admission(len(components), replayed)
    return selected, checks


def _record_admission(components: int, replayed: int) -> None:
    """Fold one second phase into the process-default registry
    (always-on, following the backend wave-counter precedent)."""
    registry = default_registry()
    if components:
        registry.counter("repro_admission_components_total").inc(components)
    if replayed:
        registry.counter("repro_admission_replayed_total").inc(replayed)


def run_second_phase(
    stack: Stack,
    dual: Optional[DualState] = None,
    counters: Optional[PhaseCounters] = None,
) -> Solution:
    """Run the second phase: pop in reverse, admit greedily if feasible.

    ``dual`` is folded into the admission journal's component
    signatures when a journal is active; ``counters``, when given,
    receives the real admission work account (``phase2_rounds`` =
    non-empty batches popped, plus ``admission_checks`` / ``admitted``
    / ``rejected``).
    """
    journal = active_journal()
    if journal is not None:
        selected, checks = _run_second_phase_journaled(stack, dual, journal)
    else:
        selected, checks = _pop_reference(stack)
    if counters is not None:
        counters.phase2_rounds = sum(1 for batch in stack if batch)
        counters.admission_checks = checks
        counters.admitted = len(selected)
        counters.rejected = checks - len(selected)
    return Solution.from_instances(selected)
