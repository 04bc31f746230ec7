"""First-phase journals: recorded epochs, replay certification, warm starts.

The delta-solve path (:mod:`repro.service.delta`) re-solves a *perturbed*
problem by warm-starting from the journal of an earlier solve.  The
certification argument deliberately does **not** rest on the problem
diff -- diffs mark which epochs are *expected* dirty, nothing more.
What makes a replayed epoch safe is **input-signature equality**:

* an epoch of the incremental engine is a pure function of its group
  members (content, ids, critical edges), the dual values *visible* to
  it (``alpha`` over member demand ids, ``beta`` over member path
  edges), its epoch coordinate, and the phase configuration
  (thresholds, raise rule, and a bundled MIS oracle's family + seed;
  a custom oracle's epochs never replay, see :func:`phase_config`);
* :func:`epoch_signature` captures exactly those inputs, with floats
  encoded via ``float.hex`` so equality is bitwise;
* by induction over epochs: if every earlier epoch's writes were
  reproduced exactly (replayed from a record whose signature matched,
  or re-run fresh), the master dual before epoch ``k`` equals a cold
  run's -- so a signature match at epoch ``k`` proves the cold run
  would behave identically, and replaying the recorded raise events
  (mirroring :meth:`~repro.core.dual.RaiseRule.apply` write-for-write)
  *is* running the epoch.

Epochs whose signature does not match simply re-run through
:func:`~repro.core.engines.incremental.run_epoch_incremental`; there is
no uncertifiable intermediate state and no "verify after the fact"
step -- the delta result is bit-identical to a cold solve by
construction.  The per-epoch MIS substream isolation
(:func:`repro.distributed.mis.luby_substream_seed`) is what makes
skipping an epoch safe for the randomized oracle: a replayed epoch
never consumes draws a later epoch would have seen.

Only the first phase is journaled.  The second phase
(:func:`~repro.core.engines.admission.run_second_phase`) is a cheap
pure function of the stack, so a delta solve simply re-pops it.

A journal is installed around a solve with :func:`journal_context`
(a ``contextvars`` scope, so concurrent service solves on different
threads never share one); the incremental engine checks
:func:`active_journal` and, when one is installed, wraps each epoch in
a signature check, a replay or a record.
"""
from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.demand import DemandInstance
from repro.core.dual import DualState, RaiseEvent, RaiseRule
from repro.core.engines.artifacts import InstanceLayout, PhaseCounters
from repro.distributed.mis import (
    HashLubyOracle,
    LubyOracle,
    MISOracle,
    greedy_mis,
)

__all__ = [
    "EpochRecord",
    "FirstPhaseJournal",
    "PhaseLog",
    "SolveJournal",
    "active_journal",
    "epoch_signature",
    "journal_context",
    "phase_config",
    "predict_dirty_epochs",
]

#: Version tags: a change to either layout makes old records unmatchable
#: (a stale record can only ever cost a re-run, never a wrong replay).
_SIG_TAG = "epoch-sig/v1"
_CONFIG_TAG = "phase-config/v1"


@dataclass(frozen=True)
class EpochRecord:
    """One epoch's certified inputs and recorded outputs.

    ``signature`` is :func:`epoch_signature` at the moment the epoch
    started; ``events``/``stack`` are its raise log and MIS batches
    (``order`` fields are renumbered on replay, everything else is
    replayed verbatim); ``counters`` is the *per-epoch* work account,
    folded into the global counters exactly like an epoch that ran
    (:meth:`~repro.core.engines.artifacts.PhaseCounters.fold_phase1`).
    Treat records as immutable: a replayed record is re-linked, shared,
    into the fresh journal.
    """

    signature: Tuple
    events: Tuple[RaiseEvent, ...]
    stack: Tuple[Tuple[DemandInstance, ...], ...]
    counters: PhaseCounters


@dataclass
class PhaseLog:
    """The records of one ``run_first_phase`` call (one solve may run
    several: composite wide/narrow algorithms solve per part)."""

    config: Tuple
    records: Dict[int, EpochRecord] = field(default_factory=dict)


@dataclass
class SolveJournal:
    """Every first phase of one solve, in call order.

    Layout work is not journaled: decompositions and layerings depend on
    the networks alone and are memoized on the network objects
    (:class:`~repro.trees.tree.NetworkMemo`), which a churn snapshot
    shares with its ancestor.
    """

    phases: List[PhaseLog] = field(default_factory=list)


def phase_config(
    layout: InstanceLayout,
    raise_rule: RaiseRule,
    thresholds: Sequence[float],
    mis_oracle: MISOracle,
) -> Tuple:
    """The phase-level inputs an :class:`EpochRecord` is only valid under.

    The bundled oracles (``greedy_mis``, :class:`LubyOracle`,
    :class:`HashLubyOracle`) are pure functions of (seed, epoch
    substream, candidates, context), so family + seed pins their draws
    and is their tag.  Any other oracle may carry state no tag can see
    (two instances of one class can pick differently), so it gets a
    fresh ``object()`` that equals no other config: its epochs are
    recorded but always re-run, never replayed.
    """
    if mis_oracle is greedy_mis:
        oracle_tag: object = ("greedy_mis", None)
    elif type(mis_oracle) in (LubyOracle, HashLubyOracle):
        oracle_tag = (type(mis_oracle).__name__, mis_oracle.seed)
    else:
        oracle_tag = object()
    return (
        _CONFIG_TAG,
        layout.n_epochs,
        tuple(float(t).hex() for t in thresholds),
        type(raise_rule).__name__,
        bool(raise_rule.use_alpha),
        bool(raise_rule.use_height_rule),
        oracle_tag,
    )


def epoch_signature(
    members: Sequence[DemandInstance],
    dual: DualState,
    layout: InstanceLayout,
) -> Tuple:
    """Everything epoch behaviour depends on, as a comparable tuple.

    Covers the members' full content (ids, endpoints, profit/height as
    exact hex floats, path, start slot) plus their critical-edge tuples
    from the layout, and the dual entries the epoch can *read*:
    ``alpha`` over member demand ids and ``beta`` over member path
    edges, both restricted to keys actually present.  Keys absent from
    both runs contribute nothing either way (``dict.get(..., 0.0)``),
    so restricting to present keys is exact, and insertion order of the
    dual dicts is irrelevant here -- reads are by key.
    """
    member_sig = tuple(
        (
            d.instance_id,
            d.demand_id,
            d.network_id,
            d.u,
            d.v,
            float(d.profit).hex(),
            float(d.height).hex(),
            tuple(sorted(d.path_edges)),
            tuple(d.path_vertex_seq),
            d.start_slot,
            layout.pi[d.instance_id],
        )
        for d in members
    )
    alpha, beta = dual.alpha, dual.beta
    demand_ids = sorted({d.demand_id for d in members})
    alpha_sig = tuple((a, alpha[a].hex()) for a in demand_ids if a in alpha)
    edges = sorted({e for d in members for e in d.path_edges})
    beta_sig = tuple((e, beta[e].hex()) for e in edges if e in beta)
    return (_SIG_TAG, member_sig, alpha_sig, beta_sig)


def predict_dirty_epochs(
    plan,
    touched_demands: FrozenSet,
    touched_edges: FrozenSet,
) -> Set[int]:
    """Epochs a perturbation is *expected* to dirty, via the plan's
    reverse indices and interaction graph.

    An epoch is directly dirty when its group touches a perturbed
    demand or edge (the per-epoch
    :class:`~repro.distributed.conflict.InstanceIndex` buckets); dirt
    then flows forward through :attr:`~repro.core.plan.EpochPlan.interactions`
    in ascending epoch order, since a dirty epoch's changed writes can
    only influence epochs that share a dual variable with it.  This is
    telemetry and a bail heuristic -- replay safety comes from
    :func:`epoch_signature`, which is checked for every epoch
    regardless (``prediction_misses`` counts where the two disagree).
    """
    if not touched_demands and not touched_edges:
        return set()
    dirty: Set[int] = set()
    for epoch in sorted(plan.members):
        idx = plan.index[epoch]
        direct = any(a in idx.by_demand for a in touched_demands) or any(
            e in idx.by_edge for e in touched_edges
        )
        inherited = any(
            j in dirty for j in plan.interactions.get(epoch, ()) if j < epoch
        )
        if direct or inherited:
            dirty.add(epoch)
    return dirty


@dataclass
class FirstPhaseJournal:
    """The live journal of one (possibly warm-started) solve.

    ``ancestor`` holds the recorded journal of the solve to warm-start
    from (``None`` records cold); ``touched_demands``/``touched_edges``
    are the perturbation sets from the problem diff, used only for the
    dirty-epoch *prediction*.  ``journal`` accumulates this solve's own
    records -- replayed epochs re-link the ancestor's record objects --
    so a chain of delta solves always has a complete, current journal
    to hand to the next mutation.  It holds no layouts: those come from
    the network memos, and the journal only counts, in
    ``layouts_reused``, the networks whose memo served a whole layout.
    """

    ancestor: Optional[SolveJournal] = None
    touched_demands: FrozenSet = frozenset()
    touched_edges: FrozenSet = frozenset()
    journal: SolveJournal = field(default_factory=SolveJournal)
    # Telemetry, accumulated across the solve's phases.
    phases: int = 0
    epochs_replayed: int = 0
    epochs_rerun: int = 0
    predicted_dirty: int = 0
    prediction_misses: int = 0
    #: Networks whose layout needed no new decomposition and no new
    #: path layering (counted by the layout builders of
    #: :mod:`repro.algorithms.base`).
    layouts_reused: int = 0

    def begin_phase(
        self, config: Tuple, plan
    ) -> Tuple[Optional[PhaseLog], PhaseLog, Set[int]]:
        """Open the next phase: returns ``(ancestor phase or None, the
        fresh log to record into, the predicted-dirty epoch set)``.

        Ancestor phases are matched by call ordinal *and* config
        equality -- a solve whose phase structure diverged from its
        ancestor's (the wide/narrow split changed shape) degrades to
        re-running, which is always correct.
        """
        ordinal = len(self.journal.phases)
        self.phases += 1
        log = PhaseLog(config=config)
        self.journal.phases.append(log)
        predicted = predict_dirty_epochs(
            plan, self.touched_demands, self.touched_edges
        )
        self.predicted_dirty += len(predicted)
        past: Optional[PhaseLog] = None
        if self.ancestor is not None and ordinal < len(self.ancestor.phases):
            candidate = self.ancestor.phases[ordinal]
            if candidate.config == config:
                past = candidate
        return past, log, predicted


_ACTIVE: "contextvars.ContextVar[Optional[FirstPhaseJournal]]" = (
    contextvars.ContextVar("repro_first_phase_journal", default=None)
)


def active_journal() -> Optional[FirstPhaseJournal]:
    """The journal installed for the current context, if any."""
    return _ACTIVE.get()


@contextmanager
def journal_context(journal: FirstPhaseJournal):
    """Install *journal* for the duration of a solve call.

    ``contextvars`` scoping: each service worker thread solving
    concurrently sees only its own journal, and nested solves within
    one call (composite wide/narrow parts) share it -- which is what
    the phase-ordinal matching in :meth:`FirstPhaseJournal.begin_phase`
    relies on.
    """
    token = _ACTIVE.set(journal)
    try:
        yield journal
    finally:
        _ACTIVE.reset(token)
