"""Delta-solve support: delta telemetry, sketches, problem diffs, and
debounced change storms.

The delta path answers a *perturbed* problem -- one demand added, one
profit bumped -- with the same plain solve a cold request runs, and
:meth:`~repro.service.server.SchedulingService.submit_delta` travels
exactly :meth:`~repro.service.server.SchedulingService.submit`'s path.
What makes a churn write cheap is layout reuse: a network's tree
decompositions depend on the network alone (Lemma 4.1), and an
instance's group and critical edges on that decomposition and the
instance's path (Lemmas 4.2-4.3), so all of it is memoized on the
network object (:class:`~repro.trees.tree.NetworkMemo`).  A snapshot
that shares an earlier snapshot's network objects has those memos; a
rebuilt one (every wire request) adopts them through the service's
network table, keyed by each network's content.  Warm and cold
requests run the same solve, so their answers are bit-identical by
construction.  A delta request's result only adds :class:`DeltaStats`:
whether every network carried a memo for the solve, and how many
adopted one.

**Sketch.**  The sketch is the color-refinement prefix of the canonical
form: the sorted multiset of id-free network shapes, with the demand
side left out entirely.  Every demand-level mutation (add, drop,
profit/height change) preserves it, so all snapshots of a churn
trajectory that leave the networks alone share one sketch.  The
serving path no longer reads it: :func:`delta_key` (the sketch plus the
solve knobs) now only buckets change storms in the async front door's
:class:`ChangeDebouncer`.  Sketch equality is deliberately weak: two
genuinely different problems may collide, and a collision inside one
debounce window answers the earlier waiter with the later problem's
result, flagged ``superseded`` like any other storm member.

**Diff.**  :func:`diff_problems` compares demand records by id
(payload + access set) and network shapes by id.  Nothing on the
serving path calls it any more; it stays a library function.

**Debounce.**  :class:`ChangeDebouncer` coalesces change storms on the
async front door, the event-driven rescheduling shape of openwsn's
``networkManager``: rapid-fire mutations to one delta bucket collapse
into a single solve of the *latest* snapshot after a quiet period, and
every waiter gets that result -- earlier waiters' copies flagged
``superseded`` so a caller can tell its exact snapshot was skipped.
"""
from __future__ import annotations

import asyncio
import dataclasses
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro.core.canonical import stable_digest
from repro.core.problem import Problem
from repro.service.fingerprint import (
    SolveKnobs,
    _demand_entry,
    _network_entry,
    _sketch_digest,
)

__all__ = [
    "ChangeDebouncer",
    "DELTA_OUTCOMES",
    "DeltaStats",
    "ProblemDelta",
    "delta_key",
    "diff_problems",
    "problem_sketch",
]

_DELTA_KEY_TAG = "delta-key/v1"

#: The ways a delta request can resolve (``DeltaStats.outcome``):
#: ``"warm"`` -- every network of the request carried a memo for the
#: solve, its own or one adopted from the service's network table --
#: or ``"ancestor-miss"`` -- some network built its layouts from
#: scratch, or the service keeps no artifacts.  Every outcome runs the
#: same plain solve.  ``"network-change"``, ``"too-dirty"`` and
#: ``"engine-fallback"`` are retired and never emitted; they stay
#: listed because counters keyed by every name here still read them.
DELTA_OUTCOMES = (
    "warm",
    "ancestor-miss",
    "network-change",
    "too-dirty",
    "engine-fallback",
)


def problem_sketch(problem: Problem) -> str:
    """The demand-free structural sketch digest of *problem*.

    Sorted id-free network payloads only: invariant under every
    demand-level mutation *and* under network-id relabelings, so a
    trajectory's snapshots bucket together.  Weak by design -- see the
    module docstring for what a collision does.  The SHA-256 of the
    sorted payloads' canonical encoding, memoized on the problem
    (:func:`~repro.service.fingerprint._sketch_digest`): a problem
    already fingerprinted has it from the fingerprint's pass.
    """
    return _sketch_digest(problem)


def delta_key(problem: Problem, knobs: SolveKnobs) -> str:
    """A change storm's debounce bucket: sketch plus the solve-knob key.

    Folding the knobs in gives each knob setting buckets of its own, so
    a trajectory served under two settings debounces per setting.
    """
    return stable_digest(
        (_DELTA_KEY_TAG, problem_sketch(problem), knobs.canonical_form())
    )


@dataclass(frozen=True)
class ProblemDelta:
    """The id-level diff between an earlier problem and a new one."""

    #: Demand ids present only in the new / only in the old problem,
    #: and ids whose record (payload or access set) changed.
    added: Tuple[int, ...]
    removed: Tuple[int, ...]
    changed: Tuple[int, ...]
    #: Union of the three id sets.
    touched_demands: frozenset
    #: Any network added, removed, or reshaped (id-wise).
    networks_changed: bool


def diff_problems(old: Problem, new: Problem) -> ProblemDelta:
    """Diff two problems by demand id and network id.

    Demands are matched by id; a demand counts as changed when its
    id-free payload *or* its access tuple differs.  Nothing is
    expanded into instances.
    """
    # Identity fast-paths throughout: trajectory snapshots share the
    # objects a mutation did not rebuild, access tuples included, so
    # ``is`` dodges the comparisons for everything untouched -- the
    # diff then costs O(delta) payloads, not O(problem).  (A
    # rebuilt-but-equal object still compares correctly through its
    # memoized payload.)
    networks_changed = old.networks.keys() != new.networks.keys() or any(
        old.networks[nid] is not new.networks[nid]
        and _network_entry(old.networks[nid])[0]
        != _network_entry(new.networks[nid])[0]
        for nid in old.networks
    )
    old_by_id, new_by_id = old._demand_index, new._demand_index

    def demand_differs(i: int) -> bool:
        old_nets, new_nets = old.access[i], new.access[i]
        if old_nets is not new_nets and sorted(old_nets) != sorted(new_nets):
            return True
        old_d, new_d = old_by_id[i], new_by_id[i]
        if old_d is new_d:
            return False
        return _demand_entry(old_d)[0] != _demand_entry(new_d)[0]

    added = tuple(sorted(i for i in new_by_id if i not in old_by_id))
    removed = tuple(sorted(i for i in old_by_id if i not in new_by_id))
    changed = tuple(
        sorted(i for i in old_by_id if i in new_by_id and demand_differs(i))
    )
    return ProblemDelta(
        added=added,
        removed=removed,
        changed=changed,
        touched_demands=frozenset(added + removed + changed),
        networks_changed=networks_changed,
    )


@dataclass(frozen=True)
class DeltaStats:
    """Per-request delta telemetry, attached to the service result."""

    outcome: str
    #: Networks of this request that adopted a memo from the network
    #: table.  Zero when the request shares network objects that
    #: already carry memos, as an in-process churn stream does.
    networks_adopted: int = 0

    def snapshot(self) -> dict:
        """A plain-dict copy (wire responses, findings JSON)."""
        return {
            "outcome": self.outcome,
            "networks_adopted": self.networks_adopted,
        }

    def numeric_counters(self) -> dict:
        """The summable counters of this snapshot -- labels like
        ``outcome`` excluded, booleans too (they are ints
        to ``isinstance``).  This is the exact key set the service
        folds into ``stats["delta_totals"]`` and into the
        ``repro_delta_*_total`` metric counters, so a field added here
        starts accumulating in both without further wiring."""
        return {
            k: v
            for k, v in self.snapshot().items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }


@dataclass
class _Pending:
    """One debounce bucket: the latest snapshot wins, everyone waits."""

    latest: object
    waiters: List[asyncio.Future] = field(default_factory=list)
    timer: Optional[asyncio.Task] = None


class ChangeDebouncer:
    """Coalesce per-key change storms into one solve of the latest state.

    ``submit(key, request)`` parks the caller; the first submission for
    a key arms a *delay*-second timer, later submissions within the
    window replace the pending request (counting ``storms_coalesced``)
    and join the same wait.  When the timer fires -- or
    :meth:`flush_all` forces it, as the front door's drain does -- the
    *latest* request is solved once through the supplied async solve
    callable and fanned out to every waiter; all but the last waiter
    receive a copy flagged ``superseded=True``, since the result they
    got reflects a newer snapshot than the one they submitted.  A solve
    failure fans the exception out the same way.

    Single-event-loop discipline: all state is touched only from the
    owning loop, so no locks; the pop-then-solve in :meth:`_fire` is
    atomic with respect to new submissions (they simply open a fresh
    bucket, which is the correct storm boundary).
    """

    def __init__(
        self,
        delay: float,
        solve: Callable[[object], Awaitable[object]],
    ) -> None:
        if delay <= 0:
            raise ValueError(f"debounce delay must be positive, got {delay}")
        self.delay = delay
        self._solve = solve
        self._pending: Dict[str, _Pending] = {}
        self.storms_coalesced = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._pending)

    async def submit(self, key: str, request) -> object:
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        pending = self._pending.get(key)
        if pending is None:
            pending = _Pending(latest=request)
            pending.waiters.append(fut)
            self._pending[key] = pending
            pending.timer = loop.create_task(self._timer(key))
        else:
            self.storms_coalesced += 1
            pending.latest = request
            pending.waiters.append(fut)
        return await fut

    async def _timer(self, key: str) -> None:
        await asyncio.sleep(self.delay)
        await self._fire(key)

    async def _fire(self, key: str) -> None:
        pending = self._pending.pop(key, None)
        if pending is None:
            return
        if pending.timer is not None and pending.timer is not asyncio.current_task():
            pending.timer.cancel()
        self.flushes += 1
        try:
            result = await self._solve(pending.latest)
        except BaseException as exc:  # noqa: BLE001 -- fan out verbatim
            for fut in pending.waiters:
                if not fut.done():
                    fut.set_exception(exc)
            return
        last = len(pending.waiters) - 1
        for i, fut in enumerate(pending.waiters):
            if fut.done():
                continue
            if i == last:
                fut.set_result(result)
            else:
                fut.set_result(dataclasses.replace(result, superseded=True))

    async def flush_all(self) -> None:
        """Fire every pending bucket now (drain path); loops until even
        buckets opened *during* the flush have been served."""
        while self._pending:
            keys = list(self._pending)
            await asyncio.gather(*(self._fire(key) for key in keys))

    def stats_snapshot(self) -> dict:
        return {
            "pending": len(self._pending),
            "storms_coalesced": self.storms_coalesced,
            "flushes": self.flushes,
        }
