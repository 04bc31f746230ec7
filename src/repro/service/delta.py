"""Delta-solve support: delta telemetry, the delta key, problem diffs,
and debounced change storms.

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
network table, keyed by each network's id and ordered adjacency.
Warm and cold requests run the same solve, so their answers are
bit-identical by construction.  A delta request's result only adds
:class:`DeltaStats`: whether every network carried a memo for the
solve, and how many adopted one.

**Delta key.**  :func:`delta_key` digests the solve knobs and each
network's key -- its typed id and ordered adjacency, the bytes that
also key the network table -- in id order, with the demand side left
out entirely.  Every demand-level mutation (add, drop, profit/height
change) preserves it, so the snapshots of a churn trajectory that
leave the networks alone share one key, and only snapshots over the
same networks do.  The serving path does not read it: it buckets
change storms in the async front door's :class:`ChangeDebouncer`.

**Diff.**  :func:`diff_problems` compares demand records by id
(content + access set) and networks by id.  Nothing on the
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
from hashlib import sha256
from typing import Awaitable, Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.canonical import canonical_bytes
from repro.core.problem import Problem
from repro.service.fingerprint import (
    SolveKnobs,
    _demand_entry,
    _network_entry,
    _solve_suffix,
)

__all__ = [
    "ChangeDebouncer",
    "DELTA_OUTCOMES",
    "DeltaStats",
    "ProblemDelta",
    "delta_key",
    "diff_problems",
]

#: v2 keys each network's id and ordered adjacency; v1 keyed the sorted
#: id-free network shapes, which two problems whose differently shaped
#: networks swapped ids shared.
_DELTA_KEY_TAG = "delta-key/v2"
#: The constant opening of the encoded delta-key tuple.
_DELTA_HEAD = b"t(" + canonical_bytes(_DELTA_KEY_TAG) + b"t("

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


def delta_key(problem: Problem, knobs: SolveKnobs) -> str:
    """A change storm's debounce bucket in the async front door: the
    SHA-256 of ``canonical_bytes((_DELTA_KEY_TAG, network payloads in
    id order, knobs.canonical_form()))``, joined from the bytes each
    network and the knobs memoize (see
    :mod:`repro.service.fingerprint`).

    Folding the knobs in gives each knob setting buckets of its own, so
    a trajectory served under two settings debounces per setting.
    """
    networks = problem.networks
    state = sha256(_DELTA_HEAD)
    state.update(
        b"".join([_network_entry(networks[nid]) for nid in sorted(networks)])
    )
    state.update(b")")
    state.update(_solve_suffix(knobs))
    return state.hexdigest()


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
    encoded content *or* its set of accessed networks differs, and a
    network when its ordered adjacency does.  Nothing is expanded into
    instances.
    """
    # Identity fast-paths throughout: trajectory snapshots share the
    # objects a mutation did not rebuild, access tuples included, so
    # ``is`` dodges the comparisons for everything untouched -- the
    # diff then costs O(delta) encodings, not O(problem).  (A
    # rebuilt-but-equal object still compares correctly through its
    # memoized bytes.)
    networks_changed = old.networks.keys() != new.networks.keys() or any(
        old.networks[nid] is not new.networks[nid]
        and _network_entry(old.networks[nid])
        != _network_entry(new.networks[nid])
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
        return _demand_entry(old_d) != _demand_entry(new_d)

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
        self._pending: Dict[Hashable, _Pending] = {}
        self.storms_coalesced = 0
        self.flushes = 0

    def __len__(self) -> int:
        return len(self._pending)

    async def submit(self, key: Hashable, request) -> object:
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

    async def _timer(self, key: Hashable) -> None:
        await asyncio.sleep(self.delay)
        await self._fire(key)

    async def _fire(self, key: Hashable) -> None:
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
