"""Schedule-diff egress: push O(changed cells), not O(solution).

A subscribed client tracking a re-solved schedule does not need the
whole solution on every update -- churn perturbs a handful of demands,
and the re-solved schedule usually shares almost every *cell* with the
previous one.  This module is the egress half of that observation, the
``scheduleDistributor.py`` pattern from openwsn's network manager: keep
the last table pushed to each subscriber, diff old vs new, and transmit
only the added and removed cells -- with a digest handshake so
"applying the delta reproduces the full result" is *verified*, never
assumed, and a full-sync escape hatch for the first push, an explicit
client request, or any verification failure.

**Tables.**  :func:`schedule_table` flattens a served
:class:`~repro.algorithms.base.AlgorithmReport` into its *schedule
table*: one row ("cell") per selected demand instance --
``[instance_id, demand_id, network_id, profit, height]`` -- sorted by
instance id.  Rows are plain JSON scalars, so a table survives a wire
round-trip byte-exactly after :func:`normalize_table` (JSON turns
tuples into lists; normalization re-coerces row shape and numeric
types, so both ends digest the same value).

**Deltas.**  :func:`diff_tables` takes the cells only in the old table
as ``removed`` and those only in the new one as ``added``, each sorted
(openwsn diffs its slotframe tables into the same two lists of cells to
retract and install).  The delta carries the digest of the base
table it applies to and of the target table it must produce;
:func:`apply_delta` refuses a mismatched base (the client diverged --
re-sync) and verifies the applied result against the target digest.

**Per-subscriber state.**  :class:`SchedulePusher` is the
per-connection egress book-keeper of
:class:`~repro.service.async_front.LineServer`, so of the async front
door and the shard router alike: ``push(sub, table)`` returns the wire
payload -- ``{"mode": "full", ...}`` on first contact, forced sync, or
self-verification failure; ``{"mode": "delta", ...}`` otherwise -- and
:class:`ScheduleFollower` is the client-side mirror that applies
payloads and enforces the digest handshake (the bench's churn
subscriber and the tests drive it).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import AlgorithmReport
from repro.core.canonical import stable_digest

__all__ = [
    "DeltaSyncError",
    "ScheduleDelta",
    "ScheduleFollower",
    "SchedulePusher",
    "apply_delta",
    "diff_tables",
    "normalize_table",
    "schedule_table",
    "table_digest",
]

#: Version tag folded into every table digest, mirroring the
#: fingerprint tags: a layout change can never alias an old digest.
_TABLE_TAG = "schedule-table/v1"

#: One schedule cell: (instance_id, demand_id, network_id, profit, height).
Cell = Tuple[int, int, int, float, float]


class DeltaSyncError(RuntimeError):
    """A schedule delta could not be applied verifiably.

    Raised when the client's base table does not match the delta's
    recorded base digest (the subscriber diverged -- request a full
    sync) or when the applied result fails the target-digest check.
    """


def schedule_table(report: AlgorithmReport) -> List[Cell]:
    """The served solution as a sorted list of schedule cells.

    Composite reports already carry their merged solution on
    ``report.solution`` (the same object
    :func:`~repro.service.cache.report_semantic_form` digests), so one
    flattening covers every algorithm family.
    """
    return [
        (
            int(d.instance_id),
            int(d.demand_id),
            int(d.network_id),
            float(d.profit),
            float(d.height),
        )
        for d in sorted(report.solution.selected, key=lambda d: d.instance_id)
    ]


def normalize_table(table: Sequence[Sequence]) -> Tuple[Cell, ...]:
    """Coerce wire rows back into canonical cell tuples, sorted.

    JSON degrades tuples to lists and is type-loose about numbers; the
    digest is not.  Every digest and diff in this module goes through
    this normalization, so a table that crossed the wire digests
    identically to the one that was flattened server-side.
    """
    cells = []
    for row in table:
        if len(row) != 5:
            raise DeltaSyncError(
                f"malformed schedule cell {row!r}: expected 5 fields"
            )
        cells.append(
            (int(row[0]), int(row[1]), int(row[2]), float(row[3]), float(row[4]))
        )
    return tuple(sorted(cells))


def table_digest(table: Sequence[Sequence]) -> str:
    """Stable digest of a (normalized) schedule table."""
    return stable_digest((_TABLE_TAG, normalize_table(table)))


@dataclass(frozen=True)
class ScheduleDelta:
    """The add/remove cells taking one schedule table to another."""

    base_digest: str
    target_digest: str
    added: Tuple[Cell, ...]
    removed: Tuple[Cell, ...]

    @property
    def cells_changed(self) -> int:
        """Total cells on the wire -- the O(delta) egress measure."""
        return len(self.added) + len(self.removed)

    def to_wire(self) -> dict:
        """The JSON payload of a delta push."""
        return {
            "mode": "delta",
            "base_digest": self.base_digest,
            "table_digest": self.target_digest,
            "added": [list(c) for c in self.added],
            "removed": [list(c) for c in self.removed],
        }


def diff_tables(
    old: Sequence[Sequence], new: Sequence[Sequence]
) -> ScheduleDelta:
    """Diff two schedule tables into add/remove cells.

    Rows are unique (instance ids are), so the delta is two sorted set
    differences: the cells to retract and the cells to install.
    """
    old_n, new_n = normalize_table(old), normalize_table(new)
    return ScheduleDelta(
        base_digest=table_digest(old_n),
        target_digest=table_digest(new_n),
        added=tuple(sorted(set(new_n).difference(old_n))),
        removed=tuple(sorted(set(old_n).difference(new_n))),
    )


def apply_delta(
    table: Sequence[Sequence], delta: ScheduleDelta
) -> Tuple[Cell, ...]:
    """Apply *delta* to *table*; verified on both ends.

    Raises :class:`DeltaSyncError` when the base table does not digest
    to the delta's recorded base (the subscriber diverged), when a
    retraction names an absent cell or an installation a present one,
    or when the applied result fails the target-digest check.  A caller
    catching it should fall back to a full sync -- never trust a table
    it cannot verify.
    """
    base = normalize_table(table)
    if table_digest(base) != delta.base_digest:
        raise DeltaSyncError(
            "delta base mismatch: subscriber table diverged from the "
            "pusher's record (request a full sync)"
        )
    cells = set(base)
    for cell in delta.removed:
        if cell not in cells:
            raise DeltaSyncError(f"delta removes absent cell {cell!r}")
        cells.discard(cell)
    for cell in delta.added:
        if cell in cells:
            raise DeltaSyncError(f"delta adds already-present cell {cell!r}")
        cells.add(cell)
    applied = tuple(sorted(cells))
    if table_digest(applied) != delta.target_digest:
        raise DeltaSyncError(
            "applied delta failed target-digest verification"
        )
    return applied


def _delta_from_wire(payload: dict) -> ScheduleDelta:
    return ScheduleDelta(
        base_digest=payload["base_digest"],
        target_digest=payload["table_digest"],
        added=normalize_table(payload.get("added", ())),
        removed=normalize_table(payload.get("removed", ())),
    )


@dataclass(eq=False)
class SchedulePusher:
    """Per-connection egress state: subscription key -> last table.

    ``push`` is the one entry point; it decides full-vs-delta, records
    the pushed table as the subscriber's new base, and *self-verifies*
    every delta (applies it to the recorded base and digest-checks the
    result) before letting it on the wire -- a delta that cannot be
    proven to reproduce the full table degrades to a full sync instead
    of desynchronizing the subscriber.  Counters feed the stats surface
    and bench E22's egress accounting.
    """

    _tables: Dict[str, Tuple[Cell, ...]] = field(default_factory=dict)
    full_syncs: int = 0
    delta_pushes: int = 0
    cells_pushed: int = 0
    verify_fallbacks: int = 0

    def __len__(self) -> int:
        return len(self._tables)

    def _full(self, sub: str, table: Tuple[Cell, ...]) -> dict:
        self._tables[sub] = table
        self.full_syncs += 1
        self.cells_pushed += len(table)
        return {
            "mode": "full",
            "table": [list(c) for c in table],
            "table_digest": table_digest(table),
        }

    def push(
        self, sub: str, table: Sequence[Sequence], full_sync: bool = False
    ) -> dict:
        """The wire payload for this subscriber's next update."""
        new = normalize_table(table)
        last = self._tables.get(sub)
        if last is None or full_sync:
            return self._full(sub, new)
        delta = diff_tables(last, new)
        try:
            apply_delta(last, delta)
        except DeltaSyncError:
            # Should be unreachable (the diff is constructed from the
            # recorded base), but the escape hatch is the contract: a
            # delta that fails self-verification never ships.
            self.verify_fallbacks += 1
            return self._full(sub, new)
        self._tables[sub] = new
        self.delta_pushes += 1
        self.cells_pushed += delta.cells_changed
        return delta.to_wire()

    def forget(self, sub: str) -> None:
        """Drop a subscriber's base (its next push is a full sync)."""
        self._tables.pop(sub, None)

    def stats_snapshot(self) -> dict:
        return {
            "subscriptions": len(self._tables),
            "full_syncs": self.full_syncs,
            "delta_pushes": self.delta_pushes,
            "cells_pushed": self.cells_pushed,
            "verify_fallbacks": self.verify_fallbacks,
        }


@dataclass
class ScheduleFollower:
    """Client-side mirror of one subscription: applies push payloads.

    ``apply(payload)`` returns the current table after the update,
    enforcing the digest handshake on every step; ``DeltaSyncError``
    means the follower must request a full sync (``full_sync: true`` on
    its next request).  Used by tests and bench E22's churn subscriber;
    real non-Python clients implement the same dozen lines.
    """

    table: Optional[Tuple[Cell, ...]] = None
    deltas_applied: int = 0
    full_syncs_seen: int = 0

    def apply(self, payload: dict) -> Tuple[Cell, ...]:
        mode = payload.get("mode")
        if mode == "full":
            table = normalize_table(payload["table"])
            if table_digest(table) != payload["table_digest"]:
                raise DeltaSyncError("full sync failed its digest check")
            self.table = table
            self.full_syncs_seen += 1
            return table
        if mode != "delta":
            raise DeltaSyncError(f"unknown push mode {mode!r}")
        if self.table is None:
            raise DeltaSyncError("delta push before any full sync")
        self.table = apply_delta(self.table, _delta_from_wire(payload))
        self.deltas_applied += 1
        return self.table
