"""Two-tier, fingerprint-keyed result cache for the scheduling service.

Tier 1 is a bounded in-memory LRU (an ``OrderedDict`` in recency
order); tier 2 is an optional on-disk pickle directory that survives
process restarts and also acts as the overflow space for in-memory
evictions.  Both tiers are keyed by the full hex digest of a
:class:`~repro.service.fingerprint.Fingerprint`.

Entries are *verified*: when a value is admitted, its semantic digest
(:meth:`TwoPhaseResult.semantic_digest`, folded over the wide/narrow
parts of composite reports) is recorded next to it, and a disk entry
is re-checked against that digest after unpickling.  A mismatch --
bit rot, a partial write, a stale file from an incompatible version --
counts as a ``verify_failure``: the file is deleted and the lookup
degrades to a miss (or raises :class:`CacheIntegrityError`, naming the
offending fingerprint, under ``strict=True``).  A wrong cached answer
is the one failure mode a result cache must never have.

Entries can also *age out*: a cache constructed with ``ttl=`` (or a
``put``/``make_entry`` given a per-entry override) stamps each entry
with an absolute ``expires_at`` deadline on the cache's injectable
monotonic clock, and an expired entry is never served from either tier
-- a memory hit past its deadline is dropped, a disk hit past its
deadline is unlinked, both counting an ``expiration``.  For serving
problems whose ground truth mutates in bulk (link capacities re-planned
for the next epoch), entries carry an integer ``epoch`` tag and
:meth:`ResultCache.invalidate` can drop everything below the current
capacity epoch -- or one fingerprint, or an arbitrary predicate --
from both tiers without flushing unrelated warm entries.

The default clock is :func:`time.monotonic` (on Linux, seconds since
boot, so disk-tier deadlines stay meaningful across restarts within
one boot); pass ``clock=`` to pin time in tests.  Deadlines written by
a previous boot are best-effort -- the capacity-epoch tag, which is
part of the *fingerprint* for service traffic, is the durable
invalidation mechanism.

Statistics (:class:`CacheStats`) count hits per tier, misses, stores,
evictions, expirations, invalidations and verification failures; the
service and benches E18/E19 report them directly.
"""
from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Union

from repro.algorithms.base import AlgorithmReport
from repro.core.canonical import stable_digest
from repro.service.fingerprint import Fingerprint

__all__ = [
    "CacheEntry",
    "CacheIntegrityError",
    "CacheStats",
    "ResultCache",
    "report_semantic_digest",
]


class CacheIntegrityError(RuntimeError):
    """A cached entry failed its semantic-digest verification.

    The message always names the offending fingerprint, so a failed
    entry is attributable even when the lookup happened deep inside a
    coalesced batch.
    """


def report_semantic_form(report: AlgorithmReport):
    """An :class:`AlgorithmReport` as a digestible nested tuple.

    Folds the guarantee, the certified bound, the *served solution*
    (selected instance ids and their profits -- composite reports
    carry a merged solution with ``result=None`` on top, so the
    underlying semantic tuples alone would not cover it), the
    underlying :meth:`~repro.core.result.TwoPhaseResult.semantic_tuple`
    and -- recursively -- the wide/narrow parts of composite
    algorithms, so one digest covers everything the service hands out.
    """
    return (
        report.name,
        float(report.guarantee),
        float(report.certified_upper_bound),
        tuple(
            (d.instance_id, float(d.profit))
            for d in report.solution.selected
        ),
        None if report.result is None else report.result.semantic_tuple(),
        tuple(
            sorted(
                (name, report_semantic_form(part))
                for name, part in report.parts.items()
            )
        ),
    )


def report_semantic_digest(report: AlgorithmReport) -> str:
    """Stable hex digest of :func:`report_semantic_form`."""
    return stable_digest(report_semantic_form(report))


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting across both tiers."""

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    verify_failures: int = 0
    #: Persist attempts that errored (disk full, permissions); the
    #: entry stays served from memory, so this is degradation, not
    #: failure.
    disk_write_failures: int = 0
    #: Lookups that found an entry past its TTL deadline (either tier);
    #: the entry is dropped and the lookup proceeds as a miss.
    expirations: int = 0
    #: Entries dropped by an explicit :meth:`ResultCache.invalidate`
    #: call (per entry per tier, so one fingerprint present in both
    #: tiers counts twice).
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from either tier (0 when idle)."""
        if not self.lookups:
            return 0.0
        return (self.hits + self.disk_hits) / self.lookups

    def snapshot(self) -> dict:
        """A plain-dict copy (for findings JSON and service stats)."""
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "verify_failures": self.verify_failures,
            "disk_write_failures": self.disk_write_failures,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "hit_ratio": self.hit_ratio,
        }


#: Sentinel distinguishing "use the cache-wide TTL" from an explicit
#: per-entry ``ttl=None`` ("this entry never expires").
_UNSET_TTL = object()


@dataclass
class CacheEntry:
    """One admitted value plus its verification digest.

    ``expires_at`` is an absolute deadline on the owning cache's clock
    (``None`` = never expires); ``epoch`` is the capacity-epoch tag the
    entry was solved under, the handle for bulk invalidation.
    """

    fingerprint: str
    digest: str
    value: object = field(repr=False)
    expires_at: Optional[float] = None
    epoch: int = 0
    #: Opaque payload kept alive with the entry (a ``keep_artifacts``
    #: service's solved networks, with their memos), in the memory tier
    #: only: :meth:`ResultCache.write_disk` strips it, so an entry
    #: reloaded from disk carries none.
    artifacts: object = field(default=None, repr=False, compare=False)


class ResultCache:
    """Bounded LRU over verified entries, with an optional disk tier.

    Parameters
    ----------
    capacity:
        Maximum in-memory entries; the least recently used entry is
        evicted first.  Evicted entries survive on disk when a disk
        tier is configured (a later ``get`` re-admits them).
    disk_dir:
        Directory for the pickle tier; created on demand.  ``None``
        disables tier 2.
    digest_fn:
        Maps a value to its verification digest.  The default digests
        :class:`AlgorithmReport` semantic forms; pass a custom callable
        to cache other payloads.
    strict:
        When true, a disk entry failing verification raises
        :class:`CacheIntegrityError` instead of degrading to a miss.
    ttl:
        Default time-to-live in seconds applied to admitted entries
        (``None`` = entries never expire).  Per-entry overrides go
        through ``put``/``make_entry``.
    clock:
        The monotonic clock TTL deadlines are stamped and checked
        against.  Injectable so tests can advance time explicitly.

    Artifacts handed to ``put``/``make_entry`` ride the in-memory entry
    and never reach the disk tier; whether to hand any is the caller's
    decision (the service's ``keep_artifacts``).
    """

    def __init__(
        self,
        capacity: int = 128,
        disk_dir: Optional[str] = None,
        digest_fn: Callable[[object], str] = report_semantic_digest,
        strict: bool = False,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"cache ttl must be positive or None, got {ttl}")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.digest_fn = digest_fn
        self.strict = strict
        self.ttl = ttl
        self.clock = clock
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: Fingerprint) -> bool:
        return fingerprint.digest in self._entries

    # ------------------------------------------------------------------
    # Lookup / admission
    # ------------------------------------------------------------------
    # ``get``/``put`` are the plain single-threaded API.  The granular
    # methods below them exist for the service, which digests values
    # and touches the disk *outside* its lock (both are the expensive
    # steps) and takes the lock only around the memory-tier mutations
    # (``get_memory``/``admit``) and stats.

    def get(self, fingerprint: Fingerprint):
        """The cached value for *fingerprint*, or ``None`` on a miss.

        A memory hit refreshes recency; a disk hit re-admits the entry
        into memory (evicting as needed) after verifying its digest.
        """
        value = self.get_memory(fingerprint)
        if value is not None:
            return value
        entry = self.load_disk(fingerprint)
        if entry is not None:
            self.stats.disk_hits += 1
            self.admit(entry)
            return entry.value
        self.stats.misses += 1
        return None

    def put(
        self,
        fingerprint: Fingerprint,
        value,
        ttl: Union[None, float, object] = _UNSET_TTL,
        epoch: int = 0,
        artifacts: object = None,
    ) -> None:
        """Admit *value* under *fingerprint* into both tiers."""
        entry = self.make_entry(
            fingerprint, value, ttl=ttl, epoch=epoch, artifacts=artifacts
        )
        self.stats.stores += 1
        self.admit(entry)
        if self.disk_dir is not None:
            self.write_disk(entry)

    def get_memory(self, fingerprint: Fingerprint):
        """Tier-1 probe only: value or ``None``, refreshing recency.

        An entry past its TTL deadline is dropped here, not served --
        the caller proceeds exactly as on a cold miss (disk probe, then
        solve; the disk copy carries the same deadline and expires the
        same way).
        """
        entry = self._entries.get(fingerprint.digest)
        if entry is None:
            return None
        if self._expired(entry):
            del self._entries[fingerprint.digest]
            self.stats.expirations += 1
            return None
        self._entries.move_to_end(fingerprint.digest)
        self.stats.hits += 1
        return entry.value

    def make_entry(
        self,
        fingerprint: Fingerprint,
        value,
        ttl: Union[None, float, object] = _UNSET_TTL,
        epoch: int = 0,
        artifacts: object = None,
    ) -> CacheEntry:
        """Build a verified entry (runs the digest; no cache mutation).

        *ttl* defaults to the cache-wide setting; pass ``None``
        explicitly for a never-expiring entry, or a float override.
        *artifacts* rides the entry; the digest never covers it, it is
        an accelerant, not part of the cached answer.
        """
        if ttl is _UNSET_TTL:
            ttl = self.ttl
        expires_at = None if ttl is None else self.clock() + float(ttl)
        return CacheEntry(
            fingerprint=fingerprint.digest,
            digest=self.digest_fn(value),
            value=value,
            expires_at=expires_at,
            epoch=epoch,
            artifacts=artifacts,
        )

    def peek_entry(self, fingerprint: Fingerprint) -> Optional[CacheEntry]:
        """Memory-tier read with *no* side effects: no recency bump, no
        stats, no expiry eviction.  For callers that want an entry's
        metadata (the admission digest, the epoch tag) without acting
        as a lookup -- the async front door reuses the recorded digest
        instead of re-digesting reports per response."""
        return self._entries.get(fingerprint.digest)

    def _expired(self, entry: CacheEntry) -> bool:
        # ``getattr``: entries pickled by a pre-TTL cache restore
        # without the new fields; they count as never-expiring.
        deadline = getattr(entry, "expires_at", None)
        return deadline is not None and self.clock() >= deadline

    def admit(self, entry: CacheEntry) -> None:
        """Insert *entry* into the memory tier, evicting LRU overflow."""
        self._entries[entry.fingerprint] = entry
        self._entries.move_to_end(entry.fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    # ``invalidate`` is the plain single-threaded API; the per-tier
    # methods exist for the service, which drops the memory tier under
    # its lock and sweeps the disk directory (unpickling every file --
    # the expensive part) outside it, mirroring the get/admit split.

    def invalidate(
        self,
        fingerprint: Optional[Fingerprint] = None,
        predicate: Optional[Callable[[CacheEntry], bool]] = None,
        epoch_below: Optional[int] = None,
    ) -> int:
        """Drop matching entries from *both* tiers; returns the count.

        Exactly one selector: a single *fingerprint*, an arbitrary
        *predicate* over :class:`CacheEntry`, or ``epoch_below=n`` --
        the mutable-capacity bulk form, dropping every entry whose
        capacity-epoch tag is ``< n`` while current-epoch entries stay
        warm.  An entry with *no* epoch tag at all (pickled by a
        pre-epoch version of this cache) counts as generation 0 and is
        therefore swept by any ``epoch_below >= 1`` -- deliberately:
        an entry of unknown generation must not outlive a bulk
        invalidation that was issued precisely because old generations
        are no longer trustworthy.  (``epoch_below=0`` drops nothing,
        on any entry: no generation is below zero.)  Predicate and epoch
        selectors scan the disk directory, unpickling each file; the
        single-fingerprint form unlinks its file directly.  Unreadable
        disk files are left alone -- a later lookup degrades them to a
        verified miss through the normal :meth:`load_disk` path.
        """
        return self.invalidate_memory(
            fingerprint, predicate, epoch_below
        ) + self.invalidate_disk(fingerprint, predicate, epoch_below)

    @staticmethod
    def _invalidation_predicate(
        fingerprint: Optional[Fingerprint],
        predicate: Optional[Callable[[CacheEntry], bool]],
        epoch_below: Optional[int],
    ) -> Callable[[CacheEntry], bool]:
        """The one-selector rule, normalized to an entry predicate."""
        selectors = [
            s for s in (fingerprint, predicate, epoch_below) if s is not None
        ]
        if len(selectors) != 1:
            raise ValueError(
                "pass exactly one of fingerprint=, predicate=, epoch_below="
            )
        if fingerprint is not None:
            return lambda entry: entry.fingerprint == fingerprint.digest
        if epoch_below is not None:
            # ``getattr`` default 0: an epoch-less entry (pre-epoch
            # pickle) is generation 0 by definition, so every
            # ``epoch_below >= 1`` sweep drops it -- the conservative
            # reading, pinned by tests/test_cache_ttl.py.
            return lambda entry: getattr(entry, "epoch", 0) < epoch_below
        return predicate

    def invalidate_memory(
        self,
        fingerprint: Optional[Fingerprint] = None,
        predicate: Optional[Callable[[CacheEntry], bool]] = None,
        epoch_below: Optional[int] = None,
    ) -> int:
        """Tier-1 drop only (the part the service holds its lock for)."""
        match = self._invalidation_predicate(fingerprint, predicate, epoch_below)
        doomed = [d for d, e in self._entries.items() if match(e)]
        for digest in doomed:
            del self._entries[digest]
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def invalidate_disk(
        self,
        fingerprint: Optional[Fingerprint] = None,
        predicate: Optional[Callable[[CacheEntry], bool]] = None,
        epoch_below: Optional[int] = None,
    ) -> int:
        """Tier-2 drop only; safe to run outside the caller's lock."""
        match = self._invalidation_predicate(fingerprint, predicate, epoch_below)
        if self.disk_dir is None:
            return 0
        dropped = 0
        if fingerprint is not None:
            try:
                self._path(fingerprint.digest).unlink()
                dropped = 1
            except OSError:
                pass
        elif self.disk_dir.is_dir():
            for path in sorted(self.disk_dir.glob("*.pkl")):
                try:
                    with path.open("rb") as fh:
                        entry = pickle.load(fh)
                    if not isinstance(entry, CacheEntry) or not match(entry):
                        continue
                    path.unlink()
                except Exception:
                    continue
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _path(self, digest: str) -> Path:
        return self.disk_dir / f"{digest}.pkl"

    def write_disk(self, entry: CacheEntry) -> bool:
        """Persist *entry* to the disk tier; True iff it was written.

        Best-effort by design: persistence failing (disk full,
        permissions, unpicklable payload) must never fail the request
        whose solve already succeeded, so errors are swallowed into
        ``stats.disk_write_failures`` -- the entry stays served from
        memory -- mirroring how a corrupt *read* degrades to a miss.
        No-op (False) without a disk tier.
        """
        if self.disk_dir is None:
            return False
        if getattr(entry, "artifacts", None) is not None:
            # Artifacts are a memory-tier accelerant only: pickling
            # them per store is a cost nothing reads back.
            entry = replace(entry, artifacts=None)
        tmp: Optional[Path] = None
        try:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            path = self._path(entry.fingerprint)
            # Write-then-rename so a crashed writer leaves no half-file
            # that a later lookup could mistake for an entry.  The temp
            # name is pid/thread-unique: a *fixed* suffix would let two
            # concurrent writers of the same fingerprint interleave
            # writes into one temp file and rename the garble into
            # place -- each writer must rename only a file it wrote
            # whole (last rename wins, both renames are complete
            # entries).
            tmp = path.with_name(
                f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            with tmp.open("wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)
        except Exception:
            self.stats.disk_write_failures += 1
            if tmp is not None:
                try:
                    tmp.unlink()
                except OSError:
                    pass
            return False
        return True

    def load_disk(self, fingerprint: Fingerprint) -> Optional[CacheEntry]:
        """Tier-2 probe: the verified entry, or ``None``.

        Reads, unpickles and digest-verifies without touching the
        memory tier, so callers may run it outside their locks; a
        failed verification deletes the file and counts a
        ``verify_failure`` (raising under ``strict=True``).
        """
        if self.disk_dir is None:
            return None
        path = self._path(fingerprint.digest)
        if not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                entry = pickle.load(fh)
            if not isinstance(entry, CacheEntry):
                raise TypeError(f"expected CacheEntry, got {type(entry).__name__}")
            recomputed = self.digest_fn(entry.value)
        except Exception as exc:
            return self._reject_disk(
                path, fingerprint,
                f"unreadable cache entry ({type(exc).__name__}: {exc})", exc,
            )
        if entry.fingerprint != fingerprint.digest or entry.digest != recomputed:
            return self._reject_disk(
                path, fingerprint,
                "semantic digest mismatch (stale or corrupted entry)", None,
            )
        if self._expired(entry):
            # Ordinary aging, not corruption: unlink and miss without
            # raising even under strict=True.
            self.stats.expirations += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return entry

    def _reject_disk(
        self, path: Path, fingerprint: Fingerprint, why: str, cause
    ) -> None:
        self.stats.verify_failures += 1
        try:
            path.unlink()
        except OSError:
            pass
        if self.strict:
            raise CacheIntegrityError(
                f"disk cache entry for fingerprint {fingerprint.short} "
                f"failed verification: {why}"
            ) from cause
        return None
