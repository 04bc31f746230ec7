"""The scheduling service layer: fingerprints, result cache, server.

A long-lived serving loop in front of the two-phase framework --
exact request fingerprinting (:mod:`repro.service.fingerprint`), a
two-tier verified result cache with TTL/invalidation
(:mod:`repro.service.cache`), a coalescing, batching
:class:`SchedulingService` (:mod:`repro.service.server`) on warm
request pools (:mod:`repro.service.pools`), and an asyncio front door
with a JSON-over-TCP endpoint (:mod:`repro.service.async_front`), the
delta-solve ingredients --
delta keys, problem diffs, network-memo adoption, change-storm debouncing
(:mod:`repro.service.delta`), schedule-diff egress
(:mod:`repro.service.diff`), and a sharded tier -- consistent-hash
router over forked shard workers (:mod:`repro.service.shard`).
Telemetry rides on :mod:`repro.obs` (metrics registry, per-request
phase tracing, SLO tracking); the convenience re-exports below let
serving code configure it without a second import.  See the "Serving"
and "Observability" sections of README.md.
"""
from repro.obs import (
    MetricsRegistry,
    SLOTracker,
    default_registry,
    merge_snapshots,
    render_prometheus,
)
from repro.service.async_front import AsyncSchedulingService, jsonable
from repro.service.cache import (
    CacheEntry,
    CacheIntegrityError,
    CacheStats,
    ResultCache,
    report_semantic_digest,
)
from repro.service.delta import (
    DELTA_OUTCOMES,
    ChangeDebouncer,
    DeltaStats,
    ProblemDelta,
    delta_key,
    diff_problems,
)
from repro.service.diff import (
    DeltaSyncError,
    ScheduleDelta,
    ScheduleFollower,
    SchedulePusher,
    apply_delta,
    diff_tables,
    normalize_table,
    schedule_table,
    table_digest,
)
from repro.service.fingerprint import (
    Fingerprint,
    SolveKnobs,
    problem_canonical_form,
    problem_fingerprint,
    solve_fingerprint,
)
from repro.service.server import (
    SchedulingService,
    ServiceError,
    ServiceResult,
    SolveRequest,
)
from repro.service.shard import (
    HashRing,
    ShardCluster,
    ShardRouter,
    ShardUnavailable,
)

__all__ = [
    "AsyncSchedulingService",
    "CacheEntry",
    "CacheIntegrityError",
    "CacheStats",
    "ChangeDebouncer",
    "DELTA_OUTCOMES",
    "DeltaStats",
    "DeltaSyncError",
    "Fingerprint",
    "HashRing",
    "MetricsRegistry",
    "ProblemDelta",
    "ResultCache",
    "SLOTracker",
    "ScheduleDelta",
    "ScheduleFollower",
    "SchedulePusher",
    "SchedulingService",
    "ServiceError",
    "ServiceResult",
    "ShardCluster",
    "ShardRouter",
    "ShardUnavailable",
    "SolveKnobs",
    "SolveRequest",
    "apply_delta",
    "default_registry",
    "delta_key",
    "diff_problems",
    "diff_tables",
    "jsonable",
    "merge_snapshots",
    "normalize_table",
    "render_prometheus",
    "problem_canonical_form",
    "problem_fingerprint",
    "report_semantic_digest",
    "schedule_table",
    "solve_fingerprint",
    "table_digest",
]
