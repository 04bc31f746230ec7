"""The long-lived scheduling service: coalescing, caching, dispatch.

:class:`SchedulingService` is the serving loop in front of the
two-phase framework -- the control-plane piece the paper's motivating
VoD/bandwidth-allocation setting assumes but a one-shot library call
does not provide.  A request travels three short stages:

1. **Fingerprint** -- the problem and its solve knobs are canonically
   hashed (:mod:`repro.service.fingerprint`), so a re-submitted or
   relabeled-but-identical request keys the same.
2. **Cache / coalesce** -- a fingerprint already answered is served
   from the two-tier :class:`~repro.service.cache.ResultCache` without
   touching a solver; a fingerprint currently *being* solved joins the
   in-flight future instead of starting a duplicate solve (request
   coalescing -- under hot-key traffic the thundering herd collapses
   onto one solve).
3. **Dispatch** -- genuinely new requests run
   :func:`~repro.algorithms.auto.solve_auto` with their per-request
   knobs on the warm service pool
   (:func:`~repro.service.pools.shared_service_pool`), so a batch of
   distinct requests executes concurrently; each solve is serial.
   Multi-core serving forks whole services instead
   (:class:`~repro.service.shard.ShardCluster`).

Failures stay attributable: any exception raised by a solve -- a
:class:`~repro.core.problem.ProblemError` from instance expansion
included -- is re-raised as :class:`ServiceError` naming the request's
label and fingerprint, so one bad entry in a coalesced batch is
distinguishable from its neighbors.

The service itself is thread-safe; results handed out are shared
objects and must be treated as immutable by callers.
"""
from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.algorithms.auto import problem_family, solve_auto
from repro.algorithms.base import AlgorithmReport
from repro.core.problem import Problem
from repro.obs import (
    MetricsRegistry,
    NULL_TRACE,
    SLOTracker,
    default_registry,
    trace_request,
)
from repro.service.cache import ResultCache
from repro.service.delta import (
    DELTA_OUTCOMES,
    DeltaStats,
    ProblemDelta,
    adopt_network_memos,
    delta_key,
    diff_problems,
)
from repro.service.fingerprint import Fingerprint, SolveKnobs, solve_fingerprint
from repro.service.pools import default_workers, shared_service_pool
from repro.workloads import build_workload

__all__ = [
    "SchedulingService",
    "ServiceError",
    "ServiceResult",
    "SolveRequest",
]

#: How many ancestors one delta bucket retains (newest-last LRU): a
#: churn trajectory needs exactly one live ancestor, a small surplus
#: tolerates interleaved trajectories sharing a sketch.
_DELTA_ANCESTOR_CAP = 4


class ServiceError(RuntimeError):
    """A request failed; the message names its label and fingerprint."""


@dataclass(frozen=True)
class SolveRequest:
    """One unit of service traffic: a problem plus its solve knobs.

    ``label`` is an optional human-readable handle carried into results
    and error messages (:meth:`from_workload` fills in
    ``name@size#seed``; unlabeled requests render as ``<unlabeled>``);
    it never participates in the cache key.
    """

    problem: Problem
    knobs: SolveKnobs = SolveKnobs()
    label: Optional[str] = None

    @classmethod
    def from_workload(
        cls,
        name: str,
        size: int,
        seed: int = 0,
        knobs: Optional[SolveKnobs] = None,
        **knob_kwargs,
    ) -> "SolveRequest":
        """Build a request for a registry workload (label = name@size#seed).

        Pass *knobs* whole, or individual :class:`SolveKnobs` fields as
        keyword arguments (mutually exclusive).  The solve seed
        defaults to the workload seed, so one number determines the
        whole request.
        """
        if knobs is not None and knob_kwargs:
            raise ValueError("pass knobs= or individual knob fields, not both")
        if knobs is None:
            knob_kwargs.setdefault("seed", seed)
            knobs = SolveKnobs(**knob_kwargs)
        return cls(
            problem=build_workload(name, size, seed=seed),
            knobs=knobs,
            label=f"{name}@{size}#{seed}",
        )

    def fingerprint(self) -> Fingerprint:
        """The request's cache key.  The problem and the knobs each
        memoize their part of it, so resubmitting the same objects
        re-encodes nothing."""
        return solve_fingerprint(self.problem, self.knobs)


@dataclass
class ServiceResult:
    """What the service hands back for one request.

    ``status`` is ``"hit"`` (served from cache, either tier),
    ``"miss"`` (a fresh cold solve ran; coalesced callers share the
    miss result of the one solve that served them) or ``"delta"`` (a
    :meth:`SchedulingService.submit_delta` request that found a cached
    ancestor with the same networks and solved on its network memos --
    the same solve a miss runs, see :mod:`repro.service.delta`).
    ``latency_s`` measures this request's submit-to-resolution
    wall-clock.
    """

    report: AlgorithmReport = field(repr=False)
    fingerprint: Fingerprint
    status: str
    latency_s: float
    #: The submitting request's label, or ``None`` for an unlabeled
    #: request -- the same optionality as :attr:`SolveRequest.label`
    #: (coalesced callers see their *own* label here, not the
    #: primary's).
    label: Optional[str] = None
    #: Delta telemetry -- present exactly when the request traveled the
    #: delta path (``submit_delta``/``solve_delta``), whatever its
    #: outcome; plain submissions and cache hits carry ``None``.
    delta: Optional[DeltaStats] = None
    #: Set by the async front door's debouncer when this caller's exact
    #: snapshot was skipped in favor of a newer one in the same change
    #: storm; the carried report answers that *newer* snapshot.
    superseded: bool = False

    @property
    def profit(self) -> float:
        """``p(S)`` of the served solution."""
        return self.report.profit


class SchedulingService:
    """A warm, caching, coalescing front-end over the solve framework.

    Parameters
    ----------
    capacity:
        In-memory LRU capacity of the result cache.
    disk_dir:
        Optional directory for the cache's pickle tier (survives
        restarts; ``None`` disables it).
    workers:
        Size of the request-dispatch pool (default: usable CPUs,
        capped) -- how many *distinct* requests solve concurrently.
    default_knobs:
        Knobs applied by :meth:`submit_problem` when the caller gives
        none.  Defaults to the incremental engine -- the serial
        production engine -- with Luby's oracle.
    strict_cache:
        Propagate disk-tier verification failures as errors instead of
        degrading them to misses.
    ttl:
        Default time-to-live (seconds) for cached results; ``None``
        (the default) means results stay valid until evicted or
        invalidated.  Mutable-capacity deployments set a TTL as the
        backstop and bump ``SolveKnobs.capacity_epoch`` /
        call :meth:`invalidate` for prompt bulk expiry.
    clock:
        Monotonic clock for TTL deadlines (injectable for tests).
    keep_artifacts:
        Retain each solved problem so :meth:`submit_delta` can find it
        as an ancestor: the problem rides its cache entry (memory tier
        only) and the entry is indexed by its delta key.  Off by
        default -- a retained problem keeps its whole instance
        expansion alive, and a service that never sees delta traffic
        should not pay for that.
    metrics:
        Telemetry switch.  ``None`` (default) disables request tracing
        entirely -- the instrumented path degenerates to no-op spans.
        ``True`` records into the process-wide
        :func:`~repro.obs.default_registry`; a
        :class:`~repro.obs.MetricsRegistry` instance records there
        instead (test isolation, side-by-side services).  Telemetry is
        purely additive: it never changes which solver runs or what
        digest comes back, only what gets counted.
    slo_targets:
        Optional per-family p99 latency budgets (seconds) for the
        :class:`~repro.obs.SLOTracker` riding on the request
        histograms; requires *metrics*.  ``None`` uses
        :data:`~repro.obs.DEFAULT_TARGETS` when metrics are on.
    """

    def __init__(
        self,
        capacity: int = 128,
        disk_dir: Optional[str] = None,
        workers: Optional[int] = None,
        default_knobs: SolveKnobs = SolveKnobs(),
        strict_cache: bool = False,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        keep_artifacts: bool = False,
        metrics: Union[None, bool, MetricsRegistry] = None,
        slo_targets: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.workers = workers if workers is not None else default_workers()
        if type(self.workers) is not int or self.workers < 1:
            raise ValueError(
                f"service workers must be a positive int, got {self.workers!r}"
            )
        self.default_knobs = default_knobs
        self.keep_artifacts = keep_artifacts
        if metrics is None or metrics is False:
            self.metrics: Optional[MetricsRegistry] = None
        elif metrics is True:
            self.metrics = default_registry()
        else:
            self.metrics = metrics
        if self.metrics is not None:
            self.slo: Optional[SLOTracker] = SLOTracker(
                self.metrics, targets=slo_targets
            )
        elif slo_targets is not None:
            raise ValueError("slo_targets requires metrics to be enabled")
        else:
            self.slo = None
        #: fingerprint digest -> problem family, telemetry-only: family
        #: classification is a structural scan of the whole problem,
        #: too dear to repeat on every cache hit of a hot fingerprint.
        #: Crude cap-and-clear bound; entries are two tiny strings.
        self._family_cache: Dict[str, str] = {}
        self.cache = ResultCache(
            capacity=capacity, disk_dir=disk_dir, strict=strict_cache,
            ttl=ttl, clock=clock, keep_artifacts=keep_artifacts,
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._requests = 0
        self._coalesced = 0
        self._solves = 0
        #: delta key -> (fingerprint digest -> Fingerprint), newest
        #: last: the ancestor index submit_delta searches, plus each
        #: indexed digest's key.  A digest leaves the index with its
        #: memory-tier cache entry (the cache's ``on_drop``), when its
        #: bucket overflows, or when a probe finds its entry expired or
        #: artifact-less -- so the index never outgrows the cache.
        self._delta_index: Dict[str, "OrderedDict[str, Fingerprint]"] = {}
        self._ancestor_keys: Dict[str, str] = {}
        self.cache.on_drop = self._unindex_ancestor
        self._delta_requests = 0
        self._delta_outcomes: Dict[str, int] = {o: 0 for o in DELTA_OUTCOMES}
        #: Numeric DeltaStats counters summed over every delta request
        #: (warm and fallback alike), so operators can read how much
        #: delta traffic reused off one ``stats`` call instead of
        #: sampling per-request results.  Seeded from a snapshot's
        #: numeric keys so the counters read zero before any delta
        #: traffic, but the accumulation in :meth:`_solve_delta_into`
        #: iterates the live snapshot -- a counter added to
        #: ``DeltaStats`` later still shows up in
        #: ``stats["delta_totals"]``.
        self._delta_totals: Dict[str, int] = {
            k: 0 for k in DeltaStats(outcome="warm").numeric_counters()
        }

    # ------------------------------------------------------------------
    # Submission API
    # ------------------------------------------------------------------
    def submit(self, request: SolveRequest) -> "Future[ServiceResult]":
        """Enqueue one request; returns a future of its result.

        Cache hits resolve immediately; a duplicate of an in-flight
        fingerprint joins the solve already running (coalescing) but
        still gets its own future, so its result carries *its* label
        and submit-to-resolution latency; everything else dispatches
        onto the warm service pool.  Invalid knobs are rejected here,
        before any cache interaction -- an invalid request must error
        deterministically, not succeed whenever a valid normalization
        of it happens to be cached.

        The lock guards only the memory tier and the in-flight
        registry; fingerprinting, disk reads and solves all run outside
        it, so concurrent memory hits never queue behind another
        request's disk verify.
        """
        return self._submit_common(request, self._solve_into)

    def submit_delta(self, request: SolveRequest) -> "Future[ServiceResult]":
        """Like :meth:`submit`, but a miss tries the delta path first.

        The front of the pipeline is identical -- exact-fingerprint
        cache hits and in-flight coalescing behave exactly as for
        :meth:`submit` (an unchanged resubmission is a ``"hit"``).  Only
        a genuinely new fingerprint diverges: the worker looks up an
        ancestor under the request's delta key, lets the request's
        rebuilt networks adopt the ancestor's network memos, and then
        runs the same plain solve :meth:`submit` would, on any engine.
        ``DeltaStats.outcome`` says whether an ancestor was found, and
        the answer is bit-identical to a cold solve either way.
        """
        return self._submit_common(request, self._solve_delta_into)

    def _submit_common(
        self,
        request: SolveRequest,
        solver: Callable[..., None],
    ) -> "Future[ServiceResult]":
        t0 = time.perf_counter()  # latency includes fingerprinting
        trace = trace_request(self.metrics)
        try:
            with trace.span("validate"):
                request.knobs.validate()
        except ValueError as exc:
            self._finish_request(trace, "error")
            raise ServiceError(
                f"request {request.label or '<unlabeled>'} rejected: {exc}"
            ) from exc
        with trace.span("fingerprint"):
            fp = request.fingerprint()
            if self.metrics is not None:
                # Family classification is telemetry-only work: skip it
                # entirely when off, and cache it per fingerprint so a
                # hot key's hits do not re-scan the problem structure.
                family = self._family_cache.get(fp.digest)
                if family is None:
                    family = problem_family(request.problem)
                    if len(self._family_cache) >= 4096:
                        self._family_cache.clear()
                    self._family_cache[fp.digest] = family
                trace.set_family(family)
        with trace.span("cache_probe"):
            with self._lock:
                self._requests += 1
                cached = self.cache.get_memory(fp)
                existing = fut = None
                if cached is None:
                    existing = self._inflight.get(fp.digest)
                    if existing is not None:
                        self._coalesced += 1
                    else:
                        fut = Future()
                        self._inflight[fp.digest] = fut
        if cached is not None:
            self._finish_request(trace, "hit")
            return self._resolved(cached, fp, request.label, t0)
        if existing is not None:
            return self._joined(existing, request.label, t0, trace)
        # Tier-2 probe outside the lock (pickle load + digest verify).
        # Duplicates arriving meanwhile coalesce onto `fut`, which the
        # disk hit resolves just like a finished solve would.
        try:
            with trace.span("cache_probe"):
                entry = self.cache.load_disk(fp)
        except Exception as exc:  # strict-mode integrity failures
            # The failure must flow through the future: coalesced
            # duplicates already joined `fut`, and leaving it pending
            # would hang them forever.
            with self._lock:
                self._inflight.pop(fp.digest, None)
            self._finish_request(trace, "error")
            fut.set_exception(self._wrap_failure(request, fp, exc))
            return fut
        if entry is not None:
            with self._lock:
                self.cache.stats.disk_hits += 1
                self.cache.admit(entry)
                self._inflight.pop(fp.digest, None)
            self._finish_request(trace, "hit")
            fut.set_result(
                ServiceResult(
                    report=entry.value,
                    fingerprint=fp,
                    status="hit",
                    latency_s=time.perf_counter() - t0,
                    label=request.label,
                )
            )
            return fut
        with self._lock:
            self.cache.stats.misses += 1
        with trace.span("dispatch"):
            shared_service_pool(self.workers).submit(
                solver, request, fp, fut, t0, trace
            )
        return fut

    def _finish_request(self, trace, status: str) -> None:
        """Close one request's trace under its metrics *status* (the
        cache outcome: hit / coalesced / cold / delta / error) and feed
        the SLO tracker.  A no-op trace costs two attribute calls."""
        elapsed = trace.finish(status)
        if self.slo is not None and trace is not NULL_TRACE and status != "error":
            self.slo.observe(trace.family, elapsed)

    @staticmethod
    def _resolved(
        report: AlgorithmReport,
        fp: Fingerprint,
        label: Optional[str],
        t0: float,
    ) -> "Future[ServiceResult]":
        """An already-done future for a memory-tier hit."""
        done: "Future[ServiceResult]" = Future()
        done.set_result(
            ServiceResult(
                report=report,
                fingerprint=fp,
                status="hit",
                latency_s=time.perf_counter() - t0,
                label=label,
            )
        )
        return done

    def _joined(
        self,
        primary: "Future[ServiceResult]",
        label: Optional[str],
        t0: float,
        trace=NULL_TRACE,
    ) -> "Future[ServiceResult]":
        """A coalesced caller's view of the in-flight solve.

        Shares the primary's outcome but re-wraps it with this caller's
        label and latency; a failure propagates the primary's
        :class:`ServiceError` unchanged (it names the request whose
        solve actually ran -- the shared fingerprint in its message is
        what ties it to this caller).  The caller's trace finishes with
        status ``coalesced`` when the shared solve resolves, so its
        recorded latency is the join *wait*, not the primary's solve
        time.
        """
        joined: "Future[ServiceResult]" = Future()

        def relay(done: "Future[ServiceResult]") -> None:
            exc = done.exception()
            if exc is not None:
                self._finish_request(trace, "error")
                joined.set_exception(exc)
                return
            first = done.result()
            self._finish_request(trace, "coalesced")
            joined.set_result(
                ServiceResult(
                    report=first.report,
                    fingerprint=first.fingerprint,
                    status=first.status,
                    latency_s=time.perf_counter() - t0,
                    label=label,
                    delta=first.delta,
                    superseded=first.superseded,
                )
            )

        primary.add_done_callback(relay)
        return joined

    def submit_problem(
        self,
        problem: Problem,
        knobs: Optional[SolveKnobs] = None,
        label: Optional[str] = None,
    ) -> "Future[ServiceResult]":
        """Convenience: wrap *problem* with the service's default knobs."""
        return self.submit(
            SolveRequest(
                problem=problem,
                knobs=knobs if knobs is not None else self.default_knobs,
                label=label,
            )
        )

    def solve(self, request: SolveRequest) -> ServiceResult:
        """Submit and wait; re-raises solve failures as :class:`ServiceError`."""
        return self.submit(request).result()

    def solve_delta(self, request: SolveRequest) -> ServiceResult:
        """:meth:`submit_delta` and wait; failures as :class:`ServiceError`."""
        return self.submit_delta(request).result()

    def solve_batch(self, requests: Sequence[SolveRequest]) -> List[ServiceResult]:
        """Serve a batch: coalesce duplicates, solve distinct requests
        concurrently on the service pool, return results in input order.

        The first failing entry raises its :class:`ServiceError` --
        which names the label and fingerprint of exactly the offending
        request, not just "the batch".
        """
        futures = [self.submit(r) for r in requests]
        return [f.result() for f in futures]

    @staticmethod
    def _wrap_failure(
        request: SolveRequest, fp: Fingerprint, exc: BaseException
    ) -> ServiceError:
        """The attributable form of any per-request failure."""
        err = ServiceError(
            f"request {request.label or '<unlabeled>'} "
            f"(fingerprint {fp.short}) failed: "
            f"{type(exc).__name__}: {exc}"
        )
        err.__cause__ = exc
        return err

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _solve_request(self, request: SolveRequest) -> AlgorithmReport:
        """Run the plain solve of *request* under its knobs."""
        k = request.knobs
        return solve_auto(
            request.problem,
            epsilon=k.epsilon,
            mis=k.mis,
            seed=k.seed,
            decomposition=k.decomposition,
            engine=k.engine,
        )

    def _admit_result(
        self,
        request: SolveRequest,
        fp: Fingerprint,
        report: AlgorithmReport,
        key: Optional[str] = None,
    ) -> None:
        """Admit a solved report; on a ``keep_artifacts`` service, also
        index it as a delta ancestor.

        Digest and disk write are the expensive admission steps; they
        run on the calling worker thread, outside the lock.  The write
        is best-effort inside the cache -- a failed persist degrades to
        memory-only, it never fails the request -- and strips the
        retained problem either way.  The entry inherits the request's
        capacity epoch, so a later bulk invalidation can find it.
        *key* lets the delta path hand down its already-computed
        :func:`delta_key` (sketching walks every network; doing it
        twice per request is measurable).
        """
        problem = request.problem if self.keep_artifacts else None
        entry = self.cache.make_entry(
            fp, report, epoch=request.knobs.capacity_epoch, artifacts=problem
        )
        self.cache.write_disk(entry)
        if problem is not None and key is None:
            key = delta_key(problem, request.knobs)
        with self._lock:
            self._solves += 1
            self.cache.stats.stores += 1
            self.cache.admit(entry)
            if problem is not None:
                self._register_ancestor(key, fp)

    def _register_ancestor(self, key: str, fp: Fingerprint) -> None:
        """Index *fp* as the newest ancestor of its delta bucket (caller
        holds the lock)."""
        bucket = self._delta_index.setdefault(key, OrderedDict())
        bucket.pop(fp.digest, None)
        bucket[fp.digest] = fp
        self._ancestor_keys[fp.digest] = key
        while len(bucket) > _DELTA_ANCESTOR_CAP:
            self._unindex_ancestor(next(iter(bucket)))

    def _unindex_ancestor(self, digest: str) -> None:
        """Drop *digest* from the ancestor index, and its bucket once
        empty (caller holds the lock)."""
        key = self._ancestor_keys.pop(digest, None)
        if key is None:
            return
        bucket = self._delta_index[key]
        del bucket[digest]
        if not bucket:
            del self._delta_index[key]

    def _record_solve(self, trace, elapsed: Optional[float], outcome: str) -> None:
        """One observation in the outcome-labeled solve histogram --
        where ``delta`` and ``cold`` solve costs become comparable per
        family (ROADMAP delta follow-up (d))."""
        if self.metrics is not None and elapsed is not None:
            self.metrics.histogram(
                "repro_service_solve_seconds",
                family=trace.family,
                outcome=outcome,
            ).observe(elapsed)

    def _solve_into(
        self,
        request: SolveRequest,
        fp: Fingerprint,
        fut: "Future[ServiceResult]",
        t0: float,
        trace=NULL_TRACE,
    ) -> None:
        try:
            with trace.span("solve") as solving:
                report = self._solve_request(request)
            self._record_solve(trace, getattr(solving, "elapsed", None), "cold")
            with trace.span("digest"):
                self._admit_result(request, fp, report)
            self._finish_request(trace, "cold")
            fut.set_result(
                ServiceResult(
                    report=report,
                    fingerprint=fp,
                    status="miss",
                    latency_s=time.perf_counter() - t0,
                    label=request.label,
                )
            )
        except BaseException as exc:
            self._finish_request(trace, "error")
            fut.set_exception(self._wrap_failure(request, fp, exc))
        finally:
            # Deregister only after the cache holds the result (or the
            # failure is published): a submit racing this window either
            # joins the still-registered future or hits the cache.
            with self._lock:
                self._inflight.pop(fp.digest, None)

    def _solve_delta_into(
        self,
        request: SolveRequest,
        fp: Fingerprint,
        fut: "Future[ServiceResult]",
        t0: float,
        trace=NULL_TRACE,
    ) -> None:
        try:
            with trace.span("solve") as solving:
                report, stats = self._delta_solve(request, fp)
            warm = stats.outcome == "warm"
            self._record_solve(
                trace, getattr(solving, "elapsed", None),
                "delta" if warm else "cold",
            )
            counters = stats.numeric_counters()
            with self._lock:
                self._delta_requests += 1
                self._delta_outcomes[stats.outcome] += 1
                # Iterate the live counters, not the totals dict: a
                # counter later added to DeltaStats must start
                # accumulating here, not be silently dropped because the
                # totals were seeded from an older key set.
                for k, v in counters.items():
                    self._delta_totals[k] = self._delta_totals.get(k, 0) + v
            if self.metrics is not None:
                self.metrics.counter(
                    "repro_delta_requests_total", outcome=stats.outcome
                ).inc()
                for k, v in counters.items():
                    self.metrics.counter(f"repro_delta_{k}_total").inc(v)
            self._finish_request(trace, "delta" if warm else "cold")
            fut.set_result(
                ServiceResult(
                    report=report,
                    fingerprint=fp,
                    status="delta" if warm else "miss",
                    latency_s=time.perf_counter() - t0,
                    label=request.label,
                    delta=stats,
                )
            )
        except BaseException as exc:
            self._finish_request(trace, "error")
            fut.set_exception(self._wrap_failure(request, fp, exc))
        finally:
            with self._lock:
                self._inflight.pop(fp.digest, None)

    def _delta_solve(
        self, request: SolveRequest, fp: Fingerprint
    ) -> Tuple[AlgorithmReport, DeltaStats]:
        """Find an ancestor (adopting its network memos), then run and
        admit the plain solve; the outcome only names what was found."""
        key = found = None
        if self.keep_artifacts:
            key = delta_key(request.problem, request.knobs)
            found = self._find_ancestor(key, request.problem)
        if found is None:
            stats = DeltaStats(outcome="ancestor-miss")
        else:
            ancestor_fp, delta, adopted = found
            if delta.networks_changed:
                stats = DeltaStats(
                    outcome="network-change", networks_adopted=adopted
                )
            else:
                stats = DeltaStats(
                    outcome="warm",
                    ancestor=ancestor_fp.short,
                    touched_demands=len(delta.touched_demands),
                    networks_adopted=adopted,
                )
        report = self._solve_request(request)
        self._admit_result(request, fp, report, key=key)
        return report, stats

    def _find_ancestor(
        self, key: str, problem: Problem
    ) -> Optional[Tuple[Fingerprint, ProblemDelta, int]]:
        """The nearest live ancestor in *key*'s bucket, by diff size,
        plus how many of *problem*'s networks adopted a memo.

        Under the lock: read the bucket newest-first through
        :meth:`~repro.service.cache.ResultCache.peek_fresh` (no recency
        bump -- screening ancestors must not distort the LRU), pruning
        index entries whose cache entry expired or lost its retained
        problem (e.g. re-admitted from disk; evicted and invalidated
        entries have already left the index).  Outside the lock:
        *problem*'s rebuilt networks adopt the candidates' network
        memos where they are the same network
        (:func:`~repro.service.delta.adopt_network_memos`), so a
        wire-built snapshot reuses its ancestor's paths and layouts.
        Then diff the few survivors against *problem* and pick the
        smallest touched-demand set among those whose networks are
        unchanged.  ``None`` when nothing usable remains; a bucket
        where *every* candidate changed networks returns the newest
        such diff, letting the caller report ``"network-change"``
        rather than a bare miss.
        """
        with self._lock:
            bucket = self._delta_index.get(key)
            if not bucket:
                return None
            candidates: List[Tuple[Fingerprint, Problem]] = []
            stale: List[str] = []
            for digest in reversed(bucket):
                cand_fp = bucket[digest]
                entry = self.cache.peek_fresh(cand_fp)
                if entry is None or entry.artifacts is None:
                    stale.append(digest)
                    continue
                candidates.append((cand_fp, entry.artifacts))
            for digest in stale:
                self._unindex_ancestor(digest)
        # Adopt before the solve expands *problem*: an expansion gives
        # its networks memos of their own, and those never adopt.
        adopted = sum(
            adopt_network_memos(ancestor, problem)
            for _, ancestor in candidates
        )
        best: Optional[Tuple[Fingerprint, ProblemDelta]] = None
        collided: Optional[Tuple[Fingerprint, ProblemDelta]] = None
        for cand_fp, ancestor in candidates:
            delta = diff_problems(ancestor, problem)
            if delta.networks_changed:
                if collided is None:
                    collided = (cand_fp, delta)
                continue
            if best is None or len(delta.touched_demands) < len(
                best[1].touched_demands
            ):
                best = (cand_fp, delta)
        found = best if best is not None else collided
        return None if found is None else (*found, adopted)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(
        self,
        fingerprint=None,
        predicate=None,
        epoch_below: Optional[int] = None,
    ) -> int:
        """Drop cached results from both tiers (see
        :meth:`~repro.service.cache.ResultCache.invalidate`).

        The usual lock discipline: the memory-tier drop happens under
        the service lock (so concurrent hits never observe a half-swept
        tier), while the disk sweep -- a directory scan that unpickles
        every entry -- runs outside it, exactly like disk reads and
        writes on the serving path.  A request already in flight when
        the call lands was solved under the old state and may still
        admit afterwards; invalidation therefore makes no atomicity
        promise against in-flight work -- the capacity-epoch
        fingerprint tag is what keeps *new* traffic from ever reading a
        stale generation.
        """
        with self._lock:
            dropped = self.cache.invalidate_memory(
                fingerprint=fingerprint,
                predicate=predicate,
                epoch_below=epoch_below,
            )
        return dropped + self.cache.invalidate_disk(
            fingerprint=fingerprint,
            predicate=predicate,
            epoch_below=epoch_below,
        )

    def peek_digest(self, fingerprint) -> Optional[str]:
        """The recorded admission digest for *fingerprint*, if its entry
        is resident in memory -- a side-effect-free metadata read (no
        recency bump, no stats), taken under the service lock."""
        with self._lock:
            entry = self.cache.peek_entry(fingerprint)
            return None if entry is None else entry.digest

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Requests seen, coalesced joins, solves run, cache and delta
        counters."""
        with self._lock:
            return {
                "requests": self._requests,
                "coalesced": self._coalesced,
                "solves": self._solves,
                "inflight": len(self._inflight),
                "cache": self.cache.stats.snapshot(),
                "delta_requests": self._delta_requests,
                "delta_outcomes": dict(self._delta_outcomes),
                "delta_totals": dict(self._delta_totals),
                "ancestor_buckets": len(self._delta_index),
                "ancestors": len(self._ancestor_keys),
            }

    def metrics_registry(self) -> MetricsRegistry:
        """The registry this service records into -- the process
        default when telemetry is off, so ``{"op": "metrics"}`` always
        answers."""
        return self.metrics if self.metrics is not None else default_registry()

    def metrics_snapshot(self) -> dict:
        """A consistent jsonable snapshot of the service's metrics,
        with the SLO attainment report alongside when SLO tracking is
        configured."""
        snap = self.metrics_registry().snapshot()
        return {
            "metrics": snap,
            "slo": self.slo.report() if self.slo is not None else None,
        }
