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

:meth:`SchedulingService.submit` and
:meth:`SchedulingService.submit_delta` share that path and one worker
function; a delta request only adds :class:`~repro.service.delta.DeltaStats`
to its result.  On a ``keep_artifacts`` service the worker first lets
each network of the request that has no memo yet adopt the memo of an
equal network the service already solved on (the *network table*, see
:class:`SchedulingService`), so a rebuilt request -- every wire request
-- skips the layout work the service has done before.

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
import weakref
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
from repro.service.delta import DELTA_OUTCOMES, DeltaStats
# Not called here any more.  perfbench's tracer wraps these two names in
# this module (``tracing.CALL_SITES``) and fails if either is missing, so
# they stay bound until the benchmark's next change re-points it.
from repro.service.delta import delta_key, diff_problems  # noqa: F401
from repro.service.fingerprint import (
    Fingerprint,
    SolveKnobs,
    _network_entry,
    solve_fingerprint,
)
from repro.service.pools import default_workers, shared_service_pool
from repro.trees.tree import TreeNetwork
from repro.workloads import build_workload

__all__ = [
    "SchedulingService",
    "ServiceError",
    "ServiceResult",
    "SolveRequest",
]

#: A network's content: its id and its sorted-edge bytes.
NetworkKey = Tuple[type, object, bytes]


def _network_key(net: TreeNetwork) -> NetworkKey:
    """*net*'s key in the network table: its id, and the id-free
    sorted-edge bytes the request's fingerprint memoized on it."""
    nid = net.network_id
    return type(nid), nid, _network_entry(net)[1]


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
    ``"miss"`` (a solve ran; coalesced callers share the miss result of
    the one solve that served them) or ``"delta"`` (a
    :meth:`SchedulingService.submit_delta` request on a
    ``keep_artifacts`` service whose every network carried a memo for
    its solve, its own or one adopted from the network table -- the
    same solve a miss runs, see :mod:`repro.service.delta`).
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
        Retain each solved request's network objects, with their memos,
        on its cache entry (memory tier only), and keep the *network
        table*: a :class:`weakref.WeakValueDictionary` from a network's
        content (id and sorted-edge bytes) to the newest network with
        that content that this service solved on.  Before every solve,
        each network of the request without a memo of its own adopts
        its table twin's (:meth:`~repro.trees.tree.TreeNetwork.adopt_memo`,
        which also demands the same ordered adjacency), so a rebuilt
        request skips the layout work the service already did.  A table
        entry lives exactly as long as its network: held by a
        memory-tier entry, or by a caller.  Off by default -- a service
        without it keeps no networks and builds every layout a request
        has not built itself.
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
            ttl=ttl, clock=clock,
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self._requests = 0
        self._coalesced = 0
        self._solves = 0
        #: The network table (see ``keep_artifacts``), guarded by the
        #: lock; it stays empty on a service without artifacts.
        self._networks: "weakref.WeakValueDictionary[NetworkKey, TreeNetwork]" = (
            weakref.WeakValueDictionary()
        )
        self._delta_requests = 0
        self._delta_outcomes: Dict[str, int] = {o: 0 for o in DELTA_OUTCOMES}
        #: Numeric DeltaStats counters summed over every delta request
        #: (warm and fallback alike), so operators can read how much
        #: delta traffic reused off one ``stats`` call instead of
        #: sampling per-request results.  Seeded from a snapshot's
        #: numeric keys so the counters read zero before any delta
        #: traffic, but the accumulation in :meth:`_solve_into`
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
        return self._submit_common(request, delta=False)

    def submit_delta(self, request: SolveRequest) -> "Future[ServiceResult]":
        """Like :meth:`submit`, plus delta telemetry on a miss.

        The request takes exactly :meth:`submit`'s path -- cache hits
        and in-flight coalescing included (an unchanged resubmission is
        a ``"hit"`` and carries no telemetry), and a miss runs the same
        network-table adoption and plain solve, on any engine.  The
        result only gains :class:`~repro.service.delta.DeltaStats`:
        ``"warm"`` (status ``"delta"``) when every network of the
        request carried a memo for the solve, its own or an adopted
        one, on a ``keep_artifacts`` service, else ``"ancestor-miss"``
        (status ``"miss"``).  The answer is bit-identical to a cold
        solve either way.
        """
        return self._submit_common(request, delta=True)

    def _submit_common(
        self, request: SolveRequest, delta: bool
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
                self._solve_into, request, fp, fut, t0, trace, delta
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

    def _adopt_memos(
        self, problem: Problem
    ) -> Tuple[List[Tuple[NetworkKey, TreeNetwork]], int]:
        """Let *problem*'s networks without a memo adopt their network
        table twins' memos; returns those networks with their table
        keys, and how many adopted.

        A network that already carries a memo needs no lookup
        (:meth:`~repro.trees.tree.TreeNetwork.adopt_memo` would refuse
        it), so an in-process stream that shares its network objects
        does no table work.  The lookup takes the lock; the adjacency
        comparisons inside ``adopt_memo`` run outside it.  Nothing is
        looked up on a service without ``keep_artifacts``.
        """
        if not self.keep_artifacts:
            return [], 0
        fresh = [
            (_network_key(net), net)
            for net in problem.networks.values()
            if not net.has_memo
        ]
        if not fresh:
            return fresh, 0
        with self._lock:
            twins = [self._networks.get(key) for key, _ in fresh]
        adopted = sum(
            twin is not None and net.adopt_memo(twin)
            for (_, net), twin in zip(fresh, twins)
        )
        return fresh, adopted

    def _admit_result(
        self,
        request: SolveRequest,
        fp: Fingerprint,
        report: AlgorithmReport,
        fresh: Sequence[Tuple[NetworkKey, TreeNetwork]],
    ) -> None:
        """Admit a solved report; on a ``keep_artifacts`` service, retain
        the request's networks on its entry and register the *fresh*
        ones (those that had no memo before the solve) as the newest
        networks with their content.

        Digest and disk write are the expensive admission steps; they
        run on the calling worker thread, outside the lock.  The write
        is best-effort inside the cache -- a failed persist degrades to
        memory-only, it never fails the request -- and strips the
        retained networks either way.  The entry inherits the request's
        capacity epoch, so a later bulk invalidation can find it.  A
        fresh network the solve left without a memo (no demand uses it)
        gets an empty one here, so its twins can adopt it too.
        """
        networks = (
            tuple(request.problem.networks.values())
            if self.keep_artifacts else None
        )
        entry = self.cache.make_entry(
            fp, report, epoch=request.knobs.capacity_epoch, artifacts=networks
        )
        self.cache.write_disk(entry)
        for _, net in fresh:
            net.memo  # noqa: B018 -- the property creates a missing memo
        with self._lock:
            self._solves += 1
            self.cache.stats.stores += 1
            self.cache.admit(entry)
            for key, net in fresh:
                self._networks[key] = net

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
        delta: bool = False,
    ) -> None:
        """The one worker function: adopt memos, solve, admit, and
        resolve *fut*; a *delta* request's result also carries
        :class:`DeltaStats`."""
        try:
            with trace.span("solve") as solving:
                fresh, adopted = self._adopt_memos(request.problem)
                report = self._solve_request(request)
            warm = delta and self.keep_artifacts and adopted == len(fresh)
            self._record_solve(
                trace, getattr(solving, "elapsed", None),
                "delta" if warm else "cold",
            )
            with trace.span("digest"):
                self._admit_result(request, fp, report, fresh)
            stats = None
            if delta:
                stats = DeltaStats(
                    outcome="warm" if warm else "ancestor-miss",
                    networks_adopted=adopted,
                )
                self._count_delta(stats)
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
            # Deregister only after the cache holds the result (or the
            # failure is published): a submit racing this window either
            # joins the still-registered future or hits the cache.
            with self._lock:
                self._inflight.pop(fp.digest, None)

    def _count_delta(self, stats: DeltaStats) -> None:
        """Fold one delta request's telemetry into ``stats`` and, with
        telemetry on, the ``repro_delta_*`` counters."""
        counters = stats.numeric_counters()
        with self._lock:
            self._delta_requests += 1
            self._delta_outcomes[stats.outcome] += 1
            # Iterate the live counters, not the totals dict: a counter
            # later added to DeltaStats must start accumulating here,
            # not be silently dropped because the totals were seeded
            # from an older key set.
            for k, v in counters.items():
                self._delta_totals[k] = self._delta_totals.get(k, 0) + v
        if self.metrics is not None:
            self.metrics.counter(
                "repro_delta_requests_total", outcome=stats.outcome
            ).inc()
            for k, v in counters.items():
                self.metrics.counter(f"repro_delta_{k}_total").inc(v)

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
        counters, and the live network-table entries (``networks``)."""
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
                "networks": len(self._networks),
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
