"""Pluggable execution backends for the parallel first-phase engine.

The parallel engine (:mod:`repro.core.engines.parallel`) turns an
:class:`~repro.core.plan.EpochPlan` wave into a list of sealed
:class:`EpochJob` bundles -- everything one epoch needs to run
:func:`~repro.core.engines.incremental.run_epoch_incremental` on its
own: the member slice, the member-restricted conflict adjacency and
reverse index, the critical-edge layout, the raise rule and thresholds,
the MIS oracle, and the dual values primed from the master state.  An
:class:`EpochExecutorBackend` decides *where* those jobs run:

* ``thread`` -- a warm, process-wide :class:`ThreadPoolExecutor`.  Zero
  copying, shared memory; on a GIL-bound CPython the concurrency is
  cooperative, so the win comes from the plan's sliced state rather
  than core-parallelism.  The default.
* ``process`` -- a warm, process-wide :class:`ProcessPoolExecutor`.
  Jobs are shrunk to a picklable wire form (:meth:`EpochJob.sliced`
  drops everything outside the member slice) and shipped to worker
  processes, so epoch waves get *real* CPU parallelism.  Requires every
  job ingredient -- members, index, adjacency, raise rule, thresholds
  and the MIS oracle -- to be picklable; the bundled oracles and rules
  all are (``tests/test_picklability.py`` pins this).
* ``serial`` -- run jobs inline on the calling thread, in order.  The
  debugging backend: identical results, trivially steppable.

All three backends are **bit-identical**: jobs are sealed off from each
other, so where they execute cannot change what they compute, and the
engine's merge walks epochs in ascending order regardless of completion
order.

Both pooled backends chunk a wave into at most ``workers`` jobs and
run the first chunk on the calling thread (caller-runs), so a wave
costs at most ``workers - 1`` dispatches.  Pools are kept warm across
solves (pool start-up -- especially process spawn -- is comparable to
a whole small first phase) and are keyed by worker count.

``backend=None`` resolves to the :data:`BACKEND_ENV_VAR` environment
variable when set (CI smoke legs run the whole suite under
``REPRO_BACKEND=process`` this way) and to ``"thread"`` otherwise.
"""
from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import sys
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.core.demand import DemandInstance
from repro.core.dual import DualState, RaiseEvent, RaiseRule
from repro.core.engines.artifacts import InstanceLayout, PhaseCounters
from repro.core.engines.incremental import run_epoch_incremental
from repro.core.types import DemandId, EdgeKey
from repro.distributed.conflict import ConflictAdjacency, InstanceIndex
from repro.distributed.mis import MISOracle
from repro.obs.metrics import default_registry

#: The interchangeable execution backends of ``engine="parallel"``.
BACKENDS = ("thread", "process", "serial")

#: Environment variable consulted when ``backend=None``; lets CI run an
#: unmodified test suite under a different backend ("smoke settings").
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Default worker-pool size cap: epoch waves are rarely wider than this,
#: and pool ramp-up isn't free.
MAX_DEFAULT_WORKERS = 8


def validate_backend(backend: str) -> str:
    """Validate an execution backend name (the single source of truth).

    Everything that accepts ``backend=`` funnels through this check (via
    :func:`resolve_backend`), so the backend registry and its error
    message live in exactly one place.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    return backend


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve ``backend=None`` (env override, then ``"thread"``)."""
    if backend is None:
        env = os.environ.get(BACKEND_ENV_VAR)
        if not env:
            return "thread"
        if env not in BACKENDS:
            # Name the env var: the caller passed backend=None, so a bare
            # "unknown backend" would point them at the wrong place.
            raise ValueError(
                f"unknown backend {env!r} from ${BACKEND_ENV_VAR}; "
                f"choose from {BACKENDS}"
            )
        return env
    return validate_backend(backend)


def usable_cpu_count() -> int:
    """CPUs this *process* may actually use.

    ``os.cpu_count()`` reports the machine, not the process: under CPU
    affinity masks (taskset, cgroup cpusets, containerized CI) the
    usable count is lower, and sizing a pool past it only adds context
    switching.  Resolution order: ``os.process_cpu_count`` (3.13+,
    affinity-aware), ``os.sched_getaffinity`` (Linux), ``os.cpu_count``.
    """
    probe = getattr(os, "process_cpu_count", None)
    n = probe() if probe is not None else None
    if n is None:
        affinity = getattr(os, "sched_getaffinity", None)
        if affinity is not None:
            try:
                n = len(affinity(0))
            except OSError:
                n = None
    if n is None:
        n = os.cpu_count()
    return max(1, n or 1)


def default_workers() -> int:
    """The ``workers=None`` resolution used by the pooled backends."""
    return min(MAX_DEFAULT_WORKERS, usable_cpu_count())


def resolve_workers(
    workers: Optional[int], backend: Optional[str]
) -> Tuple[str, int]:
    """Resolve and validate ``engine="parallel"``'s ``(backend, workers)``.

    The one check behind both the executor and
    :func:`~repro.core.framework.validate_engine_knobs` (which
    :meth:`~repro.service.fingerprint.SolveKnobs.validate` calls):
    ``workers`` is not part of a cache key, so a request the executor
    would reject must be rejected before the cache is consulted too.
    ``workers=None`` resolves to one worker on the serial backend and
    to :func:`default_workers` otherwise.
    """
    backend_name = resolve_backend(backend)
    if workers is None:
        workers = 1 if backend_name == "serial" else default_workers()
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if backend_name == "serial" and workers != 1:
        if backend is None:
            # The caller asked for pooled workers and only the
            # REPRO_BACKEND override said serial: honor the override
            # (its whole point is running unmodified callers under a
            # different backend) by coercing, not crashing.
            workers = 1
        else:
            raise ValueError(
                f"backend='serial' runs one job at a time; workers={workers} "
                "would misattribute the schedule (use the thread or process "
                "backend for pooled execution)"
            )
    return backend_name, workers


@dataclass
class EpochJob:
    """One sealed unit of first-phase work: one epoch.

    Carries everything :func:`run_epoch_job` needs -- the epoch's
    members and their plan slices (reverse index, conflict adjacency)
    for the incremental kernel -- so a job can execute on any backend,
    including in another process, without reaching back into the
    planner or the master dual.  ``primed_alpha`` /
    ``primed_beta`` are the master dual values the members can read
    (inherited from earlier waves).
    """

    epoch: int
    members: List[DemandInstance]
    index: InstanceIndex
    adjacency: ConflictAdjacency
    layout: InstanceLayout
    raise_rule: RaiseRule
    thresholds: Tuple[float, ...]
    mis_oracle: MISOracle
    primed_alpha: Dict[DemandId, float]
    primed_beta: Dict[EdgeKey, float]

    def sliced(self) -> "EpochJob":
        """The job with its layout cut down to the member slice.

        This is the process backend's wire form: the full
        :class:`InstanceLayout` indexes *every* instance of the problem,
        but a job only ever reads ``layout.pi`` for its own members, so
        shipping the rest would pay pickling cost for nothing.
        """
        pi = {d.instance_id: self.layout.pi[d.instance_id] for d in self.members}
        group_of = {i: self.epoch for i in pi}
        layout = InstanceLayout(
            group_of=group_of, pi=pi, n_epochs=self.layout.n_epochs
        )
        return replace(self, layout=layout)


@dataclass
class EpochOutcome:
    """Everything one epoch job produced, pending the ordered merge."""

    epoch: int
    events: List[RaiseEvent]
    stack: List[List[DemandInstance]]
    counters: PhaseCounters
    alpha_writes: Dict[DemandId, float]
    beta_writes: Dict[EdgeKey, float]


def dual_writes(local: Dict, primed: Dict) -> Dict:
    """The entries of *local* that differ from what was primed -- one
    epoch's dual *writes*, the unit the engine's ordered merge applies.
    With nothing primed (every first-wave epoch) every entry is a
    write, so *local* is returned as is."""
    if not primed:
        return local
    return {
        k: v for k, v in local.items() if k not in primed or primed[k] != v
    }


def run_epoch_job(job: EpochJob) -> EpochOutcome:
    """Execute one sealed job; the worker function of every backend.

    Runs the exact incremental loop body over a local dual primed with
    the job's inherited values, then reports only the *writes* (values
    that differ from what was primed) so the engine can merge disjoint
    epochs without re-deriving anything.
    """
    members = job.members
    by_id = {d.instance_id: d for d in members}
    local = DualState(use_height_rule=job.raise_rule.use_height_rule)
    local.alpha.update(job.primed_alpha)
    local.beta.update(job.primed_beta)
    events: List[RaiseEvent] = []
    stack: List[List[DemandInstance]] = []
    counters = PhaseCounters()
    run_epoch_incremental(
        job.epoch, members, by_id, local, job.index, job.adjacency,
        job.layout, job.raise_rule, job.thresholds, job.mis_oracle,
        events, stack, counters, order=0,
    )
    return EpochOutcome(
        job.epoch, events, stack, counters,
        dual_writes(local.alpha, job.primed_alpha),
        dual_writes(local.beta, job.primed_beta),
    )


def _run_jobs(jobs: Sequence[EpochJob]) -> List[EpochOutcome]:
    """Run a chunk of jobs in order (the pool-submitted unit of work)."""
    return [run_epoch_job(job) for job in jobs]


def _timed_run_jobs(
    jobs: Sequence[EpochJob], t_submit: float
) -> Tuple[float, List[EpochOutcome]]:
    """:func:`_run_jobs` plus the chunk's queue wait (start - submit).

    Module-level so the process backend can pickle it; the wait is
    measured with ``time.perf_counter``, which on Linux is the
    system-wide monotonic clock -- comparable across forked pool
    workers, so cross-process queue waits are real, not garbage.
    """
    wait = time.perf_counter() - t_submit
    return wait, _run_jobs(jobs)


def _record_wave(backend: str, workers: int, n_chunks: int, waits: List[float]) -> None:
    """Fold one dispatched wave into the process-default registry.

    Always-on (no opt-in plumbing down here): the cost is a few dict
    lookups per *wave*, invisible next to the jobs themselves, and it
    means pool health is observable even from services that did not
    enable request tracing.
    """
    registry = default_registry()
    registry.counter("repro_pool_waves_total", backend=backend).inc()
    registry.gauge("repro_pool_utilization", backend=backend).set(
        n_chunks / workers
    )
    if waits:
        series = registry.histogram(
            "repro_pool_queue_wait_seconds", backend=backend
        )
        for wait in waits:
            series.observe(max(0.0, wait))


class EpochExecutorBackend:
    """Where epoch jobs run.  Implementations must return one outcome
    per job; order within the returned list is immaterial (the engine
    merges by epoch), but every job must complete."""

    name: str = "?"
    #: Worker count to attribute in ``PhaseCounters.workers_used``.
    workers: int = 1

    def run_wave(self, jobs: Sequence[EpochJob]) -> List[EpochOutcome]:
        raise NotImplementedError


class SerialBackend(EpochExecutorBackend):
    """Run every job inline, in order -- the debugging backend."""

    name = "serial"
    workers = 1

    def run_wave(self, jobs: Sequence[EpochJob]) -> List[EpochOutcome]:
        return _run_jobs(jobs)


class _PooledBackend(EpochExecutorBackend):
    """Shared chunking logic of the thread and process backends.

    A wave is split into at most ``workers`` strided chunks; the calling
    thread executes the first chunk itself (caller-runs) while the pool
    chews the rest, so a wave costs at most ``workers - 1`` dispatches.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        #: The executor the last wave dispatched on -- the process
        #: backend's broken-pool eviction must target exactly this
        #: instance, never whatever happens to be registered now.
        self._last_pool: Optional[Executor] = None

    def _pool(self):
        raise NotImplementedError

    def _prepare(self, jobs: List[EpochJob]) -> List[EpochJob]:
        return jobs

    def run_wave(self, jobs: Sequence[EpochJob]) -> List[EpochOutcome]:
        jobs = self._prepare(list(jobs))
        if len(jobs) <= 1 or self.workers == 1:
            return _run_jobs(jobs)
        n_chunks = min(self.workers, len(jobs))
        chunks = [jobs[c::n_chunks] for c in range(n_chunks)]
        pool = self._pool()
        self._last_pool = pool
        t_submit = time.perf_counter()
        futures = [
            pool.submit(_timed_run_jobs, chunk, t_submit)
            for chunk in chunks[1:]
        ]
        done = _run_jobs(chunks[0])
        waits = []
        for fut in futures:
            wait, outcomes = fut.result()
            waits.append(wait)
            done.extend(outcomes)
        _record_wave(self.name, self.workers, n_chunks, waits)
        return done


#: Process-wide executor caches, one pool per worker count.  Pool
#: start-up costs a few hundred microseconds (threads) to tens of
#: milliseconds (processes) -- comparable to a whole small first phase
#: -- so pools are kept warm across solves.  :func:`shutdown_pools`
#: tears every family down explicitly (the async front door's drain
#: path and the lifecycle tests use it); an ``atexit`` hook runs it at
#: interpreter exit so retired executors never outlive the process.
_THREAD_POOLS: Dict[int, ThreadPoolExecutor] = {}
_PROCESS_POOLS: Dict[int, ProcessPoolExecutor] = {}

_PoolT = TypeVar("_PoolT", bound=Executor)


def _warm_pool(
    pools: Dict[int, _PoolT], workers: int, factory: Callable[[], _PoolT]
) -> _PoolT:
    """Fetch-or-create a keyed warm pool (shared get/setdefault dance).

    Two threads can race past the ``get`` and both construct an
    executor; ``setdefault`` picks one winner, and the loser is shut
    down immediately -- an orphaned :class:`ThreadPoolExecutor` would
    otherwise keep unjoined idle threads alive for the process
    lifetime (neither pool has run anything yet, so the losing
    shutdown is instant).
    """
    pool = pools.get(workers)
    if pool is None:
        fresh = factory()
        pool = pools.setdefault(workers, fresh)
        if pool is not fresh:
            fresh.shutdown(wait=False)
    return pool


def _shared_thread_pool(workers: int) -> ThreadPoolExecutor:
    return _warm_pool(
        _THREAD_POOLS,
        workers,
        lambda: ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-epoch"
        ),
    )


#: Warm request-level pools for the scheduling service, kept separate
#: from the epoch pools above.  Sharing one executor instance between
#: the two layers would deadlock: a service thread running an
#: ``engine="parallel"``/``backend="thread"`` solve submits epoch
#: chunks and then *blocks* on their futures -- if those chunks queue
#: behind other blocked service requests in the same executor, nothing
#: ever runs them.  Distinct instances keep every wait on a pool that
#: only executes the layer below it.
_SERVICE_POOLS: Dict[int, ThreadPoolExecutor] = {}


def shared_service_pool(workers: int) -> ThreadPoolExecutor:
    """The warm request-dispatch pool of :mod:`repro.service.server`.

    Same keyed-by-worker-count, warm-across-solves discipline as the
    epoch pools (see :data:`_THREAD_POOLS`), but a separate executor
    family so request-level waits can never starve epoch-level jobs.
    """
    if workers < 1:
        raise ValueError(f"pool workers must be positive, got {workers}")
    return _warm_pool(
        _SERVICE_POOLS,
        workers,
        lambda: ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        ),
    )


def shutdown_pools(wait: bool = True) -> int:
    """Shut down every warm pool (all three families); returns the count.

    The explicit teardown of the warm-pool discipline: the async front
    door's graceful drain calls it once all requests are resolved, the
    lifecycle tests call it to assert zero live executors, and an
    ``atexit`` hook calls it so interpreter shutdown reaps worker
    processes deterministically.  Safe to call at any quiescent point
    -- the next solve simply re-warms pools on demand -- but a solve
    *concurrently* holding a popped pool may see "cannot schedule new
    futures after shutdown"; callers drain first.
    """
    count = 0
    for pools in (_THREAD_POOLS, _PROCESS_POOLS, _SERVICE_POOLS):
        while pools:
            _, pool = pools.popitem()
            pool.shutdown(wait=wait)
            count += 1
    return count


atexit.register(shutdown_pools)


def _forget_pools_in_child() -> None:
    """Clear the warm-pool registries in a freshly forked child.

    Fork copies the registry dicts but not the pool *threads* (only the
    forking thread survives in the child), so an inherited executor is
    a zombie: submitting to it enqueues work no thread will ever run,
    and the first solve in a forked shard worker would deadlock on a
    future that never resolves.  Clearing -- not shutting down: there
    are no threads to join, and ``shutdown`` would try -- makes the
    child re-warm its own pools on first use.  Registered via
    ``os.register_at_fork``, so every fork path is covered: the shard
    workers of :mod:`repro.service.shard`, the process backend's own
    workers (which never touch pools, but harmlessly get clean state),
    and any user ``multiprocessing`` on top of the library.
    """
    for pools in (_THREAD_POOLS, _PROCESS_POOLS, _SERVICE_POOLS):
        pools.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools_in_child)


def _mp_context():
    """Fork on Linux only: child start-up is milliseconds and scripts
    run as ``__main__`` need no re-import.  macOS nominally supports
    fork but system frameworks abort forked children ("fork safety"),
    and Windows has no fork -- both get the platform default (spawn).
    Forking with warm pool threads alive draws a DeprecationWarning on
    3.12+; it is benign here because the forked workers never touch the
    parent's executor state, only their own pipe."""
    if sys.platform == "linux":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _shared_process_pool(workers: int) -> ProcessPoolExecutor:
    return _warm_pool(
        _PROCESS_POOLS,
        workers,
        lambda: ProcessPoolExecutor(
            max_workers=workers, mp_context=_mp_context()
        ),
    )


class ThreadBackend(_PooledBackend):
    """Warm thread pool: shared memory, zero copying, GIL-cooperative."""

    name = "thread"

    def _pool(self) -> ThreadPoolExecutor:
        return _shared_thread_pool(self.workers)


class ProcessBackend(_PooledBackend):
    """Warm process pool: pickled job slices, real CPU parallelism."""

    name = "process"

    def _prepare(self, jobs: List[EpochJob]) -> List[EpochJob]:
        # Each wire job gets a *private clone* of its oracle, made here
        # while nothing is executing yet.  Submitted jobs are pickled
        # lazily by the pool's feeder thread, concurrently with the
        # caller-runs chunk -- if jobs still shared one stateful oracle
        # (Luby's per-epoch RNG dict), an inline job's mutation could
        # race that pickling ("dictionary changed size during
        # iteration").  Cloning up front seals every job completely.
        prepared = []
        for job in jobs:
            wire = job.sliced()
            wire.mis_oracle = pickle.loads(pickle.dumps(wire.mis_oracle))
            prepared.append(wire)
        return prepared

    def _pool(self) -> ProcessPoolExecutor:
        return _shared_process_pool(self.workers)

    def run_wave(self, jobs: Sequence[EpochJob]) -> List[EpochOutcome]:
        try:
            return super().run_wave(jobs)
        except BrokenProcessPool:
            # A crashed worker poisons the whole executor; evict it so
            # the next solve gets a fresh pool instead of instant
            # re-failure from the warm cache -- and *shut it down*, or
            # the evicted executor's management thread, call-queue
            # feeder and dead worker processes leak for the process
            # lifetime.  Evict only if the registry still holds the
            # pool *this wave ran on*: a concurrent failure may already
            # have evicted it and a healthy replacement may be serving
            # other solves -- popping (let alone cancel-shutting) that
            # one would spuriously fail unrelated work.  ``wait=False``:
            # the manager thread is already tearing the broken pool's
            # internals down; blocking here would stall the error path.
            broken = self._last_pool
            if broken is not None and _PROCESS_POOLS.get(self.workers) is broken:
                _PROCESS_POOLS.pop(self.workers, None)
            if broken is not None:
                broken.shutdown(wait=False, cancel_futures=True)
            raise


def make_backend(backend: Optional[str], workers: int) -> EpochExecutorBackend:
    """Instantiate the named (or env-resolved) backend."""
    name = resolve_backend(backend)
    if name == "serial":
        return SerialBackend()
    if name == "thread":
        return ThreadBackend(workers)
    return ProcessBackend(workers)
