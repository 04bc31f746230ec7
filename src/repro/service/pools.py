"""Warm request-dispatch pools of the scheduling service.

:class:`~repro.service.server.SchedulingService` runs each cache miss
on a process-wide :class:`ThreadPoolExecutor`, keyed by worker count
and kept warm across solves: pool start-up costs a few hundred
microseconds, comparable to a whole small solve.
:func:`shutdown_pools` tears every pool down explicitly (the async
front door's drain path and the lifecycle tests use it); an ``atexit``
hook runs it at interpreter exit, and a ``register_at_fork`` hook
clears the registry in forked children such as the shard workers of
:mod:`repro.service.shard`.

Solves themselves are serial.  Multi-core serving forks whole services
(:class:`~repro.service.shard.ShardCluster`) and parallelizes at the
request level.
"""
from __future__ import annotations

import atexit
import os
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Callable, Dict, TypeVar

__all__ = [
    "MAX_DEFAULT_WORKERS",
    "default_workers",
    "shared_service_pool",
    "shutdown_pools",
    "usable_cpu_count",
]

#: Default worker-pool size cap: pool ramp-up isn't free, and past a
#: handful of GIL-bound solve threads more workers only queue.
MAX_DEFAULT_WORKERS = 8


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
    """The ``workers=None`` resolution of the service pools."""
    return min(MAX_DEFAULT_WORKERS, usable_cpu_count())


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


#: Process-wide warm request-dispatch pools, one per worker count.
_SERVICE_POOLS: Dict[int, ThreadPoolExecutor] = {}


def shared_service_pool(workers: int) -> ThreadPoolExecutor:
    """The warm request-dispatch pool of :mod:`repro.service.server`."""
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
    """Shut down every warm pool; returns the count.

    The explicit teardown of the warm-pool discipline: the async front
    door's graceful drain calls it once all requests are resolved, the
    lifecycle tests call it to assert zero live executors, and an
    ``atexit`` hook calls it at interpreter shutdown.  Safe to call at
    any quiescent point -- the next solve simply re-warms pools on
    demand -- but a solve *concurrently* holding a popped pool may see
    "cannot schedule new futures after shutdown"; callers drain first.
    """
    count = 0
    while _SERVICE_POOLS:
        _, pool = _SERVICE_POOLS.popitem()
        pool.shutdown(wait=wait)
        count += 1
    return count


atexit.register(shutdown_pools)


def _forget_pools_in_child() -> None:
    """Clear the warm-pool registry in a freshly forked child.

    Fork copies the registry dict but not the pool *threads* (only the
    forking thread survives in the child), so an inherited executor is
    a zombie: submitting to it enqueues work no thread will ever run,
    and the first solve in a forked shard worker would deadlock on a
    future that never resolves.  Clearing -- not shutting down: there
    are no threads to join, and ``shutdown`` would try -- makes the
    child re-warm its own pools on first use.  Registered via
    ``os.register_at_fork``, so every fork path is covered: the shard
    workers of :mod:`repro.service.shard` and any user
    ``multiprocessing`` on top of the library.
    """
    _SERVICE_POOLS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools_in_child)
