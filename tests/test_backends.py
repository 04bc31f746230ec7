"""Golden cross-backend differential harness.

Every solve is serial: both engines run epochs strictly in sequence.
What runs in parallel is whole solves, on the execution backends of
the serving tier:

* ``serial`` -- inline, in the caller's thread;
* ``thread`` -- a pool worker thread, the way
  :class:`~repro.service.server.SchedulingService` runs each cache miss
  (several at once);
* ``process`` -- a forked worker process, the way
  :class:`~repro.service.shard.ShardCluster` runs each shard; the
  report comes back through ``pickle``.

A solve on any backend must be **bit-identical** to
``engine="incremental"`` run inline -- as must the reference engine --
for every registry workload and every bundled MIS oracle.  One
comparable value captures the whole contract:
:meth:`TwoPhaseResult.semantic_tuple` folds the selected ids, the full
raise log (exact float deltas), the stack shape, the schedule counters
and the final dual assignments *as ordered items* into a single tuple,
so any divergence -- including a dual dict whose keys were created in a
different order, which would silently change ``DualState.value()``'s
float summation -- fails loudly.

The full sweep (every workload x oracle x backend, the reference
engine included) is marked ``slow``; the quick CI legs run the
unmarked smoke subset (`-m "not slow"`), which still crosses every
backend.

The module also holds the surviving checks of the retired executor
knobs (``workers=`` / ``backend=`` reach only ``solve_auto`` and
``SolveKnobs``, which accept ``None`` alone) and the lifecycle of the
warm request pools, and it provides :func:`run_on_backend` and
:func:`run_engine_case` to the suites that cross every engine.
"""
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

from repro.algorithms import solve_auto
from repro.algorithms.arbitrary_lines import solve_arbitrary_lines
from repro.algorithms.arbitrary_trees import solve_arbitrary_trees
from repro.core.framework import ENGINES
from repro.service import SchedulingService, SolveKnobs, pools
from repro.workloads import build_workload, get_workload, workload_names

ORACLES = ("greedy", "luby", "hash")

#: Where a whole solve can run; see the module docstring.
BACKENDS = ("thread", "process", "serial")

#: The engine cases of the suites that cross every engine: the two
#: serial engines, plus ``"parallel"`` -- concurrent solves, the
#: parallelism the serving tier keeps (see :func:`run_engine_case`).
ENGINE_CASES = (*ENGINES, "parallel")

#: Seconds a call may run on a backend before its test fails rather
#: than hangs.
BACKEND_TIMEOUT_S = 300

#: (size, seed, epsilon) per workload kind; fixed scenarios ignore size.
SWEEP_SIZE = 26
SWEEP_SEED = 4
EPSILON = {"tree": 0.25, "line": 0.3}

#: Per-(workload, oracle) engine runs are shared across the backend
#: parametrization; solving them once keeps the sweep from being
#: quadratically slow.
_BASELINES = {}


def run_on_backend(backend, fn, *args, **kwargs):
    """Call ``fn(*args, **kwargs)`` on one execution backend; returns its
    result or re-raises its exception."""
    if backend == "serial":
        return fn(*args, **kwargs)
    if backend == "thread":
        return run_on_threads(1, fn, *args, **kwargs)[0].result()
    if backend == "process":
        return run_in_fork(fn, *args, **kwargs)
    raise ValueError(f"unknown backend {backend!r}")


def run_on_threads(copies, fn, *args, **kwargs):
    """Run *copies* calls of ``fn(*args, **kwargs)`` at once on pool
    threads; returns their futures, all done."""
    pool = ThreadPoolExecutor(max_workers=copies)
    try:
        futures = [pool.submit(fn, *args, **kwargs) for _ in range(copies)]
        _, pending = wait(futures, timeout=BACKEND_TIMEOUT_S)
        if pending:
            raise TimeoutError(f"{fn.__name__} hung on a pool thread")
        return futures
    finally:
        pool.shutdown(wait=False)


def _send_outcome(conn, fn, args, kwargs):
    """Body of the worker process of :func:`run_in_fork`."""
    try:
        outcome = (True, fn(*args, **kwargs))
    except Exception as exc:
        outcome = (False, exc)
    conn.send(outcome)


def run_in_fork(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` in a forked worker process, the start
    method :class:`~repro.service.shard.ShardCluster` forks its shards
    with; the result (or exception) comes back through ``pickle``."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(
        target=_send_outcome, args=(sender, fn, args, kwargs)
    )
    worker.start()
    sender.close()
    try:
        if not receiver.poll(BACKEND_TIMEOUT_S):
            raise TimeoutError(f"{fn.__name__} hung in a worker process")
        ok, value = receiver.recv()
    finally:
        receiver.close()
        worker.join(timeout=10)
        if worker.is_alive():
            worker.kill()
            worker.join()
    if not ok:
        raise value
    return value


def run_engine_case(engine, fn, *args, **kwargs):
    """Run ``fn(*args, engine=..., **kwargs)`` for one of
    :data:`ENGINE_CASES`; returns every run's result.

    A serial engine runs once, inline.  ``"parallel"`` runs the
    incremental engine twice at once on two pool threads, as concurrent
    cache misses of one service do.  Both runs must end alike: if one
    raises, both must raise the same error, which is re-raised here.
    """
    if engine != "parallel":
        return [fn(*args, engine=engine, **kwargs)]
    futures = run_on_threads(2, fn, *args, engine="incremental", **kwargs)
    errors = [future.exception() for future in futures]
    if any(error is not None for error in errors):
        assert len({repr(error) for error in errors}) == 1, (
            f"concurrent runs ended differently: {errors}"
        )
        raise errors[0]
    return [future.result() for future in futures]


def solve(name, mis, **kwargs):
    """Solve a registry workload with the algorithm family its kind
    demands (arbitrary-heights entry points subsume unit/narrow/wide)."""
    spec = get_workload(name)
    problem = build_workload(name, SWEEP_SIZE, seed=SWEEP_SEED)
    solver = solve_arbitrary_trees if spec.kind == "tree" else solve_arbitrary_lines
    return solver(
        problem, epsilon=EPSILON[spec.kind], mis=mis, seed=SWEEP_SEED, **kwargs
    )


def baseline(name, mis, engine="incremental"):
    key = (name, mis, engine)
    if key not in _BASELINES:
        _BASELINES[key] = solve(name, mis, engine=engine)
    return _BASELINES[key]


def assert_identical_reports(expected, got, what):
    """Bit-identity of two reports via semantic tuples, recursing into
    the wide/narrow parts of composite algorithms."""
    assert set(expected.parts) == set(got.parts), what
    if expected.result is not None or got.result is not None:
        a, b = expected.result, got.result
        assert a.semantic_tuple() == b.semantic_tuple(), (
            f"{what}: semantic tuples diverged"
        )
        # Insertion order of the dual dicts, asserted explicitly: the
        # semantic tuple covers it via ordered items, but a bare key
        # listing names the first out-of-place key on failure.
        assert list(a.dual.alpha) == list(b.dual.alpha), what
        assert list(a.dual.beta) == list(b.dual.beta), what
    assert expected.guarantee == got.guarantee, what
    assert expected.certified_upper_bound == got.certified_upper_bound, what
    for part in expected.parts:
        assert_identical_reports(expected.parts[part], got.parts[part], f"{what}/{part}")


class TestGoldenSweep:
    """Every registry workload x oracle x backend, and x engine."""

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mis", ORACLES)
    @pytest.mark.parametrize("name", workload_names())
    def test_backend_matches_incremental(self, name, mis, backend):
        got = run_on_backend(backend, solve, name, mis, engine="incremental")
        assert_identical_reports(
            baseline(name, mis), got, f"{name}/{mis}/{backend}"
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("mis", ORACLES)
    @pytest.mark.parametrize("name", workload_names())
    def test_reference_matches_incremental(self, name, mis):
        assert_identical_reports(
            baseline(name, mis, "reference"), baseline(name, mis),
            f"{name}/{mis}/reference",
        )


class TestSmokeSweep:
    """The always-on subset: one tree and one line family, every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mis", ("greedy", "luby"))
    @pytest.mark.parametrize("name", ("multi-tenant-forest", "bursty-lines"))
    def test_backend_matches_incremental(self, name, mis, backend):
        got = run_on_backend(backend, solve, name, mis, engine="incremental")
        assert_identical_reports(
            baseline(name, mis), got, f"{name}/{mis}/{backend}"
        )


class TestBackendKnob:
    """``workers=`` and ``backend=`` configured the deleted epoch
    executor.  Only ``solve_auto`` and ``SolveKnobs`` still take them,
    for existing callers, and accept ``None`` alone."""

    def test_unknown_backend_rejected_early(self, monkeypatch):
        import repro.algorithms.auto as auto

        def spy(*args, **kwargs):
            raise AssertionError("solve started before knob validation")

        problem = build_workload("multi-tenant-forest", 12, seed=0)
        with pytest.raises(TypeError, match="backend"):
            solve_arbitrary_trees(problem, backend="gpu")
        monkeypatch.setattr(auto, "solve_arbitrary_trees", spy)
        with pytest.raises(ValueError, match="backend='gpu' is retired"):
            solve_auto(problem, backend="gpu")

    @pytest.mark.parametrize("knob", ["backend", "workers"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_parallel_knobs_rejected_for_serial_engines(self, engine, knob):
        from repro.algorithms.base import tree_layouts
        from repro.core.dual import UnitRaise
        from repro.core.framework import run_two_phase

        problem = build_workload("multi-tenant-forest", 12, seed=0)
        layout, _ = tree_layouts(problem, "ideal")
        value = "serial" if knob == "backend" else 2
        with pytest.raises(TypeError, match=knob):
            run_two_phase(
                problem.instances, layout, UnitRaise(), [0.9],
                mis="greedy", engine=engine, **{knob: value},
            )
        with pytest.raises(ValueError, match=f"{knob}={value!r} is retired"):
            solve_auto(problem, engine=engine, **{knob: value})

    def test_serial_backend_rejects_pooled_workers(self):
        # Every solve runs serially now, so backend='serial' is retired
        # with the rest; pooled workers belong to the service's request
        # pool, never to a solve.
        problem = build_workload("multi-tenant-forest", 12, seed=0)
        for knobs in (dict(workers=3, backend="serial"), dict(backend="serial")):
            with pytest.raises(ValueError, match="is retired"):
                solve_auto(problem, **knobs)
            with pytest.raises(ValueError, match="is retired"):
                SolveKnobs(**knobs).validate()
        assert SchedulingService(workers=3).workers == 3

    def test_env_var_resolves_default_backend(self, monkeypatch):
        # REPRO_BACKEND once picked the executor's default backend.  It
        # is read nowhere now: a setting left in an environment must
        # change neither a solve nor its cache key.
        code = (
            "from repro.algorithms import solve_auto;"
            "from repro.service import SolveKnobs, report_semantic_digest,"
            " solve_fingerprint;"
            "from repro.workloads import build_workload;"
            "p = build_workload('multi-tenant-forest', 12, seed=0);"
            "print(report_semantic_digest(solve_auto(p, engine='incremental')),"
            " solve_fingerprint(p, SolveKnobs(engine='incremental')).digest)"
        )
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        outputs = []
        for setting in (None, "process"):
            env = dict(os.environ)
            if setting is not None:
                env["REPRO_BACKEND"] = setting
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                timeout=BACKEND_TIMEOUT_S,
            )
            assert out.returncode == 0, out.stderr
            outputs.append(out.stdout.split())
        assert len(outputs[0]) == 2
        assert outputs[0] == outputs[1]

    def test_env_var_with_unknown_backend_fails(self, monkeypatch):
        # An unknown backend still fails, by name, wherever a caller
        # passes it; the environment is not consulted, so an unknown
        # REPRO_BACKEND neither fails nor changes a solve.
        from repro.service import report_semantic_digest

        problem = build_workload("multi-tenant-forest", 12, seed=0)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        expected = report_semantic_digest(solve_auto(problem))
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        assert report_semantic_digest(solve_auto(problem)) == expected
        with pytest.raises(ValueError, match="backend='quantum' is retired"):
            solve_auto(problem, backend="quantum")
        with pytest.raises(ValueError, match="backend='quantum' is retired"):
            SolveKnobs(backend="quantum").validate()


class TestExecutorLifecycle:
    """The warm request-pool registry of :mod:`repro.service.pools` must
    never leak executors: setdefault losers are shut down, and
    ``shutdown_pools()`` empties the registry and joins every thread."""

    def test_warm_pool_race_shuts_down_losers(self):
        # Hammer _warm_pool from many threads racing on one empty key;
        # exactly one constructed executor may survive in the registry,
        # and every loser must have been shut down (not orphaned with
        # live idle threads).
        import threading

        n_threads = 16
        rounds = 25
        constructed = []
        lock = threading.Lock()

        def factory():
            pool = ThreadPoolExecutor(max_workers=1)
            with lock:
                constructed.append(pool)
            return pool

        for _ in range(rounds):
            registry = {}
            barrier = threading.Barrier(n_threads)
            winners = []

            def hammer():
                barrier.wait()
                winners.append(pools._warm_pool(registry, 2, factory))

            threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(registry) == 1
            assert all(w is registry[2] for w in winners), (
                "every racer must receive the one registered pool"
            )
            for pool in constructed:
                if pool is not registry[2]:
                    assert pool._shutdown, "losing executor leaked un-shutdown"
            registry[2].shutdown(wait=True)
            constructed.clear()

    def test_shutdown_pools_empties_every_family(self):
        # The request pools are the one family left; one pool per
        # worker count.
        pools.shared_service_pool(2)
        pools.shared_service_pool(3)
        assert len(pools._SERVICE_POOLS) >= 2
        count = pools.shutdown_pools(wait=True)
        assert count >= 2
        assert not pools._SERVICE_POOLS
        # Teardown is not terminal: the next fetch re-warms on demand.
        pool = pools.shared_service_pool(2)
        fut = pool.submit(lambda: 41 + 1)
        assert fut.result() == 42
        assert pools.shutdown_pools(wait=True) == 1

    def test_no_live_pool_threads_after_shutdown(self):
        import threading

        pool = pools.shared_service_pool(3)
        pool.submit(lambda: None).result()  # force a worker to spawn
        assert any(
            t.name.startswith("repro-service") for t in threading.enumerate()
        )
        pools.shutdown_pools(wait=True)
        assert not any(
            t.name.startswith("repro-service") for t in threading.enumerate()
        ), "shutdown_pools(wait=True) must join every pool thread"
