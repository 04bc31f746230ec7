"""Golden cross-engine differential harness for the execution backends.

The parallel engine's three backends (thread pool, process pool, inline
serial) must be **bit-identical** to ``engine="incremental"`` -- and to
each other -- for every registry workload and every bundled MIS oracle.
One comparable value captures the whole contract:
:meth:`TwoPhaseResult.semantic_tuple` folds the
selected ids, the full raise log (exact float deltas), the stack shape,
the schedule counters and the final dual assignments *as ordered items*
into a single tuple, so any divergence -- including a dual dict whose
keys were created in a different order, which would silently change
``DualState.value()``'s float summation -- fails loudly.

The full sweep (every workload x oracle x backend, reference engine
included) is marked ``slow``; the quick CI legs run the unmarked smoke
subset (`-m "not slow"`), which still crosses every backend.
"""
import os
import subprocess
import sys

import pytest

from repro.algorithms.arbitrary_lines import solve_arbitrary_lines
from repro.algorithms.arbitrary_trees import solve_arbitrary_trees
from repro.core.engines import BACKENDS
from repro.workloads import build_workload, get_workload, workload_names

ORACLES = ("greedy", "luby", "hash")

#: (size, seed, epsilon) per workload kind; fixed scenarios ignore size.
SWEEP_SIZE = 26
SWEEP_SEED = 4
EPSILON = {"tree": 0.25, "line": 0.3}

#: Per-(workload, oracle) incremental/reference runs are shared across
#: the backend parametrization; solving them once keeps the sweep from
#: being quadratically slow.
_BASELINES = {}


def solve(name, mis, **kwargs):
    """Solve a registry workload with the algorithm family its kind
    demands (arbitrary-heights entry points subsume unit/narrow/wide)."""
    spec = get_workload(name)
    problem = build_workload(name, SWEEP_SIZE, seed=SWEEP_SEED)
    solver = solve_arbitrary_trees if spec.kind == "tree" else solve_arbitrary_lines
    return solver(
        problem, epsilon=EPSILON[spec.kind], mis=mis, seed=SWEEP_SEED, **kwargs
    )


def baseline(name, mis):
    key = (name, mis)
    if key not in _BASELINES:
        _BASELINES[key] = {
            "incremental": solve(name, mis, engine="incremental"),
            "reference": solve(name, mis, engine="reference"),
        }
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
    """Every registry workload x engine x backend x oracle."""

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mis", ORACLES)
    @pytest.mark.parametrize("name", workload_names())
    def test_backend_matches_incremental(self, name, mis, backend):
        base = baseline(name, mis)
        workers = 1 if backend == "serial" else 2
        par = solve(
            name, mis, engine="parallel", workers=workers, backend=backend
        )
        assert_identical_reports(
            base["incremental"], par, f"{name}/{mis}/parallel-{backend}"
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("mis", ORACLES)
    @pytest.mark.parametrize("name", workload_names())
    def test_reference_matches_incremental(self, name, mis):
        base = baseline(name, mis)
        assert_identical_reports(
            base["reference"], base["incremental"], f"{name}/{mis}/reference"
        )


class TestSmokeSweep:
    """The always-on subset: one tree and one line family, every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mis", ("greedy", "luby"))
    @pytest.mark.parametrize("name", ("multi-tenant-forest", "bursty-lines"))
    def test_backend_matches_incremental(self, name, mis, backend):
        base = baseline(name, mis)
        workers = 1 if backend == "serial" else 2
        par = solve(
            name, mis, engine="parallel", workers=workers, backend=backend
        )
        assert_identical_reports(
            base["incremental"], par, f"{name}/{mis}/parallel-{backend}"
        )


class TestBackendKnob:
    def test_unknown_backend_rejected_early(self):
        problem = build_workload("multi-tenant-forest", 12, seed=0)
        with pytest.raises(ValueError, match="unknown backend"):
            solve_arbitrary_trees(problem, engine="parallel", backend="gpu")

    @pytest.mark.parametrize("knob", ["backend", "workers"])
    @pytest.mark.parametrize(
        "engine", ["reference", "incremental", "vectorized"]
    )
    def test_parallel_knobs_rejected_for_serial_engines(self, engine, knob):
        from repro.algorithms.base import tree_layouts
        from repro.core.dual import UnitRaise
        from repro.core.framework import run_two_phase

        problem = build_workload("multi-tenant-forest", 12, seed=0)
        layout, _ = tree_layouts(problem, "ideal")
        value = "serial" if knob == "backend" else 2
        with pytest.raises(ValueError, match=f"{knob}= applies only"):
            run_two_phase(
                problem.instances, layout, UnitRaise(), [0.9],
                mis="greedy", engine=engine, **{knob: value},
            )

    def test_serial_backend_rejects_pooled_workers(self):
        from repro.core.engines import ParallelEpochExecutor

        with pytest.raises(ValueError, match="serial"):
            ParallelEpochExecutor(workers=3, backend="serial")
        assert ParallelEpochExecutor(backend="serial").workers == 1

    def test_env_var_resolves_default_backend(self):
        # The CI smoke leg runs the unmodified suite under
        # REPRO_BACKEND=process; resolution must honor it only when the
        # caller left backend=None.
        code = (
            "from repro.core.engines import ParallelEpochExecutor;"
            "assert ParallelEpochExecutor(workers=2).backend_name == 'process';"
            "assert ParallelEpochExecutor(workers=2, backend='thread')"
            ".backend_name == 'thread';"
            "print('ok')"
        )
        env = dict(os.environ, REPRO_BACKEND="process")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert out.returncode == 0, out.stderr
        assert "ok" in out.stdout

    def test_env_var_with_unknown_backend_fails(self):
        from repro.core.engines import resolve_backend

        assert resolve_backend(None) in BACKENDS
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("quantum")

    def test_env_resolved_serial_coerces_pooled_workers(self, monkeypatch):
        # REPRO_BACKEND=serial must run unmodified callers that pass
        # workers=N with backend=None -- coercing to one worker, not
        # crashing; the workers/serial conflict error is reserved for an
        # *explicit* backend='serial'.
        from repro.core.engines import ParallelEpochExecutor

        monkeypatch.setenv("REPRO_BACKEND", "serial")
        executor = ParallelEpochExecutor(workers=4)
        assert executor.backend_name == "serial"
        assert executor.workers == 1
        with pytest.raises(ValueError, match="serial"):
            ParallelEpochExecutor(workers=4, backend="serial")


class TestExecutorLifecycle:
    """The warm-pool registries must never leak executors: setdefault
    losers are shut down, broken process pools are shut down on
    eviction, and ``shutdown_pools()`` tears every family down."""

    def test_warm_pool_race_shuts_down_losers(self):
        # Hammer _warm_pool from many threads racing on one empty key;
        # exactly one constructed executor may survive in the registry,
        # and every loser must have been shut down (not orphaned with
        # live idle threads).
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.engines.backends import _warm_pool

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
            pools = {}
            barrier = threading.Barrier(n_threads)
            winners = []

            def hammer():
                barrier.wait()
                winners.append(_warm_pool(pools, 2, factory))

            threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(pools) == 1
            assert all(w is pools[2] for w in winners), (
                "every racer must receive the one registered pool"
            )
            for pool in constructed:
                if pool is not pools[2]:
                    assert pool._shutdown, "losing executor leaked un-shutdown"
            pools[2].shutdown(wait=True)
            constructed.clear()

    def test_shutdown_pools_empties_every_family(self):
        from repro.core.engines import backends

        # Warm one pool in each family, then tear down.
        backends._shared_thread_pool(2)
        backends.shared_service_pool(2)
        backends._shared_process_pool(2)
        assert backends._THREAD_POOLS and backends._SERVICE_POOLS
        assert backends._PROCESS_POOLS
        count = backends.shutdown_pools(wait=True)
        assert count >= 3
        assert not backends._THREAD_POOLS
        assert not backends._PROCESS_POOLS
        assert not backends._SERVICE_POOLS
        # Teardown is not terminal: the next fetch re-warms on demand.
        pool = backends._shared_thread_pool(2)
        fut = pool.submit(lambda: 41 + 1)
        assert fut.result() == 42
        assert backends.shutdown_pools(wait=True) == 1

    def test_no_live_pool_threads_after_shutdown(self):
        import threading

        from repro.core.engines import backends

        pool = backends.shared_service_pool(3)
        pool.submit(lambda: None).result()  # force a worker to spawn
        assert any(
            t.name.startswith("repro-service") for t in threading.enumerate()
        )
        backends.shutdown_pools(wait=True)
        assert not any(
            t.name.startswith("repro-service") for t in threading.enumerate()
        ), "shutdown_pools(wait=True) must join every pool thread"

    def test_broken_process_pool_eviction_shuts_pool_down(self):
        # A BrokenProcessPool must evict the poisoned executor from the
        # warm registry *and* shut it down -- popping without shutdown
        # leaks its management thread and dead workers.  Simulated with
        # a stub pool so the test is deterministic and fast.
        from concurrent.futures.process import BrokenProcessPool

        import pytest

        from repro.core.engines import backends

        class StubBrokenPool:
            def __init__(self):
                self.shutdown_calls = []

            def submit(self, fn, *args):
                raise BrokenProcessPool("worker died abruptly")

            def shutdown(self, wait=True, cancel_futures=False):
                self.shutdown_calls.append((wait, cancel_futures))

        workers = 7919  # a key no real solve uses
        stub = StubBrokenPool()
        backends._PROCESS_POOLS[workers] = stub
        backend = backends.ProcessBackend(workers)
        backend._prepare = lambda jobs: jobs  # dummy jobs: skip slicing
        try:
            with pytest.raises(BrokenProcessPool):
                backend.run_wave([object(), object()])
            assert workers not in backends._PROCESS_POOLS, (
                "broken pool must be evicted from the warm registry"
            )
            assert stub.shutdown_calls, "evicted broken pool must be shut down"
        finally:
            backends._PROCESS_POOLS.pop(workers, None)
