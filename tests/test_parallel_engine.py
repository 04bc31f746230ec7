"""Parallelism after the epoch executor: worker pools and worker counts.

Every engine runs its epochs strictly in sequence; the service runs
whole solves in parallel instead, one per request-pool thread.  This
module covers what that leaves: the ``workers`` knob of
:class:`~repro.service.server.SchedulingService` and its sizing against
the CPUs the process may use, worker-count invariance of concurrent
solves, counters and event orders that do not depend on where a solve
ran, and the per-epoch Luby substreams that keep each epoch's draws
independent of the epochs run before it (every engine relies on them
to draw the reference loop's priorities).
"""
import threading
from dataclasses import fields

import pytest

from repro.algorithms.base import line_layouts, tree_layouts
from repro.core.dual import HeightRaise, UnitRaise
from repro.core.engines import PhaseCounters
from repro.core.framework import (
    ENGINES,
    geometric_thresholds,
    narrow_xi,
    run_first_phase,
    run_two_phase,
    unit_xi,
)
from repro.core.plan import EpochPlan
from repro.distributed.conflict import build_conflict_graph, restrict
from repro.distributed.mis import luby_substream_seed, make_mis_oracle
from repro.service import SchedulingService
from repro.service import pools as pools_mod
from repro.service.pools import (
    MAX_DEFAULT_WORKERS,
    default_workers,
    shared_service_pool,
    usable_cpu_count,
)
from repro.workloads import build_workload
from tests.test_backends import BACKEND_TIMEOUT_S


def setup_case(name, size, seed):
    problem = build_workload(name, size, seed=seed)
    if name in ("bursty-lines",):
        layout = line_layouts(problem)
        rule = HeightRaise()
        xi = narrow_xi(max(layout.critical_set_size, 3), problem.hmin)
    else:
        layout, _ = tree_layouts(problem, "ideal")
        rule = UnitRaise()
        xi = unit_xi(max(layout.critical_set_size, 6))
    return problem, layout, rule, geometric_thresholds(xi, 0.25)


def results_equal(a, b):
    assert [d.instance_id for d in a.solution.selected] == [
        d.instance_id for d in b.solution.selected
    ]
    assert [
        (e.order, e.instance.instance_id, e.delta, e.step_tuple) for e in a.events
    ] == [
        (e.order, e.instance.instance_id, e.delta, e.step_tuple) for e in b.events
    ]
    assert a.counters.semantic_tuple() == b.counters.semantic_tuple()
    assert a.dual.alpha == b.dual.alpha
    assert a.dual.beta == b.dual.beta


class TestWorkersKnob:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "two"])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises(ValueError, match="workers"):
            SchedulingService(workers=bad)

    def test_default_workers_positive(self):
        assert default_workers() >= 1
        assert SchedulingService().workers == default_workers()


class TestUsableCpuCount:
    """default_workers must size against the CPUs the *process* may use
    (affinity masks, cgroup cpusets), not the machine's total count --
    the probes are resolved through the os module so they can be pinned
    here."""

    def test_process_cpu_count_probe_wins(self, monkeypatch):
        # os.process_cpu_count (3.13+) is affinity-aware; when present
        # it is authoritative even if os.cpu_count says otherwise.
        monkeypatch.setattr(
            pools_mod.os, "process_cpu_count", lambda: 3, raising=False
        )
        monkeypatch.setattr(pools_mod.os, "cpu_count", lambda: 64)
        assert usable_cpu_count() == 3
        assert default_workers() == 3

    def test_affinity_probe_caps_cpu_count(self, monkeypatch):
        # Without process_cpu_count, a 2-CPU affinity mask on a 64-CPU
        # machine must yield 2 workers, not 8.
        monkeypatch.setattr(
            pools_mod.os, "process_cpu_count", None, raising=False
        )
        monkeypatch.setattr(
            pools_mod.os, "sched_getaffinity", lambda pid: {0, 5},
            raising=False,
        )
        monkeypatch.setattr(pools_mod.os, "cpu_count", lambda: 64)
        assert usable_cpu_count() == 2
        assert default_workers() == 2

    def test_failing_affinity_probe_falls_back_to_cpu_count(self, monkeypatch):
        def boom(pid):
            raise OSError("no affinity support")

        monkeypatch.setattr(
            pools_mod.os, "process_cpu_count", None, raising=False
        )
        monkeypatch.setattr(
            pools_mod.os, "sched_getaffinity", boom, raising=False
        )
        monkeypatch.setattr(pools_mod.os, "cpu_count", lambda: 6)
        assert usable_cpu_count() == 6

    def test_unknown_probes_yield_one(self, monkeypatch):
        monkeypatch.setattr(
            pools_mod.os, "process_cpu_count", None, raising=False
        )
        monkeypatch.delattr(
            pools_mod.os, "sched_getaffinity", raising=False
        )
        monkeypatch.setattr(pools_mod.os, "cpu_count", lambda: None)
        assert usable_cpu_count() == 1
        assert default_workers() == 1

    def test_default_workers_cap(self, monkeypatch):
        monkeypatch.setattr(
            pools_mod.os, "process_cpu_count", lambda: 128, raising=False
        )
        assert default_workers() == MAX_DEFAULT_WORKERS

    def test_workers_rejected_for_serial_engines(self):
        # The framework takes no executor knob at all any more.
        problem, layout, rule, thresholds = setup_case(
            "multi-tenant-forest", 24, seed=1
        )
        oracle = make_mis_oracle("greedy", 0)
        for engine in ENGINES:
            with pytest.raises(TypeError, match="workers"):
                run_first_phase(
                    problem.instances, layout, rule, thresholds, oracle,
                    engine=engine, workers=2,
                )

    @pytest.mark.parametrize("name", ["multi-tenant-forest", "bursty-lines"])
    @pytest.mark.parametrize("mis", ["greedy", "luby", "hash"])
    def test_worker_count_invariance(self, name, mis):
        # However many solves a request pool runs at once, each one is
        # bit-identical to the solve run alone.
        problem, layout, rule, thresholds = setup_case(name, 40, seed=5)
        baseline = run_two_phase(
            problem.instances, layout, rule, thresholds,
            mis=mis, seed=5, engine="incremental",
        )
        for workers in (1, 2, 3, 8):
            pool = shared_service_pool(workers)
            futures = [
                pool.submit(
                    run_two_phase, problem.instances, layout, rule,
                    thresholds, mis=mis, seed=5, engine="incremental",
                )
                for _ in range(workers)
            ]
            for future in futures:
                results_equal(baseline, future.result(BACKEND_TIMEOUT_S))


class TestExecutor:
    def test_worker_attribution_counters(self):
        # Counters attribute nothing to workers any more: a solve on a
        # request-pool thread reports exactly the counters of the same
        # solve inline.
        problem, layout, rule, thresholds = setup_case(
            "multi-tenant-forest", 40, seed=9
        )
        names = {f.name for f in fields(PhaseCounters)}
        assert not names & {"wavefronts", "workers_used"}
        ran_on = []

        def solve():
            ran_on.append(threading.current_thread().name)
            return run_two_phase(
                problem.instances, layout, rule, thresholds,
                mis="greedy", seed=9, engine="incremental",
            )

        pooled = shared_service_pool(3).submit(solve).result(BACKEND_TIMEOUT_S)
        inline = solve()
        assert ran_on[0].startswith("repro-service")
        assert ran_on[1] == threading.current_thread().name
        for name in sorted(names):
            assert getattr(pooled.counters, name) == getattr(
                inline.counters, name
            ), name
        assert pooled.counters.semantic_tuple() == inline.counters.semantic_tuple()

    def test_event_orders_are_globally_sequential(self):
        problem, layout, rule, thresholds = setup_case(
            "multi-tenant-forest", 60, seed=11
        )
        for engine in ENGINES:
            result = run_two_phase(
                problem.instances, layout, rule, thresholds,
                mis="greedy", seed=11, engine=engine,
            )
            assert [e.order for e in result.events] == list(
                range(len(result.events))
            ), engine
            # Events arrive in epoch-major order.
            epochs = [e.step_tuple[0] for e in result.events]
            assert epochs == sorted(epochs), engine


class TestLubySubstreams:
    def test_substream_seed_depends_on_epoch(self):
        assert luby_substream_seed(0, 1) != luby_substream_seed(0, 2)
        assert luby_substream_seed(1, 1) != luby_substream_seed(2, 1)

    def test_oracle_draws_are_epoch_local(self):
        # Consuming draws in one epoch must not shift another epoch's
        # stream: querying epochs in different interleavings gives the
        # same answer per (epoch, context).
        problem, layout, rule, thresholds = setup_case(
            "multi-tenant-forest", 30, seed=13
        )
        plan = EpochPlan.build(problem.instances, layout)
        conflicts = build_conflict_graph(problem.instances)
        rich = [k for k, mine in plan.members.items() if len(mine) >= 2][:2]
        if len(rich) < 2:
            pytest.skip("workload draw produced fewer than two rich epochs")
        a, b = rich

        def query(oracle, epoch):
            members = plan.members[epoch]
            adjacency = restrict(conflicts, [d.instance_id for d in members])
            return oracle(members, adjacency, (epoch, 1, 1))[0]

        first = make_mis_oracle("luby", 42)
        res_a, res_b = query(first, a), query(first, b)
        second = make_mis_oracle("luby", 42)
        assert query(second, b) == res_b
        assert query(second, a) == res_a
