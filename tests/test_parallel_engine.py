"""Tests for the parallel first-phase engine (plan -> execute -> merge).

Golden equivalence across algorithms lives in
``test_engine_equivalence.py`` (every case there runs the parallel
engine too); this module covers the executor itself: the workers knob,
plan passthrough, worker-count invariance, the worker-attribution
counters, and the per-epoch Luby substreams that make epoch executions
order-independent.
"""
import pytest

from repro.algorithms.base import line_layouts, tree_layouts
from repro.core.dual import HeightRaise, UnitRaise
from repro.core.engines import backends as backends_mod
from repro.core.engines.backends import MAX_DEFAULT_WORKERS, usable_cpu_count
from repro.core.engines.parallel import ParallelEpochExecutor, default_workers
from repro.core.framework import (
    geometric_thresholds,
    narrow_xi,
    run_first_phase,
    run_two_phase,
    unit_xi,
)
from repro.core.plan import EpochPlan
from repro.distributed.mis import luby_substream_seed, make_mis_oracle
from repro.workloads import build_workload


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
            ParallelEpochExecutor(workers=bad)

    def test_default_workers_positive(self):
        assert default_workers() >= 1
        assert ParallelEpochExecutor().workers == default_workers()


class TestUsableCpuCount:
    """default_workers must size against the CPUs the *process* may use
    (affinity masks, cgroup cpusets), not the machine's total count --
    the probes are resolved through the os module so they can be pinned
    here."""

    def test_process_cpu_count_probe_wins(self, monkeypatch):
        # os.process_cpu_count (3.13+) is affinity-aware; when present
        # it is authoritative even if os.cpu_count says otherwise.
        monkeypatch.setattr(
            backends_mod.os, "process_cpu_count", lambda: 3, raising=False
        )
        monkeypatch.setattr(backends_mod.os, "cpu_count", lambda: 64)
        assert usable_cpu_count() == 3
        assert default_workers() == 3

    def test_affinity_probe_caps_cpu_count(self, monkeypatch):
        # Without process_cpu_count, a 2-CPU affinity mask on a 64-CPU
        # machine must yield 2 workers, not 8.
        monkeypatch.setattr(
            backends_mod.os, "process_cpu_count", None, raising=False
        )
        monkeypatch.setattr(
            backends_mod.os, "sched_getaffinity", lambda pid: {0, 5},
            raising=False,
        )
        monkeypatch.setattr(backends_mod.os, "cpu_count", lambda: 64)
        assert usable_cpu_count() == 2
        assert default_workers() == 2

    def test_failing_affinity_probe_falls_back_to_cpu_count(self, monkeypatch):
        def boom(pid):
            raise OSError("no affinity support")

        monkeypatch.setattr(
            backends_mod.os, "process_cpu_count", None, raising=False
        )
        monkeypatch.setattr(
            backends_mod.os, "sched_getaffinity", boom, raising=False
        )
        monkeypatch.setattr(backends_mod.os, "cpu_count", lambda: 6)
        assert usable_cpu_count() == 6

    def test_unknown_probes_yield_one(self, monkeypatch):
        monkeypatch.setattr(
            backends_mod.os, "process_cpu_count", None, raising=False
        )
        monkeypatch.delattr(
            backends_mod.os, "sched_getaffinity", raising=False
        )
        monkeypatch.setattr(backends_mod.os, "cpu_count", lambda: None)
        assert usable_cpu_count() == 1
        assert default_workers() == 1

    def test_default_workers_cap(self, monkeypatch):
        monkeypatch.setattr(
            backends_mod.os, "process_cpu_count", lambda: 128, raising=False
        )
        assert default_workers() == MAX_DEFAULT_WORKERS

    def test_workers_rejected_for_serial_engines(self):
        problem, layout, rule, thresholds = setup_case(
            "multi-tenant-forest", 24, seed=1
        )
        oracle = make_mis_oracle("greedy", 0)
        for engine in ("reference", "incremental"):
            with pytest.raises(ValueError, match="workers"):
                run_first_phase(
                    problem.instances, layout, rule, thresholds, oracle,
                    engine=engine, workers=2,
                )

    @pytest.mark.parametrize("name", ["multi-tenant-forest", "bursty-lines"])
    @pytest.mark.parametrize("mis", ["greedy", "luby", "hash"])
    def test_worker_count_invariance(self, name, mis):
        problem, layout, rule, thresholds = setup_case(name, 40, seed=5)
        baseline = run_two_phase(
            problem.instances, layout, rule, thresholds,
            mis=mis, seed=5, engine="incremental",
        )
        for workers in (1, 2, 3, 8):
            par = run_two_phase(
                problem.instances, layout, rule, thresholds,
                mis=mis, seed=5, engine="parallel", workers=workers,
            )
            results_equal(baseline, par)


class TestExecutor:
    def test_worker_attribution_counters(self):
        problem, layout, rule, thresholds = setup_case(
            "multi-tenant-forest", 40, seed=9
        )
        plan = EpochPlan.build(problem.instances, layout)
        # backend pinned: a REPRO_BACKEND=serial override would truthfully
        # report workers_used=1 and fail the attribution assertion below.
        result = run_two_phase(
            problem.instances, layout, rule, thresholds,
            mis="greedy", seed=9, engine="parallel", workers=3,
            backend="thread",
        )
        assert result.counters.workers_used == 3
        assert result.counters.wavefronts == plan.n_waves
        # Serial engines never set the attribution fields.
        inc = run_two_phase(
            problem.instances, layout, rule, thresholds,
            mis="greedy", seed=9, engine="incremental",
        )
        assert inc.counters.wavefronts == 0 and inc.counters.workers_used == 0
        assert result.counters.semantic_tuple() == inc.counters.semantic_tuple()

    def test_event_orders_are_globally_sequential(self):
        problem, layout, rule, thresholds = setup_case(
            "multi-tenant-forest", 60, seed=11
        )
        result = run_two_phase(
            problem.instances, layout, rule, thresholds,
            mis="greedy", seed=11, engine="parallel", workers=4,
        )
        assert [e.order for e in result.events] == list(range(len(result.events)))
        # Events arrive in epoch-major order, like the serial engines.
        epochs = [e.step_tuple[0] for e in result.events]
        assert epochs == sorted(epochs)


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
        rich = [k for k, mine in plan.members.items() if len(mine) >= 2][:2]
        if len(rich) < 2:
            pytest.skip("workload draw produced fewer than two rich epochs")
        a, b = rich

        def query(oracle, epoch):
            members = plan.members[epoch]
            return oracle(
                members, plan.adjacency[epoch], (epoch, 1, 1)
            )[0]

        first = make_mis_oracle("luby", 42)
        res_a, res_b = query(first, a), query(first, b)
        second = make_mis_oracle("luby", 42)
        assert query(second, b) == res_b
        assert query(second, a) == res_a
