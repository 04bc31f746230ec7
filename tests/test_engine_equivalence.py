"""Golden equivalence of the first-phase engines.

The incremental dirty-set engine and the vectorized columnar kernel
must be *bit-identical* to the reference Figure 7 loop -- not merely
"as good": the same solution ids, the same raise events in the same
order with the same deltas, the same stack shape and schedule
counters, and the same final dual assignment -- for every algorithm,
every MIS oracle, the paper's worked examples, and seeded random-suite
workloads.  Any divergence means the dirty-set propagation missed an
affected instance (or invented one, desynching a Luby RNG substream),
that a plan slice dropped a conflict, or that the columnar kernel's
float schedule drifted from the dict engine's association order.

Every case in this suite runs all three engines: ``both_engines``
asserts the vectorized kernel against the incremental one inline and
returns the (reference, incremental) pair for the caller's own
comparison.  The golden sweep over every registry workload and oracle
lives in ``test_backends.py``.
"""
from dataclasses import fields

import pytest

from repro.algorithms import solve_auto
from repro.algorithms.arbitrary_lines import solve_arbitrary_lines, solve_narrow_lines
from repro.algorithms.arbitrary_trees import solve_arbitrary_trees
from repro.algorithms.narrow_trees import solve_narrow_trees
from repro.algorithms.sequential import solve_sequential
from repro.algorithms.unit_lines import solve_unit_lines
from repro.algorithms.unit_trees import solve_unit_trees
from repro.baselines.panconesi_sozio import (
    solve_ps_arbitrary_lines,
    solve_ps_unit_lines,
)
from repro.core.engines import PhaseCounters
from repro.workloads import build_workload, random_tree_problem, scenario
from repro.workloads.trees import random_forest
from tests.test_backends import run_on_backend

ORACLES = ("greedy", "luby", "hash")


def assert_results_identical(ref, inc):
    """Field-by-field identity of two :class:`TwoPhaseResult` objects."""
    assert [d.instance_id for d in ref.solution.selected] == [
        d.instance_id for d in inc.solution.selected
    ]
    assert [
        (e.order, e.instance.instance_id, e.delta, e.critical_edges, e.step_tuple)
        for e in ref.events
    ] == [
        (e.order, e.instance.instance_id, e.delta, e.critical_edges, e.step_tuple)
        for e in inc.events
    ]
    assert [[d.instance_id for d in batch] for batch in ref.stack] == [
        [d.instance_id for d in batch] for batch in inc.stack
    ]
    rc, ic = ref.counters, inc.counters
    assert (rc.epochs, rc.stages, rc.steps, rc.raises) == (
        ic.epochs, ic.stages, ic.steps, ic.raises
    )
    assert rc.mis_rounds == ic.mis_rounds
    assert rc.max_steps_per_stage == ic.max_steps_per_stage
    # The admission work account (checks/admitted/rejected) is semantic
    # too; the compat-guarded tuple keeps the older golden digests
    # stable while this suite still pins it.
    assert rc.semantic_tuple(include_admission=True) == ic.semantic_tuple(
        include_admission=True
    )
    # Ordered items: DualState.value() sums in insertion order, so the
    # dual dicts must agree on it, not just on their contents.
    assert list(ref.dual.alpha.items()) == list(inc.dual.alpha.items())
    assert list(ref.dual.beta.items()) == list(inc.dual.beta.items())
    assert ref.thresholds == inc.thresholds


def assert_reports_identical(ref, inc):
    """Identity of two :class:`AlgorithmReport` objects (recursing into
    the wide/narrow parts of composite algorithms)."""
    assert [d.instance_id for d in ref.solution.selected] == [
        d.instance_id for d in inc.solution.selected
    ]
    assert ref.guarantee == inc.guarantee
    assert ref.certified_upper_bound == inc.certified_upper_bound
    if ref.result is not None or inc.result is not None:
        assert_results_identical(ref.result, inc.result)
    assert set(ref.parts) == set(inc.parts)
    for key in ref.parts:
        assert_reports_identical(ref.parts[key], inc.parts[key])


def both_engines(solver, problem, **kwargs):
    """Run all engines; vectorized is asserted against incremental
    here."""
    ref = solver(problem, engine="reference", **kwargs)
    inc = solver(problem, engine="incremental", **kwargs)
    vec = solver(problem, engine="vectorized", **kwargs)
    assert_reports_identical(inc, vec)
    return ref, inc


class TestUnitTrees:
    @pytest.mark.parametrize("mis", ORACLES)
    @pytest.mark.parametrize("name", ["figure2-unit", "figure6"])
    def test_scenarios(self, name, mis):
        ref, inc = both_engines(
            solve_unit_trees, scenario(name), epsilon=0.15, mis=mis, seed=7
        )
        assert_reports_identical(ref, inc)

    @pytest.mark.parametrize("mis", ORACLES)
    @pytest.mark.parametrize("name", ["powerlaw-trees", "deep-trees"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_suite(self, name, mis, seed):
        problem = build_workload(name, 30, seed=seed)
        ref, inc = both_engines(
            solve_unit_trees, problem, epsilon=0.2, mis=mis, seed=seed
        )
        assert_reports_identical(ref, inc)

    @pytest.mark.parametrize("mis", ORACLES)
    @pytest.mark.parametrize("seed", [0, 12, 60])
    def test_multi_tenant_forest(self, mis, seed):
        # Many small disjoint tenant trees: the most independent epochs
        # of the bundled families.
        problem = build_workload("multi-tenant-forest", 60, seed=seed)
        ref, inc = both_engines(
            solve_unit_trees, problem, epsilon=0.2, mis=mis, seed=seed
        )
        assert_reports_identical(ref, inc)

    @pytest.mark.parametrize("decomposition", ["balancing", "root_fixing"])
    def test_ablation_decompositions(self, decomposition):
        problem = build_workload("powerlaw-trees", 24, seed=5)
        ref, inc = both_engines(
            solve_unit_trees, problem, epsilon=0.2, mis="greedy", seed=5,
            decomposition=decomposition,
        )
        assert_reports_identical(ref, inc)


class TestUnitLines:
    @pytest.mark.parametrize("mis", ORACLES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_wide_vod(self, mis, seed):
        # Wide instances run the unit-height algorithm verbatim
        # (edge-disjointness is the right relaxation, Section 6).
        problem = build_workload("wide-vod-lines", 20, seed=seed)
        ref, inc = both_engines(
            solve_unit_lines, problem, epsilon=0.2, mis=mis, seed=seed,
            allow_heights=True,
        )
        assert_reports_identical(ref, inc)


class TestNarrowAlgorithms:
    @pytest.mark.parametrize("mis", ORACLES)
    def test_narrow_trees(self, mis):
        problem = random_tree_problem(
            random_forest(20, 2, seed=3), m=14, seed=4,
            height_profile="narrow", hmin=0.2,
        )
        ref, inc = both_engines(
            solve_narrow_trees, problem, epsilon=0.25, mis=mis, seed=3
        )
        assert_reports_identical(ref, inc)

    @pytest.mark.parametrize("mis", ORACLES)
    def test_narrow_lines(self, mis):
        problem = build_workload("bursty-lines", 20, seed=2)
        ref, inc = both_engines(
            solve_narrow_lines, problem, epsilon=0.3, mis=mis, seed=2
        )
        assert_reports_identical(ref, inc)


def with_serving_epsilon(names, epsilon):
    """``(name, epsilon)`` cases plus each name at ``epsilon=0.1``, the
    serving default: the longest narrow schedules, where the
    incremental engine skips the most stages.  The given epsilon keeps
    the bare workload name as its id."""
    return [pytest.param(n, epsilon, id=n) for n in names] + [
        pytest.param(n, 0.1, id=f"{n}-eps0.1") for n in names
    ]


class TestArbitraryHeights:
    @pytest.mark.parametrize("mis", ORACLES)
    @pytest.mark.parametrize(
        "name, epsilon",
        with_serving_epsilon(["figure2", "sparse-access-forest"], 0.25),
    )
    def test_trees(self, name, epsilon, mis):
        problem = build_workload(name, 30, seed=6)
        ref, inc = both_engines(
            solve_arbitrary_trees, problem, epsilon=epsilon, mis=mis, seed=6
        )
        assert_reports_identical(ref, inc)

    @pytest.mark.parametrize("mis", ORACLES)
    @pytest.mark.parametrize(
        "name, epsilon", with_serving_epsilon(["figure1", "bursty-lines"], 0.3)
    )
    def test_lines(self, name, epsilon, mis):
        problem = build_workload(name, 20, seed=8)
        ref, inc = both_engines(
            solve_arbitrary_lines, problem, epsilon=epsilon, mis=mis, seed=8
        )
        assert_reports_identical(ref, inc)


class TestSequentialAndBaselines:
    @pytest.mark.parametrize("name", ["figure6", "powerlaw-trees"])
    def test_sequential(self, name):
        problem = build_workload(name, 24, seed=9)
        ref, inc = both_engines(solve_sequential, problem)
        assert_reports_identical(ref, inc)

    @pytest.mark.parametrize("mis", ORACLES)
    def test_ps_unit_lines(self, mis):
        problem = build_workload("wide-vod-lines", 16, seed=10)
        ref, inc = both_engines(
            solve_ps_unit_lines, problem, epsilon=0.1, mis=mis, seed=10,
            allow_heights=True,
        )
        assert_reports_identical(ref, inc)

    def test_ps_arbitrary_lines(self):
        problem = build_workload("bursty-lines", 18, seed=11)
        ref, inc = both_engines(
            solve_ps_arbitrary_lines, problem, epsilon=0.1, mis="greedy", seed=11
        )
        assert_reports_identical(ref, inc)


class TestEngineValidation:
    def test_unknown_engine_rejected_early(self):
        problem = scenario("figure6")
        with pytest.raises(ValueError, match="unknown engine"):
            solve_unit_trees(problem, engine="warp")
        # The epoch executor is gone with its engine name.
        with pytest.raises(ValueError, match="unknown engine 'parallel'"):
            solve_auto(problem, engine="parallel")

    def test_unknown_phase2_engine_rejected_early(self):
        # solve_auto keeps the retired knobs for existing callers, but
        # only their surviving values: the reference pop, no executor.
        problem = scenario("figure6")
        for phase2 in ("warp", "sliced", "vectorized"):
            with pytest.raises(ValueError, match="phase2_engine=.* is retired"):
                solve_auto(problem, phase2_engine=phase2)
        for granularity in ("epoch", "component", "auto"):
            with pytest.raises(
                ValueError, match="plan_granularity=.* is retired"
            ):
                solve_auto(problem, plan_granularity=granularity)
        assert_reports_identical(
            solve_auto(problem, engine="incremental"),
            solve_auto(
                problem, engine="incremental", workers=None, backend=None,
                plan_granularity=None, phase2_engine="reference",
            ),
        )

    def test_run_two_phase_rejects_unknown_engine(self):
        from repro.algorithms.base import tree_layouts
        from repro.core.dual import UnitRaise
        from repro.core.framework import run_two_phase

        problem = scenario("figure6")
        layout, _ = tree_layouts(problem, "ideal")
        with pytest.raises(ValueError, match="unknown engine"):
            run_two_phase(
                problem.instances, layout, UnitRaise(), [0.9], engine="turbo"
            )

    def test_workers_rejected_for_serial_engines(self):
        problem = scenario("figure6")
        with pytest.raises(ValueError, match="workers=2 is retired"):
            solve_auto(problem, engine="incremental", workers=2)

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(engine="incremental", workers=2),
            dict(engine="reference", backend="thread"),
            dict(engine="vectorized", plan_granularity="epoch"),
        ],
        ids=[
            "incremental-workers", "reference-backend",
            "vectorized-plan_granularity",
        ],
    )
    def test_bad_knobs_rejected_before_any_layout_work(
        self, knobs, monkeypatch
    ):
        import repro.algorithms.auto as auto

        def spy(*args, **kwargs):
            raise AssertionError("solve started before knob validation")

        monkeypatch.setattr(auto, "solve_arbitrary_trees", spy)
        monkeypatch.setattr(auto, "solve_arbitrary_lines", spy)
        knob = next(k for k in knobs if k != "engine")
        with pytest.raises(ValueError, match=f"{knob}=.* is retired"):
            solve_auto(scenario("figure6"), **knobs)


class TestWorkSavings:
    def test_incremental_does_strictly_fewer_checks_at_scale(self):
        problem = build_workload("bursty-lines", 40, seed=12)
        ref, inc = both_engines(
            solve_narrow_lines, problem, epsilon=0.3, mis="greedy", seed=12
        )
        assert_reports_identical(ref, inc)
        assert (
            inc.result.counters.satisfaction_checks
            < ref.result.counters.satisfaction_checks
        )
        assert ref.result.counters.satisfaction_checks > 0
        assert inc.result.counters.adjacency_touches > 0


    def test_parallel_counters_match_except_attribution(self):
        # Parallel work now means whole solves in other processes, the
        # way shard workers run.  A forked solve reports every work
        # meter exactly as the inline one does, and with no worker
        # attribution fields left, no field is exempt.
        problem = build_workload("powerlaw-trees", 60, seed=13)
        inc = solve_unit_trees(
            problem, epsilon=0.2, mis="greedy", seed=13, engine="incremental"
        )
        par = run_on_backend(
            "process", solve_unit_trees, problem, epsilon=0.2, mis="greedy",
            seed=13, engine="incremental",
        )
        assert_reports_identical(inc, par)
        names = [f.name for f in fields(PhaseCounters)]
        assert not {"wavefronts", "workers_used"} & set(names)
        for name in names:
            assert getattr(par.result.counters, name) == getattr(
                inc.result.counters, name
            ), name
        assert inc.result.counters.adjacency_touches > 0
