"""Tests for the two-phase framework engine (Section 3.2, Figure 7).

Beyond unit behaviour, these tests re-derive the proof obligations of
Lemma 3.1 on real runs: the interference property, the predecessor
bound, the dual-objective inequality, and final lambda-satisfaction.
"""
import math

import pytest

from repro.algorithms.base import line_layouts, tree_layouts
from repro.core.dual import HeightRaise, UnitRaise
from repro.core.framework import (
    ENGINES,
    InstanceLayout,
    geometric_thresholds,
    narrow_xi,
    run_first_phase,
    run_two_phase,
    unit_xi,
)
from repro.core.interference import (
    check_dual_objective_bound,
    check_interference,
    check_predecessor_bound,
)
from repro.core.lp import check_scaled_dual_feasible
from repro.distributed.mis import make_mis_oracle
from repro.workloads import (
    build_workload,
    random_line_problem,
    random_tree_problem,
    scenario,
)
from repro.workloads.trees import random_forest
from tests.test_backends import ENGINE_CASES, run_engine_case, run_on_backend
from tests.test_engine_equivalence import assert_results_identical


class TestThresholds:
    def test_geometric_thresholds_reach_one_minus_eps(self):
        taus = geometric_thresholds(14 / 15, 0.1)
        assert taus[-1] >= 0.9
        assert all(t2 > t1 for t1, t2 in zip(taus, taus[1:]))

    def test_single_stage_when_eps_large(self):
        taus = geometric_thresholds(0.5, 0.5)
        assert taus == [0.5]

    @pytest.mark.parametrize("xi", [0.0, 1.0, -0.5, 2.0])
    def test_xi_validation(self, xi):
        with pytest.raises(ValueError):
            geometric_thresholds(xi, 0.1)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1])
    def test_eps_validation(self, eps):
        with pytest.raises(ValueError):
            geometric_thresholds(0.9, eps)

    def test_unit_xi_constants(self):
        # The paper's constants hold *exactly* (the formulas are exact
        # rational arithmetic in floats): 14/15 for trees (Delta = 6,
        # Section 5) and 8/9 for lines (Delta = 3, Section 7).
        assert unit_xi(6) == 14 / 15
        assert unit_xi(3) == 8 / 9

    def test_thresholds_lie_in_unit_interval(self):
        for xi, eps in [(14 / 15, 0.05), (8 / 9, 0.3), (0.99, 0.5)]:
            taus = geometric_thresholds(xi, eps)
            assert all(0.0 < t < 1.0 for t in taus)
            assert taus == sorted(taus)
            assert taus[-1] >= 1.0 - eps - 1e-12

    @pytest.mark.parametrize("xi", [1e-9, 0.999])
    def test_xi_open_interval_boundaries_accepted(self, xi):
        # (0, 1) is open: values inside, even near the edges, must work.
        # (xi -> 1 makes the schedule length ~log(eps)/log(xi) blow up,
        # so "near" stays within a few thousand stages.)
        taus = geometric_thresholds(xi, 0.5)
        assert taus and all(0.0 < t < 1.0 for t in taus)

    def test_eps_message_names_bounds(self):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
            geometric_thresholds(0.9, 1.5)
        with pytest.raises(ValueError, match=r"xi must lie in \(0, 1\)"):
            geometric_thresholds(-0.1, 0.5)

    def test_narrow_xi_monotone_in_hmin(self):
        assert narrow_xi(6, 0.5) < narrow_xi(6, 0.1)

    def test_narrow_xi_validation(self):
        with pytest.raises(ValueError):
            narrow_xi(6, 0.6)
        with pytest.raises(ValueError):
            narrow_xi(6, 0.0)

    @pytest.mark.parametrize("hmin", [-0.1, 0.5 + 1e-9, 2.0])
    def test_narrow_xi_rejects_out_of_range_hmin(self, hmin):
        with pytest.raises(ValueError, match=r"hmin must lie in \(0, 1/2\]"):
            narrow_xi(6, hmin)

    def test_narrow_xi_accepts_half_closed_boundary(self):
        # (0, 1/2] is closed on the right: exactly 1/2 is legal and
        # still yields a usable stage ratio in (0, 1).
        xi = narrow_xi(6, 0.5)
        assert 0.0 < xi < 1.0
        assert geometric_thresholds(xi, 0.3)


def run_unit_tree_case(seed, mis="greedy", epsilon=0.2, m=14, n=24, r=2):
    problem = random_tree_problem(
        random_forest(n, r, seed=seed), m=m, seed=seed + 1
    )
    layout, _ = tree_layouts(problem, "ideal")
    thresholds = geometric_thresholds(unit_xi(6), epsilon)
    result = run_two_phase(
        problem.instances, layout, UnitRaise(), thresholds, mis=mis, seed=seed
    )
    return problem, result


class TestFirstPhaseInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_all_instances_lambda_satisfied(self, seed):
        problem, result = run_unit_tree_case(seed)
        check_scaled_dual_feasible(result.dual, problem.instances, result.slackness)

    @pytest.mark.parametrize("seed", range(4))
    def test_interference_property(self, seed):
        _, result = run_unit_tree_case(seed)
        check_interference(result.events)

    @pytest.mark.parametrize("seed", range(4))
    def test_predecessor_bound(self, seed):
        _, result = run_unit_tree_case(seed)
        check_predecessor_bound(result.events)

    @pytest.mark.parametrize("seed", range(4))
    def test_dual_objective_bound(self, seed):
        _, result = run_unit_tree_case(seed)
        check_dual_objective_bound(result.dual, result.events, UnitRaise())

    def test_each_instance_raised_at_most_once(self):
        _, result = run_unit_tree_case(9)
        raised = [ev.instance.instance_id for ev in result.events]
        assert len(raised) == len(set(raised))

    def test_raises_within_step_are_independent(self):
        _, result = run_unit_tree_case(10)
        from collections import defaultdict

        by_step = defaultdict(list)
        for ev in result.events:
            by_step[ev.step_tuple].append(ev.instance)
        for batch in by_step.values():
            for i, a in enumerate(batch):
                for b in batch[i + 1 :]:
                    assert not a.conflicts_with(b)

    def test_epoch_order_follows_groups(self):
        _, result = run_unit_tree_case(11)
        last_epoch = 0
        for ev in result.events:
            assert ev.step_tuple[0] >= last_epoch
            last_epoch = ev.step_tuple[0]


class TestLemma31Inequality:
    """val(alpha, beta) <= (Delta + 1) * p(S) -- the heart of Lemma 3.1."""

    @pytest.mark.parametrize("seed", range(6))
    def test_unit_case(self, seed):
        _, result = run_unit_tree_case(seed)
        delta = result.layout.critical_set_size
        assert result.dual.value() <= (delta + 1) * result.profit + 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_certified_ratio_at_most_guarantee(self, seed):
        _, result = run_unit_tree_case(seed)
        delta = result.layout.critical_set_size
        assert result.certified_ratio <= (delta + 1) / result.slackness + 1e-6


class TestSecondPhase:
    @pytest.mark.parametrize("seed", range(4))
    def test_solution_feasible(self, seed):
        _, result = run_unit_tree_case(seed)
        result.solution.verify()

    def test_solution_maximal_against_stack(self):
        # Every stacked instance is either selected or conflicts with a
        # selected one (the "successor" argument of Lemma 3.1).
        _, result = run_unit_tree_case(12)
        selected = list(result.solution.selected)
        chosen_ids = {d.instance_id for d in selected}
        for batch in result.stack:
            for d in batch:
                if d.instance_id in chosen_ids:
                    continue
                assert any(d.conflicts_with(s) for s in selected)


class TestHeightFramework:
    @pytest.mark.parametrize("seed", range(3))
    def test_narrow_invariants(self, seed):
        problem = random_tree_problem(
            random_forest(20, 2, seed=seed),
            m=12,
            seed=seed + 5,
            height_profile="narrow",
            hmin=0.2,
        )
        layout, _ = tree_layouts(problem, "ideal")
        thresholds = geometric_thresholds(narrow_xi(6, problem.hmin), 0.2)
        result = run_two_phase(
            problem.instances, layout, HeightRaise(), thresholds, mis="greedy", seed=seed
        )
        result.solution.verify()
        check_scaled_dual_feasible(result.dual, problem.instances, result.slackness)
        check_interference(result.events)
        check_dual_objective_bound(result.dual, result.events, HeightRaise())
        # Lemma 6.1: val <= (2 Delta^2 + 1) p(S).
        delta = layout.critical_set_size
        assert result.dual.value() <= (2 * delta * delta + 1) * result.profit + 1e-6


class TestCounters:
    def test_counters_consistent(self):
        _, result = run_unit_tree_case(13)
        c = result.counters
        assert c.raises == len(result.events)
        assert c.steps == len(result.stack)
        assert c.phase2_rounds == len(result.stack)
        assert c.communication_rounds >= c.steps

    def test_lemma_51_step_bound(self):
        # Steps per stage obey 1 + log2(pmax/pmin) (kill factor 2).
        problem = random_tree_problem(
            random_forest(24, 2, seed=3), m=16, seed=4, pmax_over_pmin=8.0
        )
        layout, _ = tree_layouts(problem, "ideal")
        thresholds = geometric_thresholds(unit_xi(6), 0.2)
        result = run_two_phase(
            problem.instances, layout, UnitRaise(), thresholds, mis="greedy", seed=0
        )
        bound = 1 + math.ceil(math.log2(problem.pmax / problem.pmin)) + 1
        assert result.counters.max_steps_per_stage <= bound

    def test_requires_thresholds(self):
        problem, _ = run_unit_tree_case(1)
        layout, _ = tree_layouts(problem, "ideal")
        with pytest.raises(ValueError):
            run_two_phase(problem.instances, layout, UnitRaise(), [], mis="greedy")

    @pytest.mark.parametrize("engine", ENGINE_CASES)
    @pytest.mark.parametrize(
        "thresholds, bad_index",
        [([1.5], 0), ([-1.0], 0), ([0.9, 0.5], 1)],
    )
    def test_rejects_invalid_schedules(self, thresholds, bad_index, engine):
        # Out of (0, 1] or decreasing: rejected up front, naming the
        # offending threshold, not misreported as a stall or a bad
        # slackness later.
        problem = scenario("figure2-unit")
        layout, _ = tree_layouts(problem, "ideal")
        with pytest.raises(ValueError, match=f"threshold {bad_index}"):
            run_engine_case(
                engine, run_two_phase, problem.instances, layout,
                UnitRaise(), thresholds, mis="greedy",
            )

    def test_equal_neighbour_thresholds_run_identically(self):
        problem = scenario("figure2-unit")
        layout, _ = tree_layouts(problem, "ideal")
        ref, *others = (
            run_two_phase(
                problem.instances, layout, UnitRaise(), [0.5, 0.5, 0.9],
                mis="luby", seed=4, engine=engine,
            )
            for engine in ENGINES
        )
        assert ref.slackness == 0.9
        for other in others:
            assert_results_identical(ref, other)


def stages_with_raises(events):
    """Distinct (epoch, stage) coordinates in a raise log."""
    return len({e.step_tuple[:2] for e in events})


class TestStagesEntered:
    """``stages_entered`` counts the stages an engine actually works in."""

    @staticmethod
    def narrow_line_case():
        problem = build_workload("bursty-lines", 24, seed=3)
        layout = line_layouts(problem)
        xi = narrow_xi(max(layout.critical_set_size, 3), problem.hmin)
        return (
            problem.instances, layout, HeightRaise(),
            geometric_thresholds(xi, 0.1),
        )

    def run(self, engine):
        instances, layout, rule, thresholds = self.narrow_line_case()
        _, _, events, counters = run_first_phase(
            instances, layout, rule, thresholds, make_mis_oracle("luby", 3),
            engine=engine,
        )
        return events, counters

    def test_reference_enters_every_stage(self):
        _, counters = self.run("reference")
        assert counters.stages_entered == counters.stages

    @pytest.mark.parametrize(
        "backend", ["serial", "thread", "process"],
        ids=["incremental", "parallel-thread", "parallel-process"],
    )
    def test_skipping_engines_enter_only_stages_with_raises(self, backend):
        # The incremental engine inline, and in parallel with the
        # caller: on a pool thread and in a forked process.
        events, counters = run_on_backend(backend, self.run, "incremental")
        assert counters.stages_entered == stages_with_raises(events)
        assert counters.stages_entered < counters.stages


class TestLayoutMerge:
    def test_from_layered_merges_epochs(self):
        problem = random_line_problem(30, 8, r=2, seed=5)
        layout = line_layouts(problem)
        assert layout.n_epochs >= 1
        assert set(layout.group_of) == {d.instance_id for d in problem.instances}

    def test_critical_set_size(self):
        problem = random_line_problem(30, 8, r=2, seed=6)
        layout = line_layouts(problem)
        assert 1 <= layout.critical_set_size <= 3

    def test_empty_layout(self):
        layout = InstanceLayout(group_of={}, pi={}, n_epochs=0)
        assert layout.critical_set_size == 0
