"""Tests for the line-network algorithms (Section 7)."""
import pytest

from repro.algorithms.arbitrary_lines import solve_arbitrary_lines, solve_narrow_lines
from repro.algorithms.unit_lines import solve_unit_lines
from repro.baselines.exact import solve_exact
from repro.core.interference import check_interference
from repro.core.lp import check_scaled_dual_feasible
from repro.workloads import figure1_problem, random_line_problem
from repro.workloads.trees import random_tree


class TestUnitLines:
    def test_rejects_tree_networks(self):
        from repro.core.demand import Demand
        from repro.core.problem import Problem

        star = random_tree(6, seed=0, shape="star")
        problem = Problem(networks={0: star}, demands=[Demand(0, 1, 2, 1.0)])
        with pytest.raises(ValueError):
            solve_unit_lines(problem)

    def test_rejects_heights_by_default(self):
        problem = figure1_problem()
        with pytest.raises(ValueError):
            solve_unit_lines(problem)

    @pytest.mark.parametrize("seed", range(6))
    def test_theorem_71_guarantee(self, seed):
        problem = random_line_problem(30, 10, r=2, seed=seed, window_slack=3)
        report = solve_unit_lines(problem, epsilon=0.1, seed=seed)
        report.solution.verify()
        opt = solve_exact(problem).profit
        assert opt <= report.guarantee * report.profit + 1e-6
        assert report.guarantee <= 4.0 / 0.9 + 1e-9

    def test_delta_at_most_three(self):
        problem = random_line_problem(50, 15, r=2, seed=11)
        report = solve_unit_lines(problem, epsilon=0.2, seed=0)
        assert report.result.layout.critical_set_size <= 3

    def test_window_respected(self):
        problem = random_line_problem(40, 12, r=2, seed=12, window_slack=5)
        report = solve_unit_lines(problem, epsilon=0.2, seed=1)
        for d in report.solution.selected:
            demand = problem.demand_by_id(d.demand_id)
            start = min(d.u, d.v)
            end = max(d.u, d.v) - 1
            assert demand.release <= start
            assert end <= demand.deadline
            assert d.length == demand.processing

    def test_at_most_one_placement_per_demand(self):
        problem = random_line_problem(40, 15, r=3, seed=13, window_slack=6)
        report = solve_unit_lines(problem, epsilon=0.2, seed=2)
        ids = [d.demand_id for d in report.solution.selected]
        assert len(ids) == len(set(ids))

    def test_interference_and_slackness(self):
        problem = random_line_problem(30, 10, r=2, seed=14)
        report = solve_unit_lines(problem, epsilon=0.1, seed=3)
        check_interference(report.result.events)
        check_scaled_dual_feasible(
            report.result.dual, problem.instances, report.result.slackness
        )


class TestNarrowLines:
    @pytest.mark.parametrize("seed", range(3))
    def test_guarantee(self, seed):
        problem = random_line_problem(
            25, 9, r=2, seed=seed + 60, height_profile="narrow", hmin=0.2
        )
        report = solve_narrow_lines(problem, epsilon=0.1, seed=seed)
        report.solution.verify()
        opt = solve_exact(problem).profit
        assert opt <= report.guarantee * report.profit + 1e-6
        # Lemma 6.1 with Delta = 3: (2*9+1)/(1-eps) = 19 + eps.
        assert report.guarantee <= 19.0 / 0.9 + 1e-9

    def test_rejects_wide(self):
        problem = random_line_problem(20, 6, seed=70, height_profile="bimodal")
        with pytest.raises(ValueError):
            solve_narrow_lines(problem)

    def test_rejects_bad_hmin(self):
        problem = random_line_problem(
            20, 6, r=2, seed=70, height_profile="narrow", hmin=0.1
        )
        assert problem.hmin < 0.45
        with pytest.raises(ValueError, match="exceeds an actual demand height"):
            solve_narrow_lines(problem, hmin=0.45)

    def test_identical_narrow_jobs_respect_guarantee(self):
        from repro.core.demand import WindowDemand
        from repro.core.problem import Problem
        from repro.trees.tree import make_line_network

        problem = Problem(
            networks={0: make_line_network(0, 10)},
            demands=[
                WindowDemand(i, 0, 9, 10, profit=1.0, height=0.2)
                for i in range(5)
            ],
        )
        report = solve_narrow_lines(problem, epsilon=0.05, mis="greedy")
        report.solution.verify()
        opt = solve_exact(problem).profit
        assert opt == pytest.approx(5.0)  # 5 * 0.2 = 1.0 exactly
        assert opt <= report.guarantee * report.profit + 1e-6


class TestArbitraryLines:
    def test_figure1(self):
        """Figure 1: optimum schedules {A, C} or {B, C} (profit 2)."""
        problem = figure1_problem()
        report = solve_arbitrary_lines(problem, epsilon=0.05, seed=0)
        report.solution.verify()
        assert solve_exact(problem).profit == 2.0
        assert report.profit >= 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_theorem_72_guarantee(self, seed):
        problem = random_line_problem(
            25, 10, r=2, seed=seed + 80, height_profile="bimodal", hmin=0.15
        )
        report = solve_arbitrary_lines(problem, epsilon=0.1, seed=seed)
        report.solution.verify()
        opt = solve_exact(problem).profit
        assert opt <= report.guarantee * report.profit + 1e-6
        assert report.certified_upper_bound >= opt - 1e-6

    def test_parts_when_mixed(self):
        problem = random_line_problem(
            25, 10, r=2, seed=90, height_profile="bimodal", hmin=0.2
        )
        report = solve_arbitrary_lines(problem, epsilon=0.1, seed=1)
        assert set(report.parts) == {"wide", "narrow"}

    def test_all_unit_heights(self):
        problem = random_line_problem(25, 8, r=2, seed=91)
        report = solve_arbitrary_lines(problem, epsilon=0.1, seed=2)
        assert report.name == "unit-lines"
