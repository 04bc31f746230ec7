"""Property-based invariants of the first-phase engines.

On arbitrary seeded workloads, both engines must uphold the structural
facts the paper's proofs rest on: every stack batch is an independent
set of the conflict graph, the second-phase solution is
capacity-feasible, weak duality certifies ``certified_ratio >= 1``, and
every raise leaves the raised instance's dual constraint *tight* (the
property Lemma 3.1's charging argument needs).  A regression test pins
the progress guard: a non-progressing MIS oracle must abort with an
error naming the stalled (epoch, stage) after at most ``len(members)``
steps, not silently loop -- also deep in a schedule, past stages the
incremental engine skips, and in each of two solves run at once.  The
due-stage bisection behind that skip is checked against a linear scan
at float boundaries, and the engine's inlined due-stage search against
that bisection of ``DualState.lhs``.
"""
import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.base import line_layouts, tree_layouts
from repro.core.demand import Demand, DemandInstance
from repro.core.dual import DualState, HeightRaise, UnitRaise
from repro.core.engines.incremental import (
    due_stage_finder,
    first_failing_stage,
)
from repro.core.framework import (
    InstanceLayout,
    geometric_thresholds,
    narrow_xi,
    run_first_phase,
    run_two_phase,
    unit_xi,
)
from repro.core.problem import Problem
from repro.core.types import EPS
from repro.distributed.conflict import build_conflict_graph, is_independent
from repro.distributed.mis import make_mis_oracle
from repro.trees.tree import TreeNetwork
from repro.workloads import build_workload, scenario, workload_names
from tests.test_backends import ENGINE_CASES, run_engine_case

COMMON = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Scale workloads paired with the raise rule / xi their heights allow.
TREE_UNIT = ("powerlaw-trees", "deep-trees")
LINE_NARROW = ("bursty-lines",)


def run_workload(name, size, seed, engine):
    """Run the two-phase framework on a registry workload."""
    problem = build_workload(name, size, seed=seed)
    if name in TREE_UNIT:
        layout, _ = tree_layouts(problem, "ideal")
        rule = UnitRaise()
        xi = unit_xi(max(layout.critical_set_size, 6))
    else:
        layout = line_layouts(problem)
        rule = HeightRaise()
        xi = narrow_xi(max(layout.critical_set_size, 3), problem.hmin)
    thresholds = geometric_thresholds(xi, 0.3)
    result = run_two_phase(
        problem.instances, layout, rule, thresholds,
        mis="greedy", seed=seed, engine=engine,
    )
    return problem, rule, result


workload_cases = st.tuples(
    st.sampled_from(TREE_UNIT + LINE_NARROW),
    st.integers(min_value=6, max_value=30),
    st.integers(min_value=0, max_value=2_000),
)


class TestStackAndSolution:
    @given(workload_cases)
    @settings(**COMMON)
    def test_stack_batches_are_independent_sets(self, case):
        name, size, seed = case
        problem, _, result = run_workload(name, size, seed, "incremental")
        adj = build_conflict_graph(problem.instances)
        for batch in result.stack:
            assert is_independent([d.instance_id for d in batch], adj)

    @given(workload_cases)
    @settings(**COMMON)
    def test_solution_capacity_feasible(self, case):
        name, size, seed = case
        _, _, result = run_workload(name, size, seed, "incremental")
        result.solution.verify()

    @given(workload_cases)
    @settings(**COMMON)
    def test_certified_ratio_at_least_one(self, case):
        name, size, seed = case
        _, _, result = run_workload(name, size, seed, "incremental")
        # Weak duality: val/lambda >= p(Opt) >= p(S), so the per-run
        # certificate can never claim better-than-optimal.
        assert result.certified_ratio >= 1.0 - 1e-9


class TestRaisesAreTight:
    @given(workload_cases)
    @settings(**COMMON)
    def test_each_raise_leaves_constraint_tight(self, case):
        name, size, seed = case
        _, rule, result = run_workload(name, size, seed, "incremental")
        replay = DualState(use_height_rule=rule.use_height_rule)
        for ev in result.events:
            d = ev.instance
            if rule.use_alpha:
                replay.alpha[d.demand_id] = (
                    replay.alpha.get(d.demand_id, 0.0) + ev.delta
                )
            inc = rule.beta_increment(ev.delta, len(ev.critical_edges))
            for e in ev.critical_edges:
                replay.beta[e] = replay.beta.get(e, 0.0) + inc
            assert abs(replay.slack(d)) <= 1e-6 * max(1.0, d.profit), (
                f"raise {ev.order} left instance {d.instance_id} non-tight"
            )
        # The replayed assignment is the run's final dual state.
        assert replay.alpha == pytest.approx(result.dual.alpha)
        assert replay.beta == pytest.approx(result.dual.beta)


def _stalling_oracle(candidates, adjacency, context=None):
    """A broken MIS oracle that never selects anything."""
    return set(), 0


_greedy = make_mis_oracle("greedy", 0)


def _oracle_stalling_in_epoch_2(candidates, adjacency, context):
    """Greedy MIS, except that it selects nothing in epoch 2."""
    if context[0] == 2:
        return set(), 0
    return _greedy(candidates, adjacency, context)


class TestProgressGuard:
    @pytest.mark.parametrize("engine", ENGINE_CASES)
    def test_stall_aborts_with_epoch_and_stage(self, engine):
        problem = scenario("figure2-unit")
        instances = problem.instances
        layout = InstanceLayout(
            group_of={d.instance_id: 1 for d in instances},
            pi={d.instance_id: () for d in instances},
            n_epochs=1,
        )
        with pytest.raises(RuntimeError) as excinfo:
            run_engine_case(
                engine, run_first_phase,
                instances, layout, UnitRaise(), [0.9], _stalling_oracle,
            )
        message = str(excinfo.value)
        assert "epoch 1" in message
        assert "stage 1" in message
        # The guard fires at len(members), not one step late.
        assert f"exceeded {len(instances)} steps" in message

    @pytest.mark.parametrize("engine", ENGINE_CASES)
    def test_stall_deep_in_schedule_names_its_stage(self, engine):
        # Epoch 1 raises <0,1> to tight, which leaves <0,2> (profit 2)
        # with LHS 0.5: it satisfies stages 1 and 2 of the schedule and
        # first fails stage 3, where the oracle stalls.  An engine that
        # skips stages must still report the stage it stalled in.
        problem = Problem(
            networks={0: TreeNetwork(0, [(0, 1), (1, 2)])},
            demands=[Demand(0, 0, 1, 1.0), Demand(1, 0, 2, 2.0)],
        )
        first, second = problem.instances
        layout = InstanceLayout(
            group_of={first.instance_id: 1, second.instance_id: 2},
            pi={first.instance_id: ((0, 0, 1),), second.instance_id: ((0, 1, 2),)},
            n_epochs=2,
        )
        with pytest.raises(RuntimeError, match="epoch 2, stage 3:"):
            run_engine_case(
                engine, run_first_phase,
                problem.instances, layout, UnitRaise(),
                geometric_thresholds(0.9, 0.3), _oracle_stalling_in_epoch_2,
            )

    @pytest.mark.parametrize("engine", ENGINE_CASES)
    def test_guard_does_not_fire_on_healthy_runs(self, engine):
        # A real oracle satisfies >= 1 member per step, so even the
        # worst case (sequential: one raise per step) stays within the
        # guard.  max_steps_per_stage must respect the bound the guard
        # enforces.
        for name in workload_names(scale=True):
            size = 12
            problem = build_workload(name, size, seed=1)
            if name in TREE_UNIT:
                layout, _ = tree_layouts(problem, "ideal")
            elif name in LINE_NARROW:
                layout = line_layouts(problem)
            else:
                continue
            groups = {}
            for d in problem.instances:
                groups.setdefault(layout.group_of[d.instance_id], []).append(d)
            rule = UnitRaise() if name in TREE_UNIT else HeightRaise()
            results = run_engine_case(
                engine, run_two_phase,
                problem.instances, layout, rule,
                geometric_thresholds(0.9, 0.3),
                mis="greedy", seed=1,
            )
            largest_group = max(len(v) for v in groups.values())
            for result in results:
                assert result.counters.max_steps_per_stage <= largest_group


def linear_first_failing_stage(lhs, profit, thresholds, lo):
    """The specification :func:`first_failing_stage` must match."""
    for k in range(lo, len(thresholds)):
        if not DualState.lhs_satisfies(lhs, profit, thresholds[k]):
            return k
    return len(thresholds)


@st.composite
def due_stage_cases(draw):
    """A geometric schedule (sometimes with one threshold repeated),
    an LHS on or one ulp beside some threshold's satisfaction edge,
    and an arbitrary start index."""
    thresholds = geometric_thresholds(
        draw(st.floats(min_value=0.05, max_value=0.998)),
        draw(st.floats(min_value=0.01, max_value=0.95)),
    )
    j = draw(st.integers(min_value=0, max_value=len(thresholds) - 1))
    if draw(st.booleans()):
        thresholds.insert(j, thresholds[j])
    profit = draw(st.floats(min_value=1e-3, max_value=1e3))
    edge = thresholds[j] * profit - EPS
    lhs = draw(
        st.sampled_from(
            [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
        )
    )
    lo = draw(st.integers(min_value=0, max_value=len(thresholds)))
    return lhs, profit, thresholds, lo


@st.composite
def dual_due_stage_cases(draw):
    """A dual state, an instance whose LHS sits on or one ulp beside
    some threshold's satisfaction edge (its profit chosen to put it
    there), a schedule as above and a start index."""
    thresholds = geometric_thresholds(
        draw(st.floats(min_value=0.05, max_value=0.998)),
        draw(st.floats(min_value=0.01, max_value=0.95)),
    )
    j = draw(st.integers(min_value=0, max_value=len(thresholds) - 1))
    if draw(st.booleans()):
        thresholds.insert(j, thresholds[j])
    dual = DualState(use_height_rule=draw(st.booleans()))
    length = draw(st.integers(min_value=1, max_value=6))
    weights = st.one_of(st.none(), st.floats(min_value=0.0, max_value=50.0))
    verts = tuple(range(length + 1))
    for u, w in zip(verts, draw(st.lists(weights, min_size=length, max_size=length))):
        if w is not None:
            dual.beta[(0, u, u + 1)] = w
    alpha = draw(weights)
    if alpha is not None:
        dual.alpha[7] = alpha
    d = DemandInstance(
        instance_id=0, demand_id=7, network_id=0, u=0, v=length,
        profit=1.0, height=draw(st.floats(min_value=0.01, max_value=1.0)),
        path_vertex_seq=verts,
        path_edges=frozenset((0, u, u + 1) for u in verts[:-1]),
    )
    profit = max((dual.lhs(d) + EPS) / thresholds[j], 1e-3)
    profit = draw(
        st.sampled_from(
            [math.nextafter(profit, 0.0), profit, math.nextafter(profit, math.inf)]
        )
    )
    lo = draw(st.integers(min_value=0, max_value=len(thresholds)))
    return dual, dataclasses.replace(d, profit=profit), thresholds, lo


class TestDueStage:
    @given(due_stage_cases())
    @settings(max_examples=300, deadline=None)
    def test_bisection_matches_linear_scan(self, case):
        lhs, profit, thresholds, lo = case
        assert first_failing_stage(lhs, profit, thresholds, lo) == (
            linear_first_failing_stage(lhs, profit, thresholds, lo)
        )

    @given(dual_due_stage_cases())
    @settings(max_examples=300, deadline=None)
    def test_finder_matches_specification(self, case):
        # The engine's inlined LHS and search against the specification
        # they replace: DualState.lhs, then first_failing_stage.
        dual, d, thresholds, lo = case
        due = due_stage_finder(dual, thresholds)
        assert due(d, lo) == first_failing_stage(
            dual.lhs(d), d.profit, thresholds, lo
        )
