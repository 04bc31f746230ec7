"""Tests for the epoch-graph planner (:mod:`repro.core.plan`).

The plan's contract: per-epoch slices partition the instance set, the
per-epoch adjacency/index agree with their global counterparts
restricted to the group, interactions capture every shared path edge or
demand, and the waves are a precedence-respecting partition into
independence classes.
"""
import pytest

from repro.algorithms.base import line_layouts, tree_layouts
from repro.core.plan import EpochPlan
from repro.distributed.conflict import (
    build_conflict_graph,
    build_instance_index,
    restrict,
)
from repro.workloads import build_workload, scenario

TREE_WORKLOADS = ["powerlaw-trees", "deep-trees", "multi-tenant-forest"]
LINE_WORKLOADS = ["bursty-lines", "wide-vod-lines"]


def make_plan(name, size=40, seed=3):
    problem = build_workload(name, size, seed=seed)
    if name in LINE_WORKLOADS:
        layout = line_layouts(problem)
    else:
        layout, _ = tree_layouts(problem, "ideal")
    return problem, layout, EpochPlan.build(problem.instances, layout)


class TestSlices:
    @pytest.mark.parametrize("name", TREE_WORKLOADS + LINE_WORKLOADS)
    def test_members_partition_instances_in_order(self, name):
        problem, layout, plan = make_plan(name)
        seen = [d.instance_id for mine in plan.members.values() for d in mine]
        assert sorted(seen) == [d.instance_id for d in problem.instances]
        for epoch, mine in plan.members.items():
            for d in mine:
                assert layout.group_of[d.instance_id] == epoch
            # Slices preserve the global instance order within the group.
            ids = [d.instance_id for d in mine]
            assert ids == sorted(ids)

    @pytest.mark.parametrize("name", TREE_WORKLOADS + LINE_WORKLOADS)
    def test_adjacency_matches_global_restriction(self, name):
        problem, layout, plan = make_plan(name)
        global_adj = build_conflict_graph(problem.instances)
        for epoch, mine in plan.members.items():
            ids = [d.instance_id for d in mine]
            assert plan.adjacency[epoch] == restrict(global_adj, ids)

    @pytest.mark.parametrize("name", TREE_WORKLOADS)
    def test_index_agrees_with_global_on_members(self, name):
        problem, layout, plan = make_plan(name)
        global_index = build_instance_index(problem.instances)
        for epoch, mine in plan.members.items():
            member_ids = {d.instance_id for d in mine}
            local = plan.index[epoch]
            for d in mine:
                want = global_index.affected_by(
                    d.demand_id, layout.pi[d.instance_id]
                ) & member_ids
                got = local.affected_by(d.demand_id, layout.pi[d.instance_id])
                assert set(got) == want


class TestInteractions:
    @pytest.mark.parametrize("name", TREE_WORKLOADS + LINE_WORKLOADS)
    def test_interactions_are_exactly_shared_edges_or_demands(self, name):
        problem, layout, plan = make_plan(name)
        edges = {
            epoch: set().union(*(d.path_edges for d in mine))
            for epoch, mine in plan.members.items()
        }
        demands = {
            epoch: {d.demand_id for d in mine}
            for epoch, mine in plan.members.items()
        }
        for j in plan.members:
            for k in plan.members:
                if j >= k:
                    continue
                expected = bool(
                    (edges[j] & edges[k]) or (demands[j] & demands[k])
                )
                assert (k in plan.interactions[j]) == expected
                assert (j in plan.interactions[k]) == expected

    @pytest.mark.parametrize("name", TREE_WORKLOADS + LINE_WORKLOADS)
    def test_shared_key_sets_cover_interaction_evidence(self, name):
        problem, layout, plan = make_plan(name)
        for epoch, mine in plan.members.items():
            my_edges = set().union(*(d.path_edges for d in mine))
            my_demands = {d.demand_id for d in mine}
            others_edges = set()
            others_demands = set()
            for other, theirs in plan.members.items():
                if other == epoch:
                    continue
                others_edges |= set().union(*(d.path_edges for d in theirs))
                others_demands |= {d.demand_id for d in theirs}
            assert plan.shared_edges[epoch] == my_edges & others_edges
            assert plan.shared_demands[epoch] == my_demands & others_demands


class TestWaves:
    @pytest.mark.parametrize("name", TREE_WORKLOADS + LINE_WORKLOADS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_waves_verify(self, name, seed):
        _, _, plan = make_plan(name, seed=seed)
        plan.verify()
        assert plan.n_waves >= 1
        assert plan.width >= 1

    def test_chained_epochs_serialize(self):
        # The worked tree example is small and dense: its epochs all
        # touch the same few edges, so the plan must serialize them.
        problem = scenario("figure6")
        layout, _ = tree_layouts(problem, "ideal")
        plan = EpochPlan.build(problem.instances, layout)
        plan.verify()
        non_empty = [k for k, mine in plan.members.items() if mine]
        if len(non_empty) > 1:
            assert plan.n_waves > 1

    def test_multi_tenant_forest_has_width(self):
        # The headline workload of bench_e17: the planner must find
        # genuinely independent epochs to run concurrently.
        _, _, plan = make_plan("multi-tenant-forest", size=160, seed=160)
        plan.verify()
        assert plan.width >= 2

    def test_empty_epochs_carry_no_constraints(self):
        problem, layout, plan = make_plan("powerlaw-trees")
        empty = [
            k for k in range(1, layout.n_epochs + 1) if k not in plan.members
        ]
        wave0 = set(plan.waves[0]) if plan.waves else set()
        for k in empty:
            assert not plan.interactions[k]
            assert k in wave0
