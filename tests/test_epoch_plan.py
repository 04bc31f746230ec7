"""Tests for the per-epoch planner (:mod:`repro.core.plan`).

The plan's contract: per-epoch slices partition the instance set, and
the per-epoch adjacency/index agree with their global counterparts
restricted to the group.
"""
import pytest

from repro.algorithms.base import line_layouts, tree_layouts
from repro.core.plan import EpochPlan
from repro.distributed.conflict import (
    build_conflict_graph,
    build_instance_index,
    restrict,
)
from repro.workloads import build_workload

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


def verify(plan, layout):
    """A plan's structural invariants: only non-empty epochs in
    ``1..n_epochs`` carry slices, and each carries all three."""
    epochs = set(range(1, layout.n_epochs + 1))
    assert plan.n_epochs == layout.n_epochs
    assert set(plan.members) <= epochs
    assert all(plan.members.values())
    assert set(plan.adjacency) == set(plan.index) == set(plan.members)


class TestWaves:
    """Structural invariants on every workload.  (Epochs once ran in
    waves of mutually independent epochs; they now run strictly in
    sequence, and the class keeps its name.)"""

    @pytest.mark.parametrize("name", TREE_WORKLOADS + LINE_WORKLOADS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_waves_verify(self, name, seed):
        _, layout, plan = make_plan(name, seed=seed)
        verify(plan, layout)
