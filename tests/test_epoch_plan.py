"""Tests for the per-epoch planner (:mod:`repro.core.plan`).

The plan's contract: per-epoch slices partition the instance set, the
per-epoch index agrees with the global one restricted to the group,
and the conflict graph a stage builds from the index's buckets for any
subset of an epoch's members is the global conflict graph induced on
that subset.
"""
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import line_layouts, tree_layouts
from repro.core.plan import EpochPlan, stage_adjacency
from repro.distributed.conflict import (
    build_conflict_graph,
    build_instance_index,
    restrict,
)
from repro.workloads import REGISTRY, build_workload

TREE_WORKLOADS = ["powerlaw-trees", "deep-trees", "multi-tenant-forest"]
LINE_WORKLOADS = ["bursty-lines", "wide-vod-lines"]
#: Every tree and every line workload of the registry.
ALL_WORKLOADS = sorted(REGISTRY)


def make_plan(name, size=40, seed=3):
    problem = build_workload(name, size, seed=seed)
    if REGISTRY[name].kind == "line":
        layout = line_layouts(problem)
    else:
        layout, _ = tree_layouts(problem, "ideal")
    return problem, layout, EpochPlan.build(problem.instances, layout)


@lru_cache(maxsize=None)
def plan_with_graphs(name):
    """*name*'s plan, its global conflict graph, and each epoch's
    conflict graph over its members (shared by hypothesis examples)."""
    problem, layout, plan = make_plan(name)
    global_adj = build_conflict_graph(problem.instances)
    epoch_adj = {
        epoch: build_conflict_graph(mine)
        for epoch, mine in plan.members.items()
    }
    return plan, global_adj, epoch_adj


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

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_adjacency_matches_global_restriction(self, name, data):
        # A stage's unsatisfied set is any subset of its epoch's
        # members; the graph built from the buckets it touches must be
        # the epoch's (and the global) conflict graph induced on it.
        plan, global_adj, epoch_adj = plan_with_graphs(name)
        epoch = data.draw(st.sampled_from(sorted(plan.members)), "epoch")
        mine = plan.members[epoch]
        picked = data.draw(
            st.sets(st.sampled_from(range(len(mine)))), "subset"
        )
        subset = [mine[k] for k in sorted(picked)]
        ids = [d.instance_id for d in subset]
        got = stage_adjacency(plan.index[epoch], subset)
        assert got == restrict(epoch_adj[epoch], ids)
        assert got == restrict(global_adj, ids)

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_whole_epoch_adjacency_matches_global_restriction(self, name):
        plan, global_adj, epoch_adj = plan_with_graphs(name)
        for epoch, mine in plan.members.items():
            ids = [d.instance_id for d in mine]
            got = stage_adjacency(plan.index[epoch], mine)
            assert got == epoch_adj[epoch] == restrict(global_adj, ids)

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
    ``1..n_epochs`` carry slices, and each carries both."""
    epochs = set(range(1, layout.n_epochs + 1))
    assert plan.n_epochs == layout.n_epochs
    assert set(plan.members) <= epochs
    assert all(plan.members.values())
    assert set(plan.index) == set(plan.members)


class TestWaves:
    """Structural invariants on every workload.  (Epochs once ran in
    waves of mutually independent epochs; they now run strictly in
    sequence, and the class keeps its name.)"""

    @pytest.mark.parametrize("name", TREE_WORKLOADS + LINE_WORKLOADS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_waves_verify(self, name, seed):
        _, layout, plan = make_plan(name, seed=seed)
        verify(plan, layout)
