"""Tests for the epoch-graph planner (:mod:`repro.core.plan`).

The plan's contract: per-epoch slices partition the instance set, the
per-epoch adjacency/index agree with their global counterparts
restricted to the group, interactions capture every shared path edge
or demand, and they bound which epochs a perturbation can reach.
"""
import pytest

from repro.algorithms.base import line_layouts, tree_layouts
from repro.core.engines.journal import predict_dirty_epochs
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
        # Every path edge or demand an epoch shares with some other
        # epoch is shared with an epoch it interacts with.
        problem, layout, plan = make_plan(name)
        edges = {
            epoch: set().union(*(d.path_edges for d in mine))
            for epoch, mine in plan.members.items()
        }
        demands = {
            epoch: {d.demand_id for d in mine}
            for epoch, mine in plan.members.items()
        }
        for epoch in plan.members:
            others = [k for k in plan.members if k != epoch]
            partners = plan.interactions[epoch]
            shared_edges = edges[epoch] & set().union(*(edges[k] for k in others))
            shared_demands = demands[epoch] & set().union(
                *(demands[k] for k in others)
            )
            assert shared_edges == edges[epoch] & set().union(
                *(edges[k] for k in partners)
            )
            assert shared_demands == demands[epoch] & set().union(
                *(demands[k] for k in partners)
            )
            assert bool(partners) == bool(shared_edges or shared_demands)


def verify(plan, layout):
    """A plan's structural invariants: interactions are keyed by exactly
    the epochs ``1..n_epochs``, symmetric and irreflexive, and only
    non-empty epochs carry slices."""
    epochs = set(range(1, layout.n_epochs + 1))
    assert plan.n_epochs == layout.n_epochs
    assert set(plan.interactions) == epochs
    for k, nbrs in plan.interactions.items():
        assert k not in nbrs
        assert nbrs <= epochs
        for j in nbrs:
            assert k in plan.interactions[j]
    assert set(plan.members) <= epochs
    assert all(plan.members.values())
    assert set(plan.adjacency) == set(plan.index) == set(plan.members)


class TestWaves:
    """Epoch independence.  Epochs once ran in waves of mutually
    independent epochs; they now run strictly in sequence, and the same
    interaction graph bounds how far a perturbation travels
    (:func:`~repro.core.engines.journal.predict_dirty_epochs`)."""

    @pytest.mark.parametrize("name", TREE_WORKLOADS + LINE_WORKLOADS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_waves_verify(self, name, seed):
        _, layout, plan = make_plan(name, seed=seed)
        verify(plan, layout)

    def test_chained_epochs_serialize(self):
        # The worked tree example is small and dense: its epochs all
        # touch the same few edges, so a perturbation of the first one
        # travels through every later one.
        problem = scenario("figure6")
        layout, _ = tree_layouts(problem, "ideal")
        plan = EpochPlan.build(problem.instances, layout)
        verify(plan, layout)
        non_empty = sorted(plan.members)
        assert len(non_empty) > 1
        touched = frozenset({plan.members[non_empty[0]][0].demand_id})
        assert predict_dirty_epochs(plan, touched, frozenset()) == set(non_empty)

    def test_multi_tenant_forest_has_width(self):
        # Tenants share nothing, so the planner must find genuinely
        # independent epochs: perturbing one tenant leaves some epoch
        # clean.
        _, layout, plan = make_plan("multi-tenant-forest", size=160, seed=160)
        verify(plan, layout)
        non_empty = sorted(plan.members)
        assert any(
            b not in plan.interactions[a]
            for a in non_empty for b in non_empty if a < b
        )
        touched = frozenset({plan.members[non_empty[0]][0].demand_id})
        dirty = predict_dirty_epochs(plan, touched, frozenset())
        assert non_empty[0] in dirty
        assert set(non_empty) - dirty

    def test_empty_epochs_carry_no_constraints(self):
        problem, layout, plan = make_plan("powerlaw-trees")
        empty = [
            k for k in range(1, layout.n_epochs + 1) if k not in plan.members
        ]
        everything = predict_dirty_epochs(
            plan,
            frozenset(d.demand_id for d in problem.instances),
            frozenset(e for d in problem.instances for e in d.path_edges),
        )
        for k in empty:
            assert not plan.interactions[k]
            assert k not in everything
