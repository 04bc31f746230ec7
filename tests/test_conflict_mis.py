"""Tests for conflict graphs and MIS oracles."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.conflict import build_conflict_graph, is_independent, restrict
from repro.distributed.mis import (
    greedy_mis,
    hash_luby_mis,
    hashed_priority,
    instance_key,
    luby_mis,
    make_mis_oracle,
)
from repro.workloads import random_tree_problem
from repro.workloads.trees import random_forest
from tests.test_demand import make_instance


class TestConflictGraph:
    def test_matches_pairwise_definition(self):
        problem = random_tree_problem(random_forest(20, 2, seed=1), m=12, seed=2)
        instances = problem.instances
        adj = build_conflict_graph(instances)
        for a in instances:
            for b in instances:
                if a.instance_id == b.instance_id:
                    continue
                expected = a.conflicts_with(b)
                assert (b.instance_id in adj[a.instance_id]) == expected

    def test_same_demand_conflicts(self):
        d1 = make_instance(0, 9, 0, [0, 1])
        d2 = make_instance(1, 9, 1, [5, 6])
        adj = build_conflict_graph([d1, d2])
        assert adj[0] == {1} and adj[1] == {0}

    def test_no_conflicts(self):
        d1 = make_instance(0, 0, 0, [0, 1])
        d2 = make_instance(1, 1, 0, [2, 3])
        adj = build_conflict_graph([d1, d2])
        assert adj[0] == set() and adj[1] == set()

    def test_is_independent(self):
        d1 = make_instance(0, 0, 0, [0, 1, 2])
        d2 = make_instance(1, 1, 0, [1, 2, 3])
        d3 = make_instance(2, 2, 0, [4, 5])
        adj = build_conflict_graph([d1, d2, d3])
        assert is_independent([0, 2], adj)
        assert not is_independent([0, 1], adj)

    def test_restrict(self):
        d1 = make_instance(0, 0, 0, [0, 1, 2])
        d2 = make_instance(1, 1, 0, [1, 2, 3])
        d3 = make_instance(2, 2, 0, [2, 3, 4])
        adj = build_conflict_graph([d1, d2, d3])
        sub = restrict(adj, [0, 2])
        assert set(sub) == {0, 2}
        assert sub[0] == set()  # d1 and d3 do not overlap


def _assert_valid_mis(chosen, candidates, adj):
    ids = {d.instance_id for d in candidates}
    assert chosen <= ids
    assert is_independent(chosen, adj)
    # Maximality: every unchosen candidate conflicts with a chosen one.
    for v in ids - chosen:
        assert adj[v] & chosen, f"{v} could have been added"


def _mis_fixture(seed, n=24, m=16):
    problem = random_tree_problem(random_forest(n, 2, seed=seed), m=m, seed=seed + 1)
    instances = list(problem.instances)
    adj = build_conflict_graph(instances)
    return instances, adj


class TestGreedyMIS:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_and_maximal(self, seed):
        instances, adj = _mis_fixture(seed)
        chosen, rounds = greedy_mis(instances, adj)
        _assert_valid_mis(chosen, instances, adj)
        assert rounds == 1

    def test_deterministic(self):
        instances, adj = _mis_fixture(7)
        a, _ = greedy_mis(instances, adj)
        b, _ = greedy_mis(instances, adj)
        assert a == b


class TestLubyMIS:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_and_maximal(self, seed):
        instances, adj = _mis_fixture(seed)
        chosen, rounds = luby_mis(instances, adj, random.Random(seed))
        _assert_valid_mis(chosen, instances, adj)
        assert rounds >= 2 and rounds % 2 == 0

    def test_reproducible_given_seed(self):
        instances, adj = _mis_fixture(3)
        a, _ = luby_mis(instances, adj, random.Random(42))
        b, _ = luby_mis(instances, adj, random.Random(42))
        assert a == b

    def test_empty_input(self):
        chosen, rounds = luby_mis([], {}, random.Random(0))
        assert chosen == set() and rounds == 0

    def test_singleton(self):
        d = make_instance(0, 0, 0, [0, 1])
        chosen, _ = luby_mis([d], {0: set()}, random.Random(0))
        assert chosen == {0}


class TestHashLubyMIS:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_and_maximal(self, seed):
        instances, adj = _mis_fixture(seed)
        chosen, _ = hash_luby_mis(instances, adj, (1, 1, 1), seed)
        _assert_valid_mis(chosen, instances, adj)

    def test_context_changes_outcome_possible(self):
        # Different contexts give independent priorities; at least the
        # priorities themselves must differ.
        d = make_instance(0, 0, 0, [0, 1])
        p1 = hashed_priority(0, instance_key(d), (1, 1, 1), 1)
        p2 = hashed_priority(0, instance_key(d), (1, 1, 2), 1)
        assert p1 != p2

    def test_priority_deterministic_and_uniform_range(self):
        d = make_instance(0, 0, 0, [0, 1])
        p = hashed_priority(5, instance_key(d), (2, 3, 4), 6)
        assert p == hashed_priority(5, instance_key(d), (2, 3, 4), 6)
        assert 0.0 <= p < 1.0


def _random_conflict_fixture(seed, n_instances=30, n_slots=40):
    """Synthetic random conflict graphs: random intervals on a line
    (overlap conflicts) plus shared demand ids (same-demand conflicts),
    independent of the tree-problem pipeline."""
    rng = random.Random(seed)
    instances = []
    for iid in range(n_instances):
        a = rng.randrange(0, n_slots - 2)
        b = rng.randrange(a + 1, min(n_slots, a + 1 + rng.randint(1, 8)))
        instances.append(
            make_instance(iid, demand_id=iid // 3, network_id=rng.randrange(2),
                          verts=list(range(a, b + 1)))
        )
    return instances, build_conflict_graph(instances)


class TestOraclesOnRandomGraphs:
    """Satellite: maximality of all three oracles on random conflict
    graphs, and hash-Luby reproducibility under (seed, context)."""

    @pytest.mark.parametrize("kind", ["greedy", "luby", "hash"])
    @pytest.mark.parametrize("seed", range(8))
    def test_maximal_independent_on_random_graphs(self, kind, seed):
        instances, adj = _random_conflict_fixture(seed)
        oracle = make_mis_oracle(kind, seed)
        chosen, _ = oracle(instances, adj, (1, 2, 3))
        _assert_valid_mis(chosen, instances, adj)

    @pytest.mark.parametrize("seed", range(4))
    def test_hash_luby_reproducible_same_seed_and_context(self, seed):
        instances, adj = _random_conflict_fixture(seed)
        a, rounds_a = hash_luby_mis(instances, adj, (2, 3, 4), seed)
        b, rounds_b = hash_luby_mis(instances, adj, (2, 3, 4), seed)
        assert a == b and rounds_a == rounds_b
        # Fresh factory-made oracles agree too: no hidden state.
        o1 = make_mis_oracle("hash", seed)
        o2 = make_mis_oracle("hash", seed)
        assert o1(instances, adj, (2, 3, 4))[0] == o2(instances, adj, (2, 3, 4))[0]

    def test_hash_luby_seed_or_context_changes_priorities(self):
        instances, adj = _random_conflict_fixture(5)
        base, _ = hash_luby_mis(instances, adj, (1, 1, 1), seed=0)
        # Other seeds/contexts give valid (possibly different) MIS's.
        for seed, ctx in [(1, (1, 1, 1)), (0, (1, 1, 2)), (0, (9, 9, 9))]:
            other, _ = hash_luby_mis(instances, adj, ctx, seed=seed)
            _assert_valid_mis(other, instances, adj)


class TestOracleFactory:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_mis_oracle("quantum", 0)

    def test_hash_oracle_requires_context(self):
        oracle = make_mis_oracle("hash", 0)
        with pytest.raises(ValueError):
            oracle([], {}, None)

    @pytest.mark.parametrize("kind", ["greedy", "luby", "hash"])
    @pytest.mark.parametrize("seed", [1.5, 1.0, True])
    def test_non_int_seeds_rejected(self, kind, seed):
        # Cache keys encode seeds as integers; the oracles consume the
        # raw value, so only exact ints may reach them.
        with pytest.raises(ValueError, match="seed must be an int"):
            make_mis_oracle(kind, seed)

    @pytest.mark.parametrize("kind", ["greedy", "luby", "hash"])
    def test_oracle_outputs_valid_mis(self, kind):
        instances, adj = _mis_fixture(11)
        oracle = make_mis_oracle(kind, 3)
        chosen, rounds = oracle(instances, adj, (1, 1, 1))
        _assert_valid_mis(chosen, instances, adj)
        assert rounds >= 0
