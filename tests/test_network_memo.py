"""The per-network memo never changes an answer.

Paths, window placements, tree decompositions and per-path layerings
are memoized on each :class:`~repro.trees.tree.TreeNetwork`
(:class:`~repro.trees.tree.NetworkMemo`).  These tests compare what a
memo-warm network serves against a fresh rebuild -- the same problem
built again, so no object is shared -- value by value, type by type and
in dict order, and check that a warm network still raises every error a
cold one does.
"""
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.auto import problem_family
from repro.algorithms.base import DECOMPOSITION_BUILDERS, line_layouts, tree_layouts
from repro.core.demand import Demand, WindowDemand
from repro.core.framework import InstanceLayout
from repro.core.problem import Problem, ProblemError
from repro.lines.layered import layered_by_length
from repro.trees.layered import layered_from_tree_decomposition
from repro.trees.tree import TreeNetwork, make_line_network
from repro.workloads import build_trajectory, build_workload
from repro.workloads.random_suite import REGISTRY

BUILDERS = sorted(DECOMPOSITION_BUILDERS)
SIZE = 24


def is_line_problem(problem):
    return all(net.is_path_graph() for net in problem.networks.values())


TREE_WORKLOADS = [
    n for n in sorted(REGISTRY) if not is_line_problem(build_workload(n, SIZE, seed=1))
]
LINE_WORKLOADS = [n for n in sorted(REGISTRY) if n not in TREE_WORKLOADS]


def typed(value):
    """An image of *value* that tells ``1``, ``1.0``, ``True`` and
    ``np.int64(1)`` apart, inside tuples too."""
    return repr(value)


def instance_image(d):
    fields = (
        d.instance_id, d.demand_id, d.network_id, d.u, d.v, d.profit,
        d.height, d.path_vertex_seq, d.start_slot,
    )
    return tuple(map(typed, fields)) + (tuple(map(typed, d.path_edges)),)


def layout_image(layout):
    return (
        [(typed(k), typed(v)) for k, v in layout.group_of.items()],
        [(typed(k), typed(v)) for k, v in layout.pi.items()],
        layout.n_epochs,
    )


def spec_tree_layout(problem, name):
    """Lemma 4.2 per network with a freshly built decomposition: the
    layout with no memo involved."""
    build = DECOMPOSITION_BUILDERS[name]
    by_net = problem.instances_by_network
    return InstanceLayout.from_layered(
        layered_from_tree_decomposition(build(problem.networks[nid]), by_net[nid])
        for nid in sorted(problem.networks)
        if by_net[nid]
    )


def spec_line_layout(problem):
    by_net = problem.instances_by_network
    return InstanceLayout.from_layered(
        layered_by_length(nid, by_net[nid])
        for nid in sorted(problem.networks)
        if by_net[nid]
    )


def half(problem):
    """A second problem on the same networks with other instance ids."""
    return problem.restricted_to(problem.demands[1::2] or problem.demands)


class TestTreeLayouts:
    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("name", TREE_WORKLOADS)
    def test_registry_workload_matches_fresh_rebuild(self, name, builder):
        warm = build_workload(name, SIZE, seed=1)
        tree_layouts(warm, builder)  # fills the memo
        fresh = build_workload(name, SIZE, seed=1)
        for got_problem, want_problem in ((warm, fresh), (half(warm), half(fresh))):
            got, decomps = tree_layouts(got_problem, builder)
            assert layout_image(got) == layout_image(
                spec_tree_layout(want_problem, builder)
            )
            for nid, td in decomps.items():
                rebuilt = DECOMPOSITION_BUILDERS[builder](fresh.networks[nid])
                assert list(td.parent.items()) == list(rebuilt.parent.items())

    def test_trajectory_snapshots_match_fresh_rebuilds(self):
        trajectory = build_trajectory("tenant-churn", 16, seed=1, steps=8)
        for step in trajectory:
            got, _ = tree_layouts(step.problem)
            fresh = build_trajectory(
                "tenant-churn", 16, seed=1, steps=step.index + 1
            )[step.index].problem
            assert layout_image(got) == layout_image(spec_tree_layout(fresh, "ideal"))

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_colliding_labels_and_shuffled_edges(self, data):
        # Labels that collide in small hash tables make set iteration
        # follow insertion order, so the decompositions follow the edge
        # order; a warm memo must still serve exactly the fresh build.
        n = data.draw(st.integers(2, 28), label="n")
        parents = [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
        label = data.draw(st.sampled_from([
            lambda i: 37 * i + 1000, lambda i: 8 * i, lambda i: i,
        ]))
        edges = [(label(p), label(i)) for i, p in zip(range(1, n), parents)]
        edges = data.draw(st.permutations(edges), label="order")
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]
        verts = sorted({x for e in edges for x in e})
        pair = st.tuples(st.sampled_from(verts), st.sampled_from(verts)).filter(
            lambda uv: uv[0] != uv[1]
        )

        def demands(pairs, first_id):
            return [
                Demand(first_id + k, u, v, profit=1.0 + k % 3)
                for k, (u, v) in enumerate(pairs)
            ]

        warm_pairs = data.draw(st.lists(pair, min_size=1, max_size=8))
        pairs = data.draw(st.lists(pair, min_size=1, max_size=8))
        net = TreeNetwork(0, edges)
        Problem({0: net}, demands(warm_pairs, 100)).instances  # warm paths
        for builder in BUILDERS:
            tree_layouts(Problem({0: net}, demands(warm_pairs, 100)), builder)
            warm = Problem({0: net}, demands(pairs, 0))
            fresh = Problem({0: TreeNetwork(0, edges)}, demands(pairs, 0))
            assert list(map(instance_image, warm.instances)) == list(
                map(instance_image, fresh.instances)
            )
            got, decomps = tree_layouts(warm, builder)
            assert layout_image(got) == layout_image(spec_tree_layout(fresh, builder))
            rebuilt = DECOMPOSITION_BUILDERS[builder](fresh.networks[0])
            assert list(decomps[0].parent.items()) == list(rebuilt.parent.items())


class TestRacingThreads:
    def test_threads_racing_on_a_cold_memo_agree(self):
        # Snapshots of one trajectory share their network objects, so
        # eight threads laying them out in different orders race to
        # fill the same memo entries; each must get the fresh answer,
        # and all must end up sharing one decomposition per network.
        def snapshots():
            return [
                step.problem
                for step in build_trajectory("tenant-churn", 24, seed=5, steps=6)
            ]

        expected = [
            layout_image(spec_tree_layout(p, "ideal")) for p in snapshots()
        ]
        problems = snapshots()  # fresh objects: a cold memo
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def work(t):
            order = list(range(len(problems)))
            random.Random(t).shuffle(order)
            barrier.wait(timeout=60)
            results[t] = {i: tree_layouts(problems[i]) for i in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(t,))
                for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            assert [layout_image(got[i][0]) for i in range(len(problems))] == expected
        for i, problem in enumerate(problems):
            for nid, net in problem.networks.items():
                if nid in results[0][i][1]:
                    td = net.memo.trees["ideal"][0]
                    assert all(got[i][1][nid] is td for got in results)


class TestLineLayouts:
    @pytest.mark.parametrize("name", LINE_WORKLOADS)
    def test_registry_workload_matches_fresh_rebuild(self, name):
        warm = build_workload(name, SIZE, seed=1)
        line_layouts(warm)
        fresh = build_workload(name, SIZE, seed=1)
        for got_problem, want_problem in ((warm, fresh), (half(warm), half(fresh))):
            assert layout_image(line_layouts(got_problem)) == layout_image(
                spec_line_layout(want_problem)
            )


def mixed_problem(tree, line, typed_endpoints):
    """Point-to-point demands on *tree* and window demands on *line*;
    with *typed_endpoints*, endpoints and window fields that equal ints
    without being ints."""
    if typed_endpoints:
        p2p = [(0.0, 4), (True, 3), (np.int64(2), np.int64(3)), (4, np.int64(0))]
        windows = [(np.int64(1), 6, 3), (1, 6, np.int64(3)), (True, 6, 3)]
    else:
        p2p = [(0, 4), (1, 3), (2, 3), (4, 0)]
        windows = [(1, 6, 3), (0, 7, 2)]
    demands = [Demand(i, u, v, profit=1.0 + i) for i, (u, v) in enumerate(p2p)]
    demands += [
        WindowDemand(10 + i, r, d, p, profit=2.0, height=0.5)
        for i, (r, d, p) in enumerate(windows)
    ]
    access = {a.demand_id: (0,) if a.demand_id < 10 else (1,) for a in demands}
    return Problem({0: tree, 1: line}, demands, access)


def networks():
    return TreeNetwork(0, [(0, 1), (1, 2), (1, 3), (3, 4)]), make_line_network(1, 8)


class TestExpansion:
    @pytest.mark.parametrize("warm_first", [False, True])
    @pytest.mark.parametrize("typed_endpoints", [False, True])
    def test_instances_match_fresh_expansion(self, warm_first, typed_endpoints):
        tree, line = networks()
        if warm_first:
            # Fill the memo with the other endpoint types first: an int
            # entry must never serve a float / bool / numpy endpoint,
            # and none of those may leave an entry behind.
            mixed_problem(tree, line, not typed_endpoints).instances
        got = mixed_problem(tree, line, typed_endpoints).instances
        want = mixed_problem(*networks(), typed_endpoints).instances
        assert list(map(instance_image, got)) == list(map(instance_image, want))
        assert all(type(u) is int and type(v) is int for u, v in tree.memo.paths)
        assert all(
            all(type(x) is int for x in window) for window in line.memo.windows
        )

    def test_typed_endpoints_keep_their_types_on_a_warm_network(self):
        tree, line = networks()
        mixed_problem(tree, line, typed_endpoints=False).instances
        instances = mixed_problem(tree, line, typed_endpoints=True).instances
        assert type(instances[0].path_vertex_seq[0]) is float
        assert type(instances[1].path_vertex_seq[0]) is bool
        assert type(instances[2].u) is np.int64
        assert any(type(x) is np.int64 for e in instances[2].path_edges for x in e)

    def test_layouts_of_typed_endpoints_match_fresh(self):
        tree, line = networks()
        int_problem = mixed_problem(tree, line, typed_endpoints=False)
        tree_layouts(int_problem.restricted_to(int_problem.demands[:4]))
        line_layouts(Problem({1: line}, int_problem.demands[4:]))
        warm = mixed_problem(tree, line, typed_endpoints=True)
        fresh = mixed_problem(*networks(), typed_endpoints=True)
        p2p = lambda p: p.restricted_to(p.demands[:4])
        assert layout_image(tree_layouts(p2p(warm))[0]) == layout_image(
            spec_tree_layout(p2p(fresh), "ideal")
        )
        windows = lambda p: Problem({1: p.networks[1]}, p.demands[4:])
        assert layout_image(line_layouts(windows(warm))) == layout_image(
            spec_line_layout(windows(fresh))
        )


class TestErrorsOnWarmNetworks:
    @pytest.fixture
    def warm(self):
        tree, line = networks()
        problem = mixed_problem(tree, line, typed_endpoints=False)
        tree_layouts(problem.restricted_to(problem.demands[:4]))
        line_layouts(Problem({1: line}, problem.demands[4:]))
        assert tree.memo.paths and tree.memo.trees and line.memo.windows
        return tree, line

    def test_missing_endpoint(self, warm):
        tree, _ = warm
        with pytest.raises(ProblemError, match="missing from network"):
            Problem({0: tree}, [Demand(0, 0, 99, 1.0)]).instances

    def test_window_demand_on_a_tree(self, warm):
        tree, _ = warm
        with pytest.raises(ProblemError, match="requires a line-network"):
            Problem({0: tree}, [WindowDemand(0, 0, 3, 2, 1.0)]).instances

    def test_line_layouts_on_a_tree(self, warm):
        tree, _ = warm
        with pytest.raises(ValueError, match="not a line-network"):
            line_layouts(Problem({0: tree}, [Demand(0, 0, 4, 1.0)]))


class TestAdoptMemo:
    EDGES = [(0, 1), (1, 2), (1, 3)]

    def warm(self, edges=EDGES, network_id=0):
        net = TreeNetwork(network_id, edges)
        net.instance_path(0, 2)
        return net

    @pytest.mark.parametrize("edges", [
        EDGES,
        [(1, 0), (1, 2), (1, 3)],  # same adjacency lists, flipped pairs
    ])
    def test_same_network_adopts(self, edges):
        old, new = self.warm(), TreeNetwork(0, edges)
        assert new.adopt_memo(old) and new.memo is old.memo

    @pytest.mark.parametrize("edges, network_id", [
        ([(1, 3), (0, 1), (1, 2)], 0),   # same edges, another order
        ([(0, 1), (1, 3), (1, 2)], 0),   # another neighbour order at 1
        (EDGES, 1),                      # another network id
    ])
    def test_another_adjacency_or_id_is_refused(self, edges, network_id):
        old, new = self.warm(), TreeNetwork(network_id, edges)
        assert not new.adopt_memo(old) and new.memo is not old.memo

    def test_only_a_network_without_a_memo_adopts_from_one_with(self):
        old, new = self.warm(), self.warm()
        assert not new.adopt_memo(old)
        assert not TreeNetwork(0, self.EDGES).adopt_memo(TreeNetwork(0, self.EDGES))

    @pytest.mark.parametrize("edges", [EDGES, [(0, 1), (1, 2), (2, 3)]])
    def test_asking_the_shape_leaves_a_network_free_to_adopt(self, edges):
        # The service's family label asks every network its shape
        # before the solve; that must not create a memo, or the
        # network would then refuse its twin's.
        old = TreeNetwork(0, edges)
        old.instance_path(0, 2)
        new = TreeNetwork(0, edges)
        problem_family(
            Problem(networks={0: new}, demands=[Demand(0, 0, 2, profit=1.0)])
        )
        assert new.is_path_graph() == (edges != self.EDGES)
        assert not new.has_memo
        assert new.adopt_memo(old) and new.memo is old.memo
