"""Tests for the Problem model and instance expansion."""
import copy
import os
import pickle
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.core.demand import Demand, DemandInstance, WindowDemand
from repro.core.problem import Problem, ProblemError
from repro.service.fingerprint import SolveKnobs, solve_fingerprint
from repro.trees.tree import TreeNetwork, make_line_network
from repro.workloads import (
    build_trajectory,
    build_workload,
    trajectory_names,
    workload_names,
)
from repro.workloads.trees import random_forest


@pytest.fixture
def two_trees():
    t0 = TreeNetwork(0, [(0, 1), (1, 2), (2, 3)])
    t1 = TreeNetwork(1, [(0, 2), (2, 1), (1, 3)])
    return {0: t0, 1: t1}


class TestValidation:
    def test_requires_networks(self):
        with pytest.raises(ProblemError):
            Problem(networks={}, demands=[Demand(0, 0, 1, 1.0)])

    def test_requires_demands(self, two_trees):
        with pytest.raises(ProblemError):
            Problem(networks=two_trees, demands=[])

    def test_unique_demand_ids(self, two_trees):
        with pytest.raises(ProblemError):
            Problem(
                networks=two_trees,
                demands=[Demand(0, 0, 1, 1.0), Demand(0, 1, 2, 1.0)],
            )

    def test_network_key_mismatch(self):
        with pytest.raises(ProblemError):
            Problem(
                networks={5: TreeNetwork(0, [(0, 1)])},
                demands=[Demand(0, 0, 1, 1.0)],
            )

    def test_unknown_access_network(self, two_trees):
        with pytest.raises(ProblemError):
            Problem(
                networks=two_trees,
                demands=[Demand(0, 0, 1, 1.0)],
                access={0: (9,)},
            )

    def test_empty_access(self, two_trees):
        with pytest.raises(ProblemError):
            Problem(
                networks=two_trees,
                demands=[Demand(0, 0, 1, 1.0)],
                access={0: ()},
            )

    def test_missing_endpoint_raises_at_expansion(self, two_trees):
        p = Problem(networks=two_trees, demands=[Demand(0, 0, 9, 1.0)])
        with pytest.raises(ProblemError):
            _ = p.instances


class TestExpansion:
    def test_default_access_is_everything(self, two_trees):
        p = Problem(networks=two_trees, demands=[Demand(0, 0, 3, 1.0)])
        assert p.access[0] == (0, 1)
        assert len(p.instances) == 2

    def test_point_to_point_paths_differ_by_network(self, two_trees):
        p = Problem(networks=two_trees, demands=[Demand(0, 0, 3, 1.0)])
        d0, d1 = p.instances
        assert d0.network_id == 0 and d1.network_id == 1
        assert d0.path_vertex_seq == (0, 1, 2, 3)
        assert d1.path_vertex_seq == (0, 2, 1, 3)

    def test_window_expansion_counts(self):
        line = make_line_network(0, 10)
        w = WindowDemand(0, release=2, deadline=7, processing=3, profit=1.0)
        p = Problem(networks={0: line}, demands=[w])
        # start slots 2..5 -> four instances
        assert len(p.instances) == 4
        assert [d.u for d in p.instances] == [2, 3, 4, 5]
        assert all(d.length == 3 for d in p.instances)

    def test_window_requires_line(self, two_trees):
        tree = TreeNetwork(0, [(0, 1), (0, 2), (0, 3)])
        w = WindowDemand(0, release=0, deadline=2, processing=1, profit=1.0)
        p = Problem(networks={0: tree}, demands=[w])
        with pytest.raises(ProblemError):
            _ = p.instances

    def test_window_clipped_by_timeline(self):
        line = make_line_network(0, 5)
        w = WindowDemand(0, release=3, deadline=4, processing=2, profit=1.0)
        p = Problem(networks={0: line}, demands=[w])
        assert len(p.instances) == 1  # only start 3 fits on 5 slots

    def test_instances_by_network(self, two_trees):
        p = Problem(
            networks=two_trees,
            demands=[Demand(0, 0, 3, 1.0), Demand(1, 1, 2, 1.0)],
            access={0: (0,), 1: (0, 1)},
        )
        assert len(p.instances_by_network[0]) == 2
        assert len(p.instances_by_network[1]) == 1

    def test_instance_ids_unique_and_ordered(self, two_trees):
        p = Problem(
            networks=two_trees,
            demands=[Demand(i, 0, 3, 1.0) for i in range(4)],
        )
        ids = [d.instance_id for d in p.instances]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)


def dataclass_instances(problem):
    """``D`` built the plain way: every path computed afresh and every
    instance through the dataclass ``__init__`` (and its path check)."""
    out = []
    for a in problem.demands:
        for nid in sorted(problem.access[a.demand_id]):
            net = problem.networks[nid]
            if isinstance(a, WindowDemand):
                for s in a.start_slots:
                    end = s + a.processing
                    if end > net.n_vertices - 1:
                        continue
                    out.append(DemandInstance(
                        instance_id=len(out), demand_id=a.demand_id,
                        network_id=nid, u=s, v=end, profit=a.profit,
                        height=a.height,
                        path_vertex_seq=tuple(range(s, end + 1)),
                        path_edges=frozenset(net.path_edges(s, end)),
                        start_slot=(s,),
                    ))
            else:
                out.append(DemandInstance(
                    instance_id=len(out), demand_id=a.demand_id,
                    network_id=nid, u=a.u, v=a.v, profit=a.profit,
                    height=a.height,
                    path_vertex_seq=net.path_vertices(a.u, a.v),
                    path_edges=frozenset(net.path_edges(a.u, a.v)),
                ))
    return out


def expansion_cases():
    """Every registry workload, and every snapshot of each trajectory
    family (sharing networks, so later snapshots expand memo-warm)."""
    for name in workload_names():
        yield pytest.param(lambda name=name: [build_workload(name, 24, seed=5)],
                           id=name)
    for name in trajectory_names():
        yield pytest.param(
            lambda name=name: [
                step.problem for step in build_trajectory(name, 24, seed=5, steps=5)
            ],
            id=f"trajectory-{name}",
        )


class TestUncheckedExpansion:
    """Expansion builds its instances field by field, without the
    dataclass ``__init__``, and checks each memoized path once."""

    @pytest.mark.parametrize("problems", expansion_cases())
    def test_instances_equal_dataclass_built_ones(self, problems):
        for problem in problems():
            got, want = problem.instances, dataclass_instances(problem)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert type(a) is DemandInstance
                assert a == b and hash(a) == hash(b)
                for f in fields(DemandInstance):
                    x, y = getattr(a, f.name), getattr(b, f.name)
                    assert x == y and type(x) is type(y), f.name
                assert list(vars(a)) == list(vars(b))

    def test_instances_keep_the_key_sharing_dict(self):
        # Key sharing is a property of the class: once one instance
        # breaks it, later dataclass-built instances lose it too.  So
        # compare in a fresh interpreter, against a dataclass-built
        # instance made before any expansion runs, with every dict
        # alive at once (a split dict's size counts its shared keys
        # while it holds their only reference).
        code = textwrap.dedent("""
            import sys
            from repro.core.demand import DemandInstance
            from repro.workloads import (
                build_trajectory, build_workload, trajectory_names,
                workload_names,
            )
            ref = DemandInstance(
                instance_id=0, demand_id=0, network_id=0, u=0, v=1,
                profit=1.0, height=1.0, path_vertex_seq=(0, 1),
                path_edges=frozenset({(0, 0, 1)}),
            )
            problems = [build_workload(n, 24, seed=5) for n in workload_names()]
            for n in trajectory_names():
                problems += [s.problem for s in build_trajectory(n, 24, seed=5, steps=3)]
            dicts = [vars(ref)] + [vars(d) for p in problems for d in p.instances]
            want = sys.getsizeof(dicts[0])
            sizes = {sys.getsizeof(x) for x in dicts[1:]}
            assert sizes == {want}, (want, sizes)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert out.returncode == 0, out.stdout + out.stderr

    def test_inconsistent_tree_path_raises_when_the_memo_is_filled(
        self, two_trees, monkeypatch
    ):
        # A path that revisits an edge has fewer distinct edges than hops.
        monkeypatch.setattr(
            TreeNetwork, "path_vertices", lambda self, u, v: (u, v, u, v)
        )
        p = Problem(networks=two_trees, demands=[Demand(0, 0, 3, 1.0)])
        with pytest.raises(ValueError, match="inconsistent"):
            p.instances
        assert not two_trees[0].memo.paths

    def test_inconsistent_window_placement_raises_when_the_memo_is_filled(
        self, monkeypatch
    ):
        line = make_line_network(0, 6)
        monkeypatch.setattr(
            TreeNetwork, "path_edges", lambda self, u, v: ((0, u, u + 1),)
        )
        p = Problem(networks={0: line}, demands=[WindowDemand(0, 0, 5, 2, 1.0)])
        with pytest.raises(ValueError, match="inconsistent"):
            p.instances
        assert not line.memo.windows


class TestDerived:
    def test_profit_extremes(self, two_trees):
        p = Problem(
            networks=two_trees,
            demands=[Demand(0, 0, 1, 4.0), Demand(1, 1, 2, 0.5)],
        )
        assert p.pmax == 4.0 and p.pmin == 0.5

    def test_hmin_and_unit(self, two_trees):
        p = Problem(
            networks=two_trees,
            demands=[Demand(0, 0, 1, 1.0, height=0.3), Demand(1, 1, 2, 1.0)],
        )
        assert p.hmin == 0.3
        assert not p.is_unit_height

    def test_all_edges(self, two_trees):
        p = Problem(networks=two_trees, demands=[Demand(0, 0, 1, 1.0)])
        assert len(p.all_edges) == 6

    def test_demand_by_id(self, two_trees):
        p = Problem(networks=two_trees, demands=[Demand(7, 0, 1, 1.0)])
        assert p.demand_by_id(7).u == 0


class TestCommunication:
    def test_shared_resource_means_edge(self, two_trees):
        p = Problem(
            networks=two_trees,
            demands=[Demand(0, 0, 1, 1.0), Demand(1, 1, 2, 1.0), Demand(2, 2, 3, 1.0)],
            access={0: (0,), 1: (0, 1), 2: (1,)},
        )
        assert p.communication_edges == ((0, 1), (1, 2))

    def test_disconnected_processors(self, two_trees):
        p = Problem(
            networks=two_trees,
            demands=[Demand(0, 0, 1, 1.0), Demand(1, 1, 2, 1.0)],
            access={0: (0,), 1: (1,)},
        )
        assert p.communication_edges == ()

    def test_complete_when_shared(self, two_trees):
        p = Problem(
            networks=two_trees,
            demands=[Demand(i, 0, 1, 1.0) for i in range(4)],
        )
        assert len(p.communication_edges) == 6


class TestSplitByWidth:
    def test_split(self, two_trees):
        p = Problem(
            networks=two_trees,
            demands=[
                Demand(0, 0, 1, 1.0, height=0.9),
                Demand(1, 1, 2, 1.0, height=0.2),
            ],
        )
        wide, narrow = p.split_by_width()
        assert [a.demand_id for a in wide.demands] == [0]
        assert [a.demand_id for a in narrow.demands] == [1]

    def test_split_requires_both(self, two_trees):
        p = Problem(networks=two_trees, demands=[Demand(0, 0, 1, 1.0, height=0.9)])
        assert p.has_wide and not p.has_narrow
        with pytest.raises(ProblemError):
            p.split_by_width()

    def test_restricted_to(self, two_trees):
        demands = [Demand(i, 0, 1, 1.0) for i in range(3)]
        p = Problem(networks=two_trees, demands=demands)
        sub = p.restricted_to(demands[:2])
        assert len(sub.demands) == 2
        assert sub.access[0] == p.access[0]


class TestForestGenerator:
    def test_forest_networks_share_vertices(self):
        forest = random_forest(12, 3, seed=0)
        assert set(forest) == {0, 1, 2}
        for nid, net in forest.items():
            assert net.network_id == nid
            assert net.n_vertices == 12


class TestImmutability:
    """A problem is an immutable value: every edit raises, and copies
    rebuild it from its contents."""

    @pytest.fixture
    def problem(self, two_trees):
        return Problem(
            networks=two_trees,
            demands=[Demand(0, 0, 3, 1.0), Demand(1, 1, 2, 1.0)],
            access={0: [0, 1], 1: (1,)},
        )

    def test_attribute_assignment_raises(self, problem):
        for name in ("networks", "demands", "access"):
            with pytest.raises(FrozenInstanceError):
                setattr(problem, name, getattr(problem, name))

    def test_container_edits_raise(self, problem):
        with pytest.raises(AttributeError):
            problem.demands.append(Demand(2, 0, 1, 1.0))
        with pytest.raises(TypeError):
            problem.access[0] = (0,)
        with pytest.raises(TypeError):
            problem.networks[2] = TreeNetwork(2, [(0, 1)])
        # A list access value was coerced to a tuple.
        with pytest.raises(AttributeError):
            problem.access[0].append(1)
        assert len(problem.demands) == 2
        assert problem.access[0] == (0, 1)

    def test_inputs_are_copied(self, two_trees):
        demands = [Demand(0, 0, 3, 1.0)]
        nets = [0, 1]
        p = Problem(two_trees, demands, {0: nets})
        demands.append(Demand(1, 1, 2, 1.0))
        nets.pop()
        two_trees[2] = TreeNetwork(2, [(0, 1)])
        assert len(p.demands) == 1
        assert p.access[0] == (0, 1)
        assert 2 not in p.networks

    def test_access_tuples_keep_their_identity(self, two_trees):
        nets = (0, 1)
        p = Problem(two_trees, [Demand(0, 0, 3, 1.0)], {0: nets})
        assert p.access[0] is nets

    @pytest.mark.parametrize(
        "duplicate",
        [
            lambda p: pickle.loads(pickle.dumps(p)),
            copy.copy,
            copy.deepcopy,
            replace,
        ],
        ids=["pickle", "copy", "deepcopy", "replace"],
    )
    def test_copies_are_equal_frozen_and_carry_no_memo(self, duplicate):
        problem = build_workload("multi-tenant-forest", 12, seed=1)
        knobs = SolveKnobs()
        fingerprint = solve_fingerprint(problem, knobs)
        assert problem.instances  # cached on the original
        dup = duplicate(problem)
        assert dup is not problem
        assert set(vars(dup)) == {"networks", "demands", "access"}
        assert dup.demands == problem.demands
        assert dict(dup.access) == dict(problem.access)
        assert {nid: net.edges() for nid, net in dup.networks.items()} == {
            nid: net.edges() for nid, net in problem.networks.items()
        }
        if all(dup.networks[n] is net for n, net in problem.networks.items()):
            assert dup == problem
        with pytest.raises(FrozenInstanceError):
            dup.demands = ()
        with pytest.raises(TypeError):
            dup.access[0] = (0,)
        assert solve_fingerprint(dup, knobs) == fingerprint
        assert dup.instances == problem.instances
