"""Picklability regression tests.

The service's disk cache tier pickles solved reports, first-phase
artifacts included, and a solve run in a forked worker process hands
its result back by ``pickle`` too.
Anything losing picklability (a lambda slipping into an oracle
factory, an unpicklable field on a dataclass) would fail far from its
cause, so this module pins it directly: every ``make_mis_oracle``
product, every plan-derived epoch slice, and the full first-phase
artifact bundle must round-trip through ``pickle`` -- and behave
identically afterwards.
"""
import pickle

import pytest

from repro.algorithms import solve_auto
from repro.algorithms.base import tree_layouts
from repro.algorithms.sequential import EarliestInSigmaOracle
from repro.core.dual import DualState, UnitRaise
from repro.core.engines import PhaseCounters
from repro.core.engines.incremental import run_epoch_incremental
from repro.core.framework import (
    geometric_thresholds,
    run_first_phase,
    unit_xi,
)
from repro.core.plan import EpochPlan, stage_adjacency
from repro.distributed.conflict import build_conflict_graph, restrict
from repro.distributed.mis import make_mis_oracle
from repro.service import (
    SchedulingService,
    SolveKnobs,
    SolveRequest,
    report_semantic_digest,
)
from repro.workloads import build_workload
from tests.test_backends import run_on_backend

ORACLES = ("greedy", "luby", "hash")


def setup_case(size=30, seed=5):
    problem = build_workload("multi-tenant-forest", size, seed=seed)
    layout, _ = tree_layouts(problem, "ideal")
    thresholds = geometric_thresholds(
        unit_xi(max(layout.critical_set_size, 6)), 0.25
    )
    return problem, layout, tuple(thresholds)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def epoch_adjacency(problem, members):
    """The conflict graph induced on one epoch's *members*."""
    return restrict(
        build_conflict_graph(problem.instances),
        [d.instance_id for d in members],
    )


class TestOraclePicklability:
    @pytest.mark.parametrize("mis", ORACLES)
    def test_factory_products_roundtrip_and_agree(self, mis):
        problem, layout, _ = setup_case()
        plan = EpochPlan.build(problem.instances, layout)
        original = make_mis_oracle(mis, 42)
        copy = roundtrip(original)
        for epoch, members in sorted(plan.members.items()):
            if not members:
                continue
            ctx = (epoch, 1, 1)
            adjacency = epoch_adjacency(problem, members)
            assert original(members, adjacency, ctx) == copy(
                members, adjacency, ctx
            ), f"{mis} oracle diverged after pickling (epoch {epoch})"

    def test_luby_copy_does_not_share_rng_state(self):
        problem, layout, _ = setup_case()
        plan = EpochPlan.build(problem.instances, layout)
        epoch = next(k for k, m in sorted(plan.members.items()) if len(m) >= 2)
        members = plan.members[epoch]
        adjacency = epoch_adjacency(problem, members)
        original = make_mis_oracle("luby", 7)
        copy = roundtrip(original)
        # Draining draws on the copy must not advance the original's
        # substream: both see the fresh epoch stream on first use.
        for _ in range(3):
            copy(members, adjacency, (epoch, 1, 1))
        fresh = make_mis_oracle("luby", 7)
        assert original(members, adjacency, (epoch, 1, 1)) == fresh(
            members, adjacency, (epoch, 1, 1)
        )

    def test_sequential_oracle_roundtrips(self):
        rank = {1: (1, -2, 1), 2: (1, -1, 2), 3: (2, -3, 3)}
        problem, layout, _ = setup_case(size=8)
        oracle = roundtrip(EarliestInSigmaOracle(rank))
        assert oracle.rank == rank


def assert_artifacts_equal(got, want):
    dual2, stack2, events2, counters2 = got
    dual, stack, events, counters = want
    assert dual2.alpha == dual.alpha and dual2.beta == dual.beta
    assert list(dual2.alpha) == list(dual.alpha)  # insertion order too
    assert list(dual2.beta) == list(dual.beta)
    assert [[d.instance_id for d in b] for b in stack2] == [
        [d.instance_id for d in b] for b in stack
    ]
    assert [
        (e.order, e.instance.instance_id, e.delta, e.critical_edges,
         e.step_tuple)
        for e in events2
    ] == [
        (e.order, e.instance.instance_id, e.delta, e.critical_edges,
         e.step_tuple)
        for e in events
    ]
    assert counters2 == counters


class TestJobSlicePicklability:
    @pytest.mark.parametrize("mis", ORACLES)
    def test_plan_job_slices_roundtrip(self, mis):
        """Each epoch's plan slice -- the members and the reverse index
        whose buckets the incremental runner builds every stage's
        conflict graph from -- must pickle, and the runner fed
        unpickled slices and a fresh unpickled oracle clone per epoch
        must compute exactly the first phase of the engine."""
        problem, layout, thresholds = setup_case()
        plan = EpochPlan.build(problem.instances, layout)
        rule = UnitRaise()
        oracle = make_mis_oracle(mis, 3)
        dual = DualState(use_height_rule=rule.use_height_rule)
        events, stack, counters = [], [], PhaseCounters()
        order = 0
        for epoch in range(1, layout.n_epochs + 1):
            counters.epochs += 1
            if not plan.members.get(epoch):
                continue
            members, index = roundtrip(
                (plan.members[epoch], plan.index[epoch])
            )
            assert [d.instance_id for d in members] == [
                d.instance_id for d in plan.members[epoch]
            ]
            assert stage_adjacency(index, members) == epoch_adjacency(
                problem, members
            )
            order = run_epoch_incremental(
                epoch, members, {d.instance_id: d for d in members}, dual,
                index, layout, rule, thresholds,
                roundtrip(oracle), events, stack, counters, order,
            )
        assert events, "workload produced no raises"
        engine = run_first_phase(
            problem.instances, layout, rule, thresholds,
            make_mis_oracle(mis, 3), engine="incremental",
        )
        assert_artifacts_equal((dual, stack, events, counters), engine)


class TestProcessWirePreparation:
    def test_prepare_gives_every_job_a_private_oracle(self, monkeypatch):
        # A stateful oracle shared by two solves would interleave their
        # draws.  Every solve the service runs -- several at once on its
        # request pool -- must build an oracle of its own.
        import repro.core.framework as framework

        made = []
        real = framework.make_mis_oracle

        def spy(kind, seed):
            oracle = real(kind, seed)
            made.append(oracle)
            return oracle

        monkeypatch.setattr(framework, "make_mis_oracle", spy)
        problem = build_workload("multi-tenant-forest", 16, seed=1)
        requests = [
            SolveRequest(
                problem=problem,
                knobs=SolveKnobs(mis="luby", seed=seed, engine="incremental"),
            )
            for seed in range(3)
        ]
        results = SchedulingService(workers=3).solve_batch(requests)
        assert len(made) >= len(requests)
        assert len({id(oracle) for oracle in made}) == len(made)
        monkeypatch.undo()
        for request, result in zip(requests, results):
            k = request.knobs
            direct = solve_auto(
                problem, epsilon=k.epsilon, mis=k.mis, seed=k.seed,
                engine=k.engine,
            )
            assert report_semantic_digest(result.report) == (
                report_semantic_digest(direct)
            )


class TestArtifactsPicklability:
    @pytest.mark.parametrize("engine", ["incremental", "vectorized", "parallel"])
    def test_first_phase_artifacts_roundtrip(self, engine):
        # "parallel": the incremental engine in a forked worker process,
        # whose artifacts come back through pickle.
        problem, layout, thresholds = setup_case(size=24, seed=2)
        args = (
            problem.instances, layout, UnitRaise(), thresholds,
            make_mis_oracle("greedy", 0),
        )
        if engine == "parallel":
            artifacts = run_on_backend(
                "process", run_first_phase, *args, engine="incremental"
            )
            assert_artifacts_equal(
                artifacts, run_first_phase(*args, engine="incremental")
            )
        else:
            artifacts = run_first_phase(*args, engine=engine)
        assert_artifacts_equal(roundtrip(artifacts), artifacts)
