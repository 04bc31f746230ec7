"""Picklability regression tests for the process backend's wire format.

``backend="process"`` ships :class:`EpochJob` bundles to worker
processes (each with a private MIS oracle clone made by a pickle
round-trip) and gets :class:`EpochOutcome` / ``FirstPhaseArtifacts``
back.  Anything in that closure losing picklability (a lambda
slipping into an oracle factory, an unpicklable field on a dataclass)
would break the process backend at a distance, so this module pins it
directly: every ``make_mis_oracle`` product, every plan-derived job
slice, and the full first-phase artifact bundle must round-trip through
``pickle`` -- and behave identically afterwards.
"""
import pickle

import pytest

from repro.algorithms.base import tree_layouts
from repro.algorithms.sequential import EarliestInSigmaOracle
from repro.core.dual import UnitRaise
from repro.core.engines import EpochJob, run_epoch_job
from repro.core.framework import (
    geometric_thresholds,
    run_first_phase,
    unit_xi,
)
from repro.core.plan import EpochPlan
from repro.distributed.mis import make_mis_oracle
from repro.workloads import build_workload

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
            assert original(members, plan.adjacency[epoch], ctx) == copy(
                members, plan.adjacency[epoch], ctx
            ), f"{mis} oracle diverged after pickling (epoch {epoch})"

    def test_luby_copy_does_not_share_rng_state(self):
        problem, layout, _ = setup_case()
        plan = EpochPlan.build(problem.instances, layout)
        epoch = next(k for k, m in sorted(plan.members.items()) if len(m) >= 2)
        members = plan.members[epoch]
        original = make_mis_oracle("luby", 7)
        copy = roundtrip(original)
        # Draining draws on the copy must not advance the original's
        # substream: both see the fresh epoch stream on first use.
        for _ in range(3):
            copy(members, plan.adjacency[epoch], (epoch, 1, 1))
        fresh = make_mis_oracle("luby", 7)
        assert original(members, plan.adjacency[epoch], (epoch, 1, 1)) == fresh(
            members, plan.adjacency[epoch], (epoch, 1, 1)
        )

    def test_sequential_oracle_roundtrips(self):
        rank = {1: (1, -2, 1), 2: (1, -1, 2), 3: (2, -3, 3)}
        problem, layout, _ = setup_case(size=8)
        oracle = roundtrip(EarliestInSigmaOracle(rank))
        assert oracle.rank == rank


class TestJobSlicePicklability:
    @pytest.mark.parametrize("mis", ORACLES)
    def test_plan_job_slices_roundtrip(self, mis):
        """The exact wire form the process backend submits must pickle,
        and an unpickled job must compute the identical outcome."""
        problem, layout, thresholds = setup_case()
        plan = EpochPlan.build(problem.instances, layout)
        oracle = make_mis_oracle(mis, 3)
        rule = UnitRaise()
        jobs = [
            EpochJob(
                epoch, plan.members[epoch], plan.index[epoch],
                plan.adjacency[epoch], layout, rule, thresholds,
                roundtrip(oracle), {}, {},
            )
            for epoch in sorted(plan.members)
            if plan.members[epoch]
        ]
        assert jobs, "workload produced no jobs"
        for job in jobs:
            wire = job.sliced()
            copy = roundtrip(wire)
            # The slice carries exactly the member rows of the layout.
            assert set(copy.layout.pi) == {d.instance_id for d in job.members}
            local = run_epoch_job(roundtrip(wire))
            direct = run_epoch_job(wire)
            assert local.alpha_writes == direct.alpha_writes
            assert local.beta_writes == direct.beta_writes
            assert [
                (e.order, e.instance.instance_id, e.delta) for e in local.events
            ] == [
                (e.order, e.instance.instance_id, e.delta) for e in direct.events
            ]
            assert local.counters.semantic_tuple() == direct.counters.semantic_tuple()


class TestProcessWirePreparation:
    def test_prepare_gives_every_job_a_private_oracle(self):
        # The pool's feeder thread pickles submitted jobs concurrently
        # with the caller-runs chunk executing; a stateful oracle shared
        # across the wave's jobs could be mutated mid-pickle.  _prepare
        # must therefore seal each wire job with its own oracle clone.
        from repro.core.engines.backends import ProcessBackend

        problem, layout, thresholds = setup_case(size=16, seed=1)
        plan = EpochPlan.build(problem.instances, layout)
        shared = make_mis_oracle("luby", 5)
        jobs = [
            EpochJob(
                epoch, plan.members[epoch], plan.index[epoch],
                plan.adjacency[epoch], layout, UnitRaise(), thresholds,
                shared, {}, {},
            )
            for epoch in sorted(plan.members)
            if plan.members[epoch]
        ]
        assert len(jobs) >= 2, "need multiple epochs to exercise sharing"
        prepared = ProcessBackend(2)._prepare(jobs)
        oracles = [job.mis_oracle for job in prepared]
        assert all(o is not shared for o in oracles)
        assert len({id(o) for o in oracles}) == len(oracles)


class TestArtifactsPicklability:
    @pytest.mark.parametrize("engine", ["incremental", "parallel"])
    def test_first_phase_artifacts_roundtrip(self, engine):
        problem, layout, thresholds = setup_case(size=24, seed=2)
        kwargs = {"workers": 2} if engine == "parallel" else {}
        dual, stack, events, counters = run_first_phase(
            problem.instances, layout, UnitRaise(), thresholds,
            make_mis_oracle("greedy", 0), engine=engine, **kwargs,
        )
        dual2, stack2, events2, counters2 = roundtrip(
            (dual, stack, events, counters)
        )
        assert dual2.alpha == dual.alpha and dual2.beta == dual.beta
        assert list(dual2.alpha) == list(dual.alpha)  # insertion order too
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
