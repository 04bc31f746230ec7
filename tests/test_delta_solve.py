"""Delta-solve correctness under churn.

The contract under test: whatever a churn trajectory does to a
problem, ``solve_delta`` answers **bit-identically** to a cold solve
of the same snapshot -- warm deltas, every fallback arm, debounced
storms and wire requests included -- and on every engine a rebuilt
request adopts the memos of the equal networks the service already
solved on (its network table) instead of rebuilding layouts, whether
it is a ``solve`` or a ``solve_delta``, with telemetry on or off.  A
hypothesis sweep replays mutation streams across the engine matrix
(``TestTrajectoryDriver``); targeted tests pin each outcome
(ancestor-miss, id-swapped shapes, exact-hit revert, reordered edges)
and the table's lifetime; fault-injection tests kill a solve mid-phase,
expire a cached snapshot mid-coalesce, and sever a wire connection
mid-batch.

No ``pytest-asyncio``: each async test drives its own loop with
``asyncio.run`` (the repo convention, see ``test_async_front.py``).
"""
import asyncio
import gc
import json
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import solve_auto
from repro.core.demand import Demand
from repro.core.framework import ENGINES
from repro.core.problem import Problem
from repro.obs import MetricsRegistry
from repro.service import (
    DELTA_OUTCOMES,
    AsyncSchedulingService,
    SchedulingService,
    ServiceError,
    SolveKnobs,
    SolveRequest,
    delta_key,
    diff_problems,
    report_semantic_digest,
)
from repro.trees.tree import TreeNetwork
from repro.workloads import build_trajectory, build_workload, trajectory_names
from tests.test_backends import run_on_backend

KNOBS = dict(engine="incremental", mis="greedy", epsilon=0.25)
#: The engine/backend matrix: every engine takes the warm path, and
#: digest identity must hold everywhere.  The ``parallel`` rows run a
#: whole incremental trajectory on a pool thread and in a forked worker
#: process (``run_on_backend``).
ENGINE_BACKENDS = [
    ("incremental", None),
    ("reference", None),
    ("parallel", "thread"),
    ("parallel", "process"),
]
COMMON = dict(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def service(**kw):
    kw.setdefault("keep_artifacts", True)
    kw.setdefault("disk_dir", None)
    kw.setdefault("workers", 2)
    return SchedulingService(**kw)


def request(problem, knobs=None, label=None):
    return SolveRequest(
        problem=problem,
        knobs=knobs if knobs is not None else SolveKnobs(**KNOBS),
        label=label,
    )


def cold_digest(problem, knobs):
    """Digest of a direct (service-free) solve under *knobs*."""
    report = solve_auto(
        problem,
        epsilon=knobs.epsilon,
        mis=knobs.mis,
        seed=knobs.seed,
        decomposition=knobs.decomposition,
        engine=knobs.engine,
    )
    return report_semantic_digest(report)


def replay(svc, trajectory, knobs):
    """Run a trajectory through *svc*, asserting digest identity on
    every snapshot; returns the non-hit delta outcomes in order."""
    outcomes = []
    for step in trajectory:
        req = request(step.problem, knobs, label=f"step+{step.index}")
        if step.index == 0:
            result = svc.solve(req)
        else:
            result = svc.solve_delta(req)
            if result.delta is None:
                # Churn walked back to an already-served snapshot: an
                # exact fingerprint hit, by design not a delta solve.
                assert result.status == "hit"
            else:
                assert result.delta.outcome in DELTA_OUTCOMES
                outcomes.append(result.delta.outcome)
        assert report_semantic_digest(result.report) == cold_digest(
            step.problem, knobs
        ), f"step {step.index} ({step.kind}) diverged from the cold solve"
    return outcomes


def matrix_outcomes(engine):
    """Replay the engine matrix's trajectory through a fresh service;
    returns its delta outcomes."""
    knobs = SolveKnobs(engine=engine, mis="greedy", epsilon=0.25, seed=3)
    return replay(
        service(), build_trajectory("tenant-churn", 16, seed=3, steps=4),
        knobs,
    )


class TestTrajectoryDriver:
    """The hypothesis sweep: any registered trajectory, any seed, any
    engine -- delta answers must be bitwise the cold answers."""

    @settings(**COMMON)
    @given(
        name=st.sampled_from(sorted(trajectory_names())),
        size=st.sampled_from([12, 16]),
        seed=st.integers(min_value=0, max_value=4),
        steps=st.integers(min_value=3, max_value=5),
        engine=st.sampled_from(ENGINES),
    )
    def test_delta_equals_cold_along_any_trajectory(
        self, name, size, seed, steps, engine
    ):
        knobs = SolveKnobs(
            engine=engine, mis="greedy", epsilon=0.25, seed=seed,
        )
        outcomes = replay(
            service(), build_trajectory(name, size, seed=seed, steps=steps),
            knobs,
        )
        assert "warm" in outcomes, outcomes
        assert set(outcomes) <= {"warm", "ancestor-miss", "network-change"}

    @pytest.mark.parametrize("engine,backend", ENGINE_BACKENDS)
    def test_engine_backend_matrix(self, engine, backend):
        # The full matrix deterministically, process backend included
        # (kept out of the hypothesis sweep: a fork per example).
        if engine == "parallel":
            engine = "incremental"
            outcomes = run_on_backend(backend, matrix_outcomes, engine)
            assert outcomes == matrix_outcomes(engine)
        else:
            outcomes = matrix_outcomes(engine)
        assert "warm" in outcomes, (
            f"an id-stable churn stream must take the warm path on {engine}"
        )
        assert set(outcomes) <= {"warm", "ancestor-miss", "network-change"}

    def test_line_layout_cache_reused_on_warm_replay(self, monkeypatch):
        # line_layouts serves critical slots from the network memo
        # exactly like tree_layouts serves layerings: demand churn
        # local to one line-network must not recompute the layered
        # decomposition of the other.  (The registry line workloads
        # give every demand access to every network, so a hand-rolled
        # access split is needed to leave one network untouched.)
        from repro.algorithms import base
        from repro.core.demand import WindowDemand
        from repro.trees.tree import make_line_network

        demands = [
            WindowDemand(i, 0, 7, 3, profit=1.0 + i, height=0.5)
            for i in range(8)
        ]
        problem = Problem(
            networks={0: make_line_network(0, 8), 1: make_line_network(1, 8)},
            demands=demands,
            access={i: (i % 2,) for i in range(8)},
        )
        svc = service()
        knobs = SolveKnobs(**KNOBS)
        svc.solve(request(problem, knobs))
        mutated = Problem(
            networks=problem.networks,
            demands=[replace(demands[0], profit=99.5)] + demands[1:],
            access=dict(problem.access),
        )
        computed = []
        slots = base.critical_slots

        def counted(nid, d):
            computed.append(nid)
            return slots(nid, d)

        monkeypatch.setattr(base, "critical_slots", counted)
        result = svc.solve_delta(request(mutated, knobs))
        assert result.delta is not None and result.delta.outcome == "warm"
        assert computed == [], (
            "a profit change moves no endpoint: every critical slot "
            "must come from the network memo"
        )
        assert report_semantic_digest(result.report) == cold_digest(
            mutated, knobs
        )


#: A 15-vertex tree labelled 0, 8, 16, ...: the labels collide in small
#: hash tables, so the ideal decomposition's balancer start -- and with
#: it the decomposition and the answer -- follows the edge-list order
#: (reversing it changes both on CPython 3.11).
ORDER_EDGES = [
    (0, 8), (0, 16), (16, 24), (8, 32), (0, 40), (8, 48), (24, 56),
    (48, 64), (40, 72), (32, 80), (32, 88), (56, 96), (96, 104), (72, 112),
]
ORDER_DEMANDS = [
    (48, 32, 2.0), (0, 56, 4.0), (56, 96, 2.0), (56, 64, 7.0),
    (80, 40, 1.0), (8, 96, 3.0), (32, 0, 3.0), (104, 32, 5.0),
]


def order_problem(edges, bump=None):
    """:data:`ORDER_DEMANDS` on one network built from *edges*; demand
    *bump*'s profit is raised by 0.5."""
    demands = [
        Demand(i, u, v, profit=p + (0.5 if i == bump else 0.0))
        for i, (u, v, p) in enumerate(ORDER_DEMANDS)
    ]
    return Problem(networks={0: TreeNetwork(0, edges)}, demands=demands)


def wire_snapshot(name, size, seed, step, **knobs):
    """Snapshot *step* rebuilt from scratch, as a wire request does
    (solve seed = trajectory seed; *knobs* override :data:`KNOBS`)."""
    return AsyncSchedulingService._wire_request({
        "trajectory": name, "size": size, "seed": seed, "step": step,
        "knobs": {**KNOBS, **knobs},
    })


def spy_layout_work(monkeypatch):
    """Count ``build_ideal`` calls and fresh per-path layerings."""
    from repro.algorithms import base

    builds, layerings = [], []
    ideal, layering = base.DECOMPOSITION_BUILDERS["ideal"], base.path_layering

    def counted_ideal(net):
        builds.append(net.network_id)
        return ideal(net)

    def counted_layering(td, path):
        layerings.append(path)
        return layering(td, path)

    monkeypatch.setitem(base.DECOMPOSITION_BUILDERS, "ideal", counted_ideal)
    monkeypatch.setattr(base, "path_layering", counted_layering)
    return builds, layerings


class TestNetworkMemo:
    """Layouts are memoized on the network objects, and a request's
    rebuilt networks adopt the memo of the equal network the service
    solved on last -- only when it is the same network, adjacency order
    included."""

    def service(self, **kw):
        """A test service; :class:`TestNetworkMemoWithTelemetry` turns
        telemetry on for every test of this class."""
        return service(**kw)

    def test_build_counts(self, monkeypatch):
        builds, _ = spy_layout_work(monkeypatch)
        svc = self.service()
        knobs = SolveKnobs(**KNOBS, seed=1)
        trajectory = build_trajectory("tenant-churn", 24, seed=1, steps=6)
        assert [s.kind for s in trajectory] == [
            "base", "resize", "resize", "resize", "add", "onboard",
        ]
        svc.solve(request(trajectory[0].problem, knobs))
        assert len(builds) == sum(
            1 for ds in trajectory[0].problem.instances_by_network.values()
            if ds
        )
        # Warm deltas on the trajectory's shared network objects.
        for step in trajectory[1:4]:
            del builds[:]
            result = svc.solve_delta(request(step.problem, knobs))
            assert result.delta.outcome == "warm" and builds == []
        # A warm delta on a snapshot rebuilt from scratch adopts.
        del builds[:]
        result = svc.solve_delta(wire_snapshot("tenant-churn", 24, 1, 4))
        assert result.delta.outcome == "warm" and builds == []
        # Onboarding brings a network the service has never seen: only
        # it is decomposed, and the request is no longer warm.
        del builds[:]
        result = svc.solve_delta(request(trajectory[5].problem, knobs))
        assert result.delta.outcome == "ancestor-miss"
        new = set(trajectory[5].problem.networks) - set(
            trajectory[4].problem.networks
        )
        assert builds == list(new) and len(new) == 1

    @pytest.mark.parametrize("op", ["solve", "solve_delta"])
    def test_wire_built_requests_build_only_new_networks(
        self, op, monkeypatch
    ):
        # Every snapshot rebuilt from scratch, as the wire does: after
        # the base, a known network set is decomposed zero times, and
        # onboarding decomposes only the new tenant's network -- on the
        # plain path exactly as on the delta path.
        builds, _ = spy_layout_work(monkeypatch)
        svc = self.service()
        counts, outcomes = [], []
        for step in range(6):
            del builds[:]
            result = getattr(svc, op)(wire_snapshot("tenant-churn", 24, 1, step))
            counts.append(len(builds))
            if result.delta is not None:
                outcomes.append(
                    (result.delta.outcome, result.delta.networks_adopted)
                )
            req = wire_snapshot("tenant-churn", 24, 1, step)
            assert report_semantic_digest(result.report) == cold_digest(
                req.problem, req.knobs
            ), step
        assert counts == [18, 0, 0, 0, 0, 1]
        if op == "solve_delta":
            assert outcomes == [("ancestor-miss", 0)] + [("warm", 18)] * 4 + [
                ("ancestor-miss", 18)
            ]

    def test_wire_built_warm_delta_reuses_every_layout(self, monkeypatch):
        builds, layerings = spy_layout_work(monkeypatch)
        svc, twin = self.service(), self.service()
        knobs = SolveKnobs(**KNOBS, seed=3)
        trajectory = build_trajectory("tenant-churn", 32, seed=3, steps=9)
        svc.solve(wire_snapshot("tenant-churn", 32, 3, 0))
        twin.solve(request(trajectory[0].problem, knobs))
        warm = 0
        for step in trajectory[1:]:
            req = wire_snapshot("tenant-churn", 32, 3, step.index)
            assert all(
                req.problem.networks[nid] is not net
                for nid, net in step.problem.networks.items()
            )
            del builds[:], layerings[:]
            result = svc.solve_delta(req)
            shared = twin.solve_delta(request(step.problem, knobs))
            assert report_semantic_digest(result.report) == cold_digest(
                req.problem, knobs
            )
            if result.delta is None:
                continue  # a churn revert: an exact hit
            assert result.delta.outcome == "warm"
            warm += 1
            assert builds == [] and layerings == []
            # The rebuilt networks adopt; the shared ones have nothing
            # to adopt, they already carry their memos.
            assert result.delta.networks_adopted == len(req.problem.networks)
            assert shared.delta.networks_adopted == 0
        assert warm >= 6

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_adopts_on_wire_built_deltas(
        self, engine, monkeypatch
    ):
        # tenant-churn@32#3 resizes demands in steps 1-3 and adds one in
        # step 4, so every step keeps the base snapshot's networks.
        builds, _ = spy_layout_work(monkeypatch)
        svc = self.service()
        base = wire_snapshot("tenant-churn", 32, 3, 0, engine=engine)
        svc.solve(base)
        for step in range(1, 5):
            req = wire_snapshot("tenant-churn", 32, 3, step, engine=engine)
            del builds[:]
            result = svc.solve_delta(req)
            assert result.delta.outcome == "warm", step
            assert builds == [], step
            assert result.delta.networks_adopted == len(req.problem.networks)
            assert report_semantic_digest(result.report) == cold_digest(
                req.problem, req.knobs
            ), step

    def test_reordered_edges_are_not_adopted(self):
        svc = self.service()
        knobs = SolveKnobs(**KNOBS)
        first = order_problem(ORDER_EDGES)
        svc.solve(request(first, knobs))
        # The same edges in the same order adopt.
        same = order_problem(ORDER_EDGES, bump=6)
        result = svc.solve_delta(request(same, knobs))
        assert result.delta.outcome == "warm"
        assert result.delta.networks_adopted == 1
        assert same.networks[0].memo is first.networks[0].memo
        assert report_semantic_digest(result.report) == cold_digest(same, knobs)
        # The reversed list's adjacency differs, and with it its table
        # key, so it must not adopt: it builds its own memo and is no
        # longer warm.
        reordered = order_problem(list(reversed(ORDER_EDGES)), bump=7)
        result = svc.solve_delta(request(reordered, knobs))
        assert result.delta.outcome == "ancestor-miss"
        assert result.delta.networks_adopted == 0
        assert reordered.networks[0].memo is not first.networks[0].memo
        assert report_semantic_digest(result.report) == cold_digest(
            reordered, knobs
        )


class TestNetworkMemoWithTelemetry(TestNetworkMemo):
    """Every test above with a :class:`MetricsRegistry`: telemetry must
    not change what a request adopts or builds, although its family
    label asks every network its shape before the solve."""

    def service(self, **kw):
        return service(metrics=MetricsRegistry(), **kw)


class TestDecisionArms:
    def test_exact_resubmission_is_a_hit_not_a_replay(self):
        svc = service()
        problem = build_workload("multi-tenant-forest", 16, seed=2)
        cold = svc.solve(request(problem))
        again = svc.solve_delta(request(problem))
        assert again.status == "hit" and again.delta is None
        assert report_semantic_digest(again.report) == report_semantic_digest(
            cold.report
        )

    def test_ancestor_miss_on_fresh_service(self):
        svc = service()
        problem = build_workload("multi-tenant-forest", 16, seed=2)
        result = svc.solve_delta(request(problem))
        assert result.status == "miss"
        assert result.delta.outcome == "ancestor-miss"
        # The fallback itself left its networks memo-warm: a
        # perturbation over the same networks now runs warm.
        mutated = Problem(
            networks=problem.networks,
            demands=[replace(problem.demands[0], profit=99.5)]
            + list(problem.demands[1:]),
            access=dict(problem.access),
        )
        warm = svc.solve_delta(request(mutated))
        assert warm.delta.outcome == "warm"
        assert report_semantic_digest(warm.report) == cold_digest(
            mutated, SolveKnobs(**KNOBS)
        )

    def test_keep_artifacts_false_always_falls_back(self):
        svc = service(keep_artifacts=False)
        problem = build_workload("multi-tenant-forest", 16, seed=2)
        svc.solve_delta(request(problem))
        mutated = Problem(
            networks=problem.networks,
            demands=[replace(problem.demands[0], profit=99.5)]
            + list(problem.demands[1:]),
            access=dict(problem.access),
        )
        result = svc.solve_delta(request(mutated))
        assert result.delta.outcome == "ancestor-miss"
        assert report_semantic_digest(result.report) == cold_digest(
            mutated, SolveKnobs(**KNOBS)
        )

    @staticmethod
    def _two_shape_problem(swap: bool) -> Problem:
        """Two different-shaped networks; *swap* exchanges their ids."""
        path = [(0, 1), (1, 2), (2, 3)]
        star = [(0, 1), (0, 2), (0, 3)]
        a, b = (star, path) if swap else (path, star)
        networks = {0: TreeNetwork(0, a), 1: TreeNetwork(1, b)}
        demands = [
            replace(d, profit=float(3 + d.demand_id))
            for d in (
                build_workload("multi-tenant-forest", 8, seed=0).demands[:4]
            )
        ]
        demands = [replace(d, u=0, v=1) for d in demands]
        # Access only network 0: the id-swap then *moves the demands
        # onto a different shape* -- a semantically different problem
        # (no relabeling makes it the original), whose id-free network
        # shapes are yet the original's, so any key that drops network
        # ids confuses the two.
        return Problem(
            networks=networks,
            demands=demands,
            access={d.demand_id: (0,) for d in demands},
        )

    def test_sketch_collision_adopts_nothing(self):
        original = self._two_shape_problem(swap=False)
        swapped = self._two_shape_problem(swap=True)
        # The id-swap is visible to the delta key and the per-id diff...
        knobs = SolveKnobs(**KNOBS)
        assert delta_key(original, knobs) != delta_key(swapped, knobs)
        assert diff_problems(original, swapped).networks_changed
        # ...and to the network table, whose keys carry the id: neither
        # network finds a twin.
        svc = service()
        svc.solve(request(original))
        result = svc.solve_delta(request(swapped))
        assert result.delta.outcome == "ancestor-miss"
        assert result.delta.networks_adopted == 0
        assert report_semantic_digest(result.report) == cold_digest(
            swapped, knobs
        )

    def test_reversed_edge_list_is_solved_as_itself(self):
        # Reversing ORDER_EDGES can move the balancer's start, and with
        # it the decomposition and the answer: the reversed request
        # must key apart and be solved, never served the first list's
        # answer.
        knobs = SolveKnobs(**KNOBS)
        problems = [
            order_problem(ORDER_EDGES),
            order_problem(list(reversed(ORDER_EDGES))),
        ]
        first, second = (request(p, knobs).fingerprint() for p in problems)
        assert first != second
        svc = service()
        for problem in problems:
            result = svc.solve(request(problem, knobs))
            assert result.status == "miss"
            assert report_semantic_digest(result.report) == cold_digest(
                problem, knobs
            )
        assert svc.stats["solves"] == 2

    def test_a_network_no_demand_uses_still_runs_warm(self):
        # Network 1 carries no demand, so no solve work builds it a
        # memo; admission gives it an empty one, or it would keep every
        # later snapshot on these networks from running warm.
        problem = self._two_shape_problem(swap=False)
        svc = service()
        svc.solve(request(problem))
        assert problem.networks[1].has_memo
        mutated = Problem(
            networks=problem.networks,
            demands=[replace(problem.demands[0], profit=99.5)]
            + list(problem.demands[1:]),
            access=dict(problem.access),
        )
        result = svc.solve_delta(request(mutated))
        assert result.delta.outcome == "warm"
        assert report_semantic_digest(result.report) == cold_digest(
            mutated, SolveKnobs(**KNOBS)
        )

    def test_delta_touching_every_demand_runs_warm(self):
        # No change is too large: only networks lend memos, and the
        # solve is the plain one either way.
        problem = build_workload("multi-tenant-forest", 16, seed=2)
        mutated = Problem(
            networks=problem.networks,
            demands=[
                replace(d, profit=d.profit * 1.5) for d in problem.demands
            ],
            access=dict(problem.access),
        )
        svc = service()
        svc.solve(request(problem))
        result = svc.solve_delta(request(mutated))
        assert result.status == "delta" and result.delta.outcome == "warm"
        assert result.delta.networks_adopted == 0  # shared networks
        assert report_semantic_digest(result.report) == cold_digest(
            mutated, SolveKnobs(**KNOBS)
        )


class TestNetworkTable:
    """The network table holds networks weakly: an entry lives as long
    as a memory-tier cache entry (or a caller) keeps its network."""

    def test_index_stays_within_cache_capacity(self):
        # 40 finished trajectories through a 16-entry cache: the table
        # never names more networks than live entries retain.
        capacity = 16
        svc = service(capacity=capacity)
        knobs = SolveKnobs(seed=2)
        outcomes = Counter()
        for seed in range(40):
            for step in build_trajectory("tenant-churn", 40, seed=seed, steps=3):
                result = svc.solve_delta(request(step.problem, knobs))
                outcomes[result.delta.outcome if result.delta else "hit"] += 1
            del step
            gc.collect()
            retained = {
                id(net)
                for entry in svc.cache._entries.values()
                for net in entry.artifacts
            }
            assert len(svc.cache) <= capacity
            assert svc.stats["networks"] <= len(retained)
        # Each trajectory's base brings networks the service has not
        # seen, as do its onboarding steps; the ancestor index this
        # table replaced gave the same mix on this stream.
        assert outcomes == {"warm": 68, "ancestor-miss": 49, "hit": 3}

    def test_invalidation_and_expiry_unindex(self):
        clock = FakeClock(expire_after=50.0)
        svc = service(ttl=10.0, clock=clock)
        for step in range(6):  # tenant-churn@24#1 onboards at step 5
            svc.solve_delta(wire_snapshot("tenant-churn", 24, 1, step))
        assert svc.stats["networks"] == 19
        svc.invalidate(predicate=lambda entry: True)
        gc.collect()
        assert svc.stats["networks"] == 0
        served = svc.solve_delta(wire_snapshot("tenant-churn", 24, 3, 1))
        assert served.delta.outcome == "ancestor-miss"
        assert svc.stats["networks"] == 18
        clock.advance(clock.expire_after)
        # A lookup past the deadline drops the entry, and with it the
        # networks it retained.
        assert svc.cache.get_memory(served.fingerprint) is None
        del served
        gc.collect()
        assert svc.stats["networks"] == 0

    def test_racing_wire_requests_share_memos_soundly(self):
        # More workers than cores and a short switch interval: rebuilt
        # snapshots of one network set look up and register twins
        # concurrently.  Every answer must still be the cold one, and
        # the table must end with one memo-carrying entry per content.
        svc = service(workers=4)
        requests = [wire_snapshot("tenant-churn", 24, 1, s) for s in range(5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            futures = [svc.submit_delta(r) for r in requests]
            results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for req, result in zip(requests, results):
            assert report_semantic_digest(result.report) == cold_digest(
                req.problem, req.knobs
            )
        assert svc.stats["networks"] == 18
        assert all(net.has_memo for net in svc._networks.values())

    def test_artifact_free_service_keeps_no_table(self):
        svc = service(keep_artifacts=False)
        problem = build_workload("multi-tenant-forest", 16, seed=2)
        svc.solve(request(problem))
        assert svc.stats["networks"] == 0
        assert svc.cache.peek_entry(request(problem).fingerprint()).artifacts is None


class TestDebounce:
    @staticmethod
    def storm(delta_debounce=0.05, ttl=None, clock=None, storm_size=4):
        """Fire *storm_size* rapid solve_delta calls (one trajectory's
        consecutive snapshots) at a debounced front door.  With a
        *clock*, the base snapshot's entry expires while the storm is
        parked, and the base is then resubmitted: the last result."""
        kw = {}
        if ttl is not None:
            kw.update(ttl=ttl, clock=clock)
        svc = service(**kw)
        # capacity-steps mutations (resize / capacity-step) leave the
        # networks alone: the whole storm shares one delta key, so it
        # must coalesce into exactly one flush.
        trajectory = build_trajectory(
            "capacity-steps", 16, seed=1, steps=storm_size + 1
        )

        async def run():
            front = AsyncSchedulingService(
                service=svc, delta_debounce=delta_debounce
            )
            await front.solve(request(trajectory[0].problem))
            tasks = [
                asyncio.ensure_future(
                    front.solve_delta(request(step.problem))
                )
                for step in trajectory[1:]
            ]
            if clock is not None:
                # Expire the base *while* the storm is parked in the
                # debouncer, before its quiet period elapses.
                while not len(front._debouncer):
                    await asyncio.sleep(0.001)
                clock.advance(clock.expire_after)
            results = await asyncio.gather(*tasks)
            if clock is not None:
                results.append(
                    await front.solve(request(trajectory[0].problem))
                )
            stats = front.stats
            await front.drain()
            return results, stats

        return trajectory, *asyncio.run(run())

    def test_storm_coalesces_to_latest_snapshot(self):
        trajectory, results, stats = self.storm()
        latest = cold_digest(trajectory[-1].problem, SolveKnobs(**KNOBS))
        assert all(
            report_semantic_digest(r.report) == latest for r in results
        ), "every waiter gets the storm's latest snapshot"
        assert [r.superseded for r in results] == [True] * (len(results) - 1) + [
            False
        ]
        assert stats["debouncer"]["flushes"] == 1
        assert stats["debouncer"]["storms_coalesced"] == len(results) - 1
        # One ancestor solve + one coalesced delta solve.
        assert stats["service"]["solves"] == 2

    @staticmethod
    def pair(first, second):
        """Send *first*, then once it is parked *second*, to a front door
        debouncing for 50 ms; their results and the debouncer stats."""

        async def run():
            front = AsyncSchedulingService(
                service=service(), delta_debounce=0.05
            )
            tasks = [asyncio.ensure_future(front.solve_delta(request(first)))]
            while not len(front._debouncer):
                await asyncio.sleep(0.001)
            tasks.append(
                asyncio.ensure_future(front.solve_delta(request(second)))
            )
            results = await asyncio.gather(*tasks)
            stats = front.stats["debouncer"]
            await front.drain()
            return results, stats

        return asyncio.run(run())

    def test_sketch_twins_do_not_supersede_each_other(self):
        # Swapping two differently shaped networks' ids keeps their
        # id-free shapes; the pair must not share a storm, or the first
        # waiter is served the other problem.
        knobs = SolveKnobs(**KNOBS)
        problems = [
            TestDecisionArms._two_shape_problem(swap=swap)
            for swap in (False, True)
        ]
        assert delta_key(problems[0], knobs) != delta_key(problems[1], knobs)
        results, stats = self.pair(*problems)
        for problem, result in zip(problems, results):
            assert not result.superseded
            assert report_semantic_digest(result.report) == cold_digest(
                problem, knobs
            )
        assert stats["flushes"] == 2 and stats["storms_coalesced"] == 0

    def test_snapshots_over_equal_networks_still_coalesce(self):
        # A rebuilt problem: new network objects with the same ids and
        # content, and one demand's profit changed.
        base = TestDecisionArms._two_shape_problem(swap=False)
        rebuilt = TestDecisionArms._two_shape_problem(swap=False)
        mutated = Problem(
            networks=rebuilt.networks,
            demands=[replace(rebuilt.demands[0], profit=99.5)]
            + list(rebuilt.demands[1:]),
            access=dict(rebuilt.access),
        )
        results, stats = self.pair(base, mutated)
        assert [r.superseded for r in results] == [True, False]
        latest = cold_digest(mutated, SolveKnobs(**KNOBS))
        assert all(
            report_semantic_digest(r.report) == latest for r in results
        )
        assert stats["flushes"] == 1 and stats["storms_coalesced"] == 1

    def test_drain_flushes_pending_storm(self):
        svc = service()
        trajectory = build_trajectory("tenant-churn", 16, seed=1, steps=2)

        async def run():
            # A debounce window far longer than the test: only the
            # drain's force-flush can resolve the waiter.
            front = AsyncSchedulingService(service=svc, delta_debounce=60.0)
            await front.solve(request(trajectory[0].problem))
            task = asyncio.ensure_future(
                front.solve_delta(request(trajectory[1].problem))
            )
            while not len(front._debouncer):
                await asyncio.sleep(0.005)
            await front.drain()
            return await asyncio.wait_for(task, timeout=5)

        result = asyncio.run(run())
        assert result.delta is not None and result.delta.outcome == "warm"

    def test_debounce_zero_dispatches_immediately(self):
        svc = service()
        trajectory = build_trajectory("tenant-churn", 16, seed=1, steps=2)

        async def run():
            front = AsyncSchedulingService(service=svc)
            await front.solve(request(trajectory[0].problem))
            result = await front.solve_delta(request(trajectory[1].problem))
            await front.drain()
            return result, front.stats

        result, stats = asyncio.run(run())
        assert result.delta.outcome == "warm" and not result.superseded
        assert stats["debouncer"] is None


class FakeClock:
    """Injectable monotonic clock; ``expire_after`` is how far a test
    must advance to blow every TTL it configured."""

    def __init__(self, expire_after):
        self.now = 100.0
        self.expire_after = expire_after

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestFaultInjection:
    def test_process_worker_death_mid_wave_fails_attributably(
        self, monkeypatch
    ):
        """A solve dying mid-phase on its pool worker during a delta
        re-solve must fail the request attributably, leave nothing in
        flight or in the network table, and leave the service able to
        serve the retry bit-identically."""
        import repro.core.engines.incremental as incremental

        real = incremental.run_epoch_incremental
        epochs_run = []

        def dying(epoch, *args):
            epochs_run.append(epoch)
            if len(epochs_run) == 2:
                raise RuntimeError("worker died mid-wave")
            return real(epoch, *args)

        knobs = SolveKnobs(**KNOBS)
        problem = build_workload("multi-tenant-forest", 16, seed=1)
        svc = service()
        monkeypatch.setattr(incremental, "run_epoch_incremental", dying)
        with pytest.raises(ServiceError, match="doomed.*mid-wave"):
            svc.solve_delta(request(problem, knobs, label="doomed"))
        monkeypatch.undo()
        assert len(epochs_run) == 2, "the solve must die in its second epoch"
        assert svc.stats["inflight"] == 0
        assert svc.stats["networks"] == 0, "a failed solve registers nothing"
        result = svc.solve_delta(request(problem, knobs, label="retry"))
        # The dead solve had finished its layouts, and a network's memo
        # is a function of the network alone: the retry reuses them.
        assert result.delta.outcome == "warm"
        assert report_semantic_digest(result.report) == cold_digest(
            problem, knobs
        )

    def test_ancestor_expiry_mid_coalesce_degrades_to_cold(self):
        """The base snapshot's cache entry expiring while a storm is
        parked in the debouncer: its answer is never served again -- a
        resubmitted base solves afresh -- and every answer is
        digest-identical to a cold solve.  The storm may still reuse
        the base's network memos: a memo is a function of its network,
        whatever became of the entry."""
        clock = FakeClock(expire_after=50.0)
        trajectory, results, stats = TestDebounce.storm(
            ttl=10.0, clock=clock, storm_size=3
        )
        *flushed, again = results
        knobs = SolveKnobs(**KNOBS)
        final = flushed[-1]
        assert final.delta is not None and final.delta.outcome == "warm"
        assert report_semantic_digest(final.report) == cold_digest(
            trajectory[-1].problem, knobs
        )
        assert again.status == "miss", "an expired entry must not be served"
        assert stats["service"]["cache"]["expirations"] == 1
        assert report_semantic_digest(again.report) == cold_digest(
            trajectory[0].problem, knobs
        )

    def test_wire_severed_mid_batch_leaves_service_healthy(self):
        """A client vanishing with delta requests in flight: the server
        finishes the work, survives the dead socket, and keeps serving
        new connections."""
        lines = [
            {"id": i, "op": "solve_delta", "workload": "multi-tenant-forest",
             "size": 16, "seed": i, "knobs": KNOBS}
            for i in range(3)
        ]

        async def run():
            front = AsyncSchedulingService(service=service())
            host, port = await front.serve()
            _, writer = await asyncio.open_connection(host, port)
            for line in lines:
                writer.write(json.dumps(line).encode() + b"\n")
            await writer.drain()
            writer.transport.abort()  # sever without goodbye
            # The same front door must still answer a fresh connection.
            reader2, writer2 = await asyncio.open_connection(host, port)
            writer2.write(json.dumps(lines[0]).encode() + b"\n")
            await writer2.drain()
            response = json.loads(await reader2.readline())
            writer2.close()
            await writer2.wait_closed()
            await front.drain()
            return response, front.stats

        response, stats = asyncio.run(run())
        assert response["ok"]
        assert response["status"] in ("miss", "hit", "delta")
        assert "delta" in response and "superseded" in response
        assert stats["served"] >= 1
        assert stats["service"]["requests"] >= 1


class TestWireOp:
    def test_solve_delta_op_roundtrip_and_unknown_op(self):
        wire = {
            "id": 1, "op": "solve_delta", "workload": "multi-tenant-forest",
            "size": 16, "seed": 2, "knobs": KNOBS,
        }

        async def run():
            front = AsyncSchedulingService(service=service())
            host, port = await front.serve()
            reader, writer = await asyncio.open_connection(host, port)
            responses = []
            # Strictly sequential (request 2 only after response 1), so
            # the resubmission is a cache hit rather than a coalesce.
            for line in (wire, {**wire, "id": 2}, {"id": 3, "op": "bogus"}):
                writer.write(json.dumps(line).encode() + b"\n")
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            await front.drain()
            return {r.get("id"): r for r in responses}

        by_id = asyncio.run(run())
        first = by_id[1]
        assert first["ok"] and first["status"] == "miss"
        assert first["delta"]["outcome"] == "ancestor-miss"
        assert first["superseded"] is False
        # An identical resubmission is an exact hit: delta rides null.
        second = by_id[2]
        assert second["ok"] and second["status"] == "hit"
        assert second["delta"] is None
        assert not by_id[3]["ok"] and "bogus" in by_id[3]["error"]
        expected = cold_digest(
            build_workload("multi-tenant-forest", 16, seed=2),
            SolveKnobs(**KNOBS, seed=2),
        )
        assert first["semantic_digest"] == expected

    def test_stats_op_surfaces_delta_totals(self):
        """``{"op": "stats"}`` must carry the accumulated DeltaStats
        counters, so delta reuse is readable off the wire."""
        problem = build_workload("multi-tenant-forest", 16, seed=2)
        # Over rebuilt networks, as a wire request arrives: they adopt.
        rebuilt = build_workload("multi-tenant-forest", 16, seed=2)
        mutated = Problem(
            networks=rebuilt.networks,
            demands=[replace(rebuilt.demands[0], profit=99.5)]
            + list(rebuilt.demands[1:]),
            access=dict(rebuilt.access),
        )

        async def run():
            front = AsyncSchedulingService(service=service())
            host, port = await front.serve()
            await front.solve_delta(request(problem))  # fills the table
            warm = await front.solve_delta(request(mutated))
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps({"id": 9, "op": "stats"}).encode() + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await front.drain()
            return warm, response

        warm, response = asyncio.run(run())
        assert warm.delta is not None and warm.delta.outcome == "warm"
        svc_stats = response["stats"]["service"]
        totals = svc_stats["delta_totals"]
        assert warm.delta.snapshot() == {
            "outcome": "warm", "networks_adopted": len(mutated.networks),
        }
        assert totals == {"networks_adopted": len(mutated.networks)}, (
            "the adopting delta must be counted"
        )
        assert svc_stats["delta_outcomes"]["warm"] == 1
        assert svc_stats["networks"] == len(problem.networks)

    def test_totals_accumulate_counters_added_after_construction(
        self, monkeypatch
    ):
        """Regression: ``_delta_totals`` is seeded from a snapshot taken
        at construction, but the accumulation must iterate the *live*
        snapshot -- a numeric counter that ``DeltaStats.snapshot`` grows
        later (a newer field, a plugin) must show up in
        ``stats["delta_totals"]``, not be silently dropped because the
        seeded dict never had its key."""
        from repro.service import DeltaStats

        svc = service()  # totals seeded from the pristine snapshot
        original = DeltaStats.snapshot

        def snapshot_with_future_counter(stats):
            snap = original(stats)
            snap["future_counter"] = 3
            snap["future_label"] = "not-a-number"  # must be ignored
            return snap

        monkeypatch.setattr(
            DeltaStats, "snapshot", snapshot_with_future_counter
        )
        svc.solve_delta(
            request(build_workload("multi-tenant-forest", 16, seed=2))
        )
        totals = svc.stats["delta_totals"]
        assert totals.get("future_counter", 0) >= 3, (
            "a counter unknown at construction must still accumulate"
        )
        assert "future_label" not in totals
