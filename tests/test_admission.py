"""The second phase: the reference pop and its journal (property-based).

Contracts under test, per :mod:`repro.core.engines.admission`:

* **Feasibility** -- the selection keeps each edge's load at or under
  ``1 + EPS`` and admits at most one instance per demand.
* **Partition** -- :func:`stack_components` is a genuine
  capacity-disjoint partition: components cover every instance, share
  no path edge and no demand id, and are keyed by smallest member id.
* **Journal replay** -- the journaled pop, one component at a time,
  selects exactly what the global reference pop selects, with the same
  check count, on adversarial synthetic stacks (including batches that
  are not independent sets); a component whose admission signature
  matches its ancestor's replays to exactly what a cold re-pop would
  produce; a perturbed component re-pops while its untouched siblings
  replay.

Plus service-level checks: delta-solve surfacing the admission replay
counters, and the :class:`PhaseCounters` compat guard (the default
semantic tuple is unchanged by the admission fields).
"""
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import solve_auto
from repro.core.engines.admission import run_second_phase, stack_components
from repro.core.engines.artifacts import PhaseCounters
from repro.core.engines.journal import FirstPhaseJournal, journal_context
from repro.core.demand import DemandInstance
from repro.core.types import EPS, edge_key
from repro.service import (
    SchedulingService,
    SolveKnobs,
    SolveRequest,
    report_semantic_digest,
)
from repro.workloads import build_trajectory, build_workload

COMMON = dict(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Heights that sum interestingly around the unit capacity, plus exact
#: binary fractions so feasibility boundaries are reproducible.
HEIGHTS = (1.0, 0.75, 0.5, 0.375, 0.25, 0.125)


@st.composite
def stacks(draw):
    """A synthetic MIS stack on one shared line network.

    Deliberately *not* restricted to independent sets: batches may
    share edges and demand ids internally, which the real first phase
    never emits -- that is where the union-find has non-trivial merging
    to do, and where a per-component pop could most easily drift from
    the global one.
    """
    stack, next_id = [], 0
    for _ in range(draw(st.integers(1, 5))):
        batch = []
        for _ in range(draw(st.integers(0, 6))):
            a = draw(st.integers(0, 12))
            b = a + draw(st.integers(1, 4))
            batch.append(DemandInstance(
                instance_id=next_id,
                demand_id=draw(st.integers(0, 9)),
                network_id=0,
                u=a, v=b,
                profit=float(draw(st.integers(1, 50))),
                height=draw(st.sampled_from(HEIGHTS)),
                path_vertex_seq=tuple(range(a, b + 1)),
                path_edges=frozenset(
                    edge_key(0, i, i + 1) for i in range(a, b)
                ),
            ))
            next_id += 1
        stack.append(batch)
    return stack


def members(stack):
    return [d for batch in stack for d in batch]


class TestSyntheticStacks:
    @given(stack=stacks())
    @settings(**COMMON)
    def test_selection_is_feasible(self, stack):
        solution = run_second_phase(stack)
        load = {}
        demands = set()
        for d in solution.selected:
            assert d.demand_id not in demands, "two instances of one demand"
            demands.add(d.demand_id)
            for e in d.path_edges:
                load[e] = load.get(e, 0.0) + d.height
        assert all(total <= 1.0 + EPS for total in load.values())

    @given(stack=stacks())
    @settings(**COMMON)
    def test_components_partition_capacity_disjointly(self, stack):
        components = stack_components(stack)
        seen_ids, seen_edges, seen_demands = set(), set(), set()
        for comp in components:
            ids = {d.instance_id for d in members(comp.batches)}
            edges = {e for d in members(comp.batches) for e in d.path_edges}
            demands = {d.demand_id for d in members(comp.batches)}
            assert comp.key == min(ids)
            assert not ids & seen_ids
            assert not edges & seen_edges, "components share a capacity edge"
            assert not demands & seen_demands, "components share a demand"
            seen_ids |= ids
            seen_edges |= edges
            seen_demands |= demands
            assert all(comp.batches), "empty batch kept in a component slice"
        assert seen_ids == {d.instance_id for d in members(stack)}
        assert [c.key for c in components] == sorted(c.key for c in components)

    @given(stack=stacks())
    @settings(**COMMON)
    def test_journal_replay_matches_rerun(self, stack):
        cold = FirstPhaseJournal()
        cold_counters = PhaseCounters()
        with journal_context(cold):
            first = run_second_phase(stack, counters=cold_counters)
        n = len(stack_components(stack))
        assert cold.admission_components == n
        assert cold.admission_rerun == n and cold.admission_replayed == 0
        # Popping one capacity component at a time must reproduce the
        # global reference pop: same selection, same admission checks.
        flat = PhaseCounters()
        assert first == run_second_phase(stack, counters=flat)
        assert cold_counters.admission_checks == flat.admission_checks

        warm = FirstPhaseJournal(ancestor=cold.journal)
        with journal_context(warm):
            second = run_second_phase(stack)
        assert second == first
        assert warm.admission_replayed == n and warm.admission_rerun == 0
        # The warm journal re-records every component, so a *chain* of
        # deltas keeps replaying without consulting the original.
        chained = FirstPhaseJournal(ancestor=warm.journal)
        with journal_context(chained):
            third = run_second_phase(stack)
        assert third == first and chained.admission_replayed == n

    @given(stack=stacks())
    @settings(**COMMON)
    def test_journal_perturbed_component_reruns_to_cold_answer(self, stack):
        from dataclasses import replace

        if not members(stack):
            return
        cold = FirstPhaseJournal()
        with journal_context(cold):
            run_second_phase(stack)
        # Perturb one instance's profit: its component's signature must
        # miss (profit is signed content) while every other component
        # still replays, and the merged answer must equal a cold pop of
        # the mutated stack.
        victim = members(stack)[0].instance_id
        mutated = [
            [
                replace(d, profit=d.profit + 1.0)
                if d.instance_id == victim else d
                for d in batch
            ]
            for batch in stack
        ]
        warm = FirstPhaseJournal(ancestor=cold.journal)
        with journal_context(warm):
            delta = run_second_phase(mutated)
        assert delta == run_second_phase(mutated)
        assert warm.admission_rerun >= 1
        assert (
            warm.admission_replayed
            == len(stack_components(mutated)) - warm.admission_rerun
        )


class TestSolverStacks:
    """Admission accounting on stacks the first phase actually emits."""

    def solver_stack(self, name, size, seed):
        report = solve_auto(
            build_workload(name, size, seed=seed),
            epsilon=0.25, mis="greedy", seed=seed, engine="incremental",
        )
        return report.result.stack, report.solution

    def test_counters_account_for_real_admission_work(self):
        stack, solution = self.solver_stack("bursty-lines", 16, 2)
        counters = PhaseCounters()
        run_second_phase(stack, counters=counters)
        assert counters.phase2_rounds == sum(1 for b in stack if b)
        assert counters.admission_checks == len(members(stack))
        assert counters.admitted == len(solution)
        assert counters.rejected == counters.admission_checks - counters.admitted
        # Compat guard: the default semantic tuple is blind to the new
        # admission fields (old goldens stay valid); opting in extends it.
        base = counters.semantic_tuple()
        assert len(base) == len(PhaseCounters.SEMANTIC_FIELDS)
        assert counters.semantic_tuple(include_admission=True) == base + (
            counters.admission_checks, counters.admitted, counters.rejected,
        )


class TestServicePhase2:
    KNOBS = dict(engine="incremental", mis="greedy", epsilon=0.25)

    def test_delta_solve_replays_admission_components(self):
        svc = SchedulingService(
            workers=2, disk_dir=None, keep_artifacts=True
        )
        for step in build_trajectory("tenant-churn", 48, seed=4, steps=4):
            req = SolveRequest(
                problem=step.problem, knobs=SolveKnobs(**self.KNOBS)
            )
            result = svc.solve(req) if step.index == 0 else svc.solve_delta(req)
            cold = solve_auto(step.problem, seed=0, **self.KNOBS)
            assert report_semantic_digest(result.report) == (
                report_semantic_digest(cold)
            ), f"step {step.index} diverged from the cold solve"
        totals = svc.stats["delta_totals"]
        assert totals["admission_components"] > 0
        assert totals["admission_replayed"] > 0
        assert (
            totals["admission_replayed"] + totals["admission_rerun"]
            == totals["admission_components"]
        )
