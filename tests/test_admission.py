"""The second phase: the reversed-stack reference pop (property-based).

Contracts under test, per :mod:`repro.core.engines.admission`:

* **Feasibility** -- the selection keeps each edge's load at or under
  ``1 + EPS`` and admits at most one instance per demand, even on
  adversarial synthetic stacks whose batches are not independent sets.
* **Accounting** -- on stacks the first phase actually emits, the
  :class:`PhaseCounters` admission fields count the real pop work, and
  the default semantic tuple is unchanged by them (compat guard).
"""
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import solve_auto
from repro.core.engines.admission import run_second_phase
from repro.core.engines.artifacts import PhaseCounters
from repro.core.demand import DemandInstance
from repro.core.types import EPS, edge_key
from repro.workloads import build_workload

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
    never emits -- so the pop's capacity and one-per-demand checks,
    not the MIS, are what keep the selection feasible.
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
