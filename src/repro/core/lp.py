"""The throughput-maximization LP (Sections 3.1 and 6.1).

Primal::

    max   sum_d p(d) x(d)
    s.t.  sum_{d ~ e} h(d) x(d) <= 1      for every edge e
          sum_{d in Inst(a)} x(d) <= 1    for every demand a
          x >= 0

(``h(d) = 1`` in the unit-height case).  The fractional optimum upper
bounds the integral optimum, so :func:`lp_upper_bound` provides a
scalable yardstick for measuring approximation ratios when exact
branch-and-bound is out of reach.  :func:`check_scaled_dual_feasible`
verifies the weak-duality certificate produced by the framework: once
every instance is ``lambda``-satisfied, ``<alpha, beta> / lambda`` is
dual feasible and its value bounds ``p(Opt)``.
"""
from __future__ import annotations

from typing import Dict, Sequence

from repro.core.demand import DemandInstance
from repro.core.dual import DualState
from repro.core.problem import Problem
from repro.core.types import EdgeKey


def lp_upper_bound(problem: Problem) -> float:
    """Solve the fractional LP; returns its optimal value.

    Uses scipy's HiGHS solver on a sparse constraint matrix.  scipy and
    numpy are imported here, on the first call, because nothing that
    serves or solves calls this and their import is most of a process's
    start-up time and memory.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import lil_matrix

    instances = problem.instances
    n = len(instances)
    edge_rows: Dict[EdgeKey, int] = {}
    demand_rows: Dict[int, int] = {}
    for d in instances:
        for e in d.path_edges:
            edge_rows.setdefault(e, len(edge_rows))
    n_edges = len(edge_rows)
    for d in instances:
        demand_rows.setdefault(d.demand_id, n_edges + len(demand_rows))
    n_rows = n_edges + len(demand_rows)
    a_ub = lil_matrix((n_rows, n))
    for j, d in enumerate(instances):
        for e in d.path_edges:
            a_ub[edge_rows[e], j] = d.height
        a_ub[demand_rows[d.demand_id], j] = 1.0
    c = np.array([-d.profit for d in instances])
    res = linprog(
        c,
        A_ub=a_ub.tocsr(),
        b_ub=np.ones(n_rows),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success:  # pragma: no cover - HiGHS is exact on these LPs
        raise RuntimeError(f"LP solve failed: {res.message}")
    return float(-res.fun)


def check_scaled_dual_feasible(
    dual: DualState, instances: Sequence[DemandInstance], slackness: float
) -> None:
    """Assert that ``<alpha, beta> / slackness`` is dual feasible.

    Equivalently, every instance must be ``slackness``-satisfied under
    the (unit or height) dual constraint.  Raises ``AssertionError``
    otherwise.
    """
    for d in instances:
        if not dual.is_satisfied(d, slackness):
            raise AssertionError(
                f"instance {d.instance_id} is not {slackness:.4f}-satisfied: "
                f"LHS={dual.lhs(d):.6g} < {slackness * d.profit:.6g}"
            )
