"""Theorem 7.2: distributed (23+eps)-approximation, arbitrary heights, lines.

The wide/narrow combination of Section 6 instantiated with the
length-class decomposition (``Delta = 3``): wide instances run the
Theorem 7.1 algorithm (``4+eps``), narrow instances run the
height-raise framework with ``xi = c'/(c' + hmin)``
(``(2*9+1)/lambda = 19+eps``), and the per-network merge gives
``23 + eps`` -- improving Panconesi-Sozio's ``55 + eps``.
"""
from __future__ import annotations

from typing import Optional

from repro.algorithms.base import AlgorithmReport, line_layouts
from repro.algorithms.unit_lines import LINE_DELTA, solve_unit_lines
from repro.core.dual import HeightRaise
from repro.core.framework import (
    geometric_thresholds,
    narrow_xi,
    run_two_phase,
    validate_engine,
)
from repro.core.problem import Problem
from repro.core.solution import combine_per_network


def solve_narrow_lines(
    problem: Problem,
    epsilon: float = 0.1,
    mis: str = "luby",
    seed: int = 0,
    hmin: Optional[float] = None,
    xi: Optional[float] = None,
    engine: str = "reference",
) -> AlgorithmReport:
    """Narrow-instance algorithm on lines (Section 7, arbitrary heights)."""
    validate_engine(engine)
    if not all(a.is_narrow for a in problem.demands):
        raise ValueError("narrow algorithm requires every height <= 1/2")
    if hmin is None:
        hmin = problem.hmin
    layout = line_layouts(problem)
    delta = max(layout.critical_set_size, 1)
    if xi is None:
        xi = narrow_xi(max(delta, LINE_DELTA), hmin)
    thresholds = geometric_thresholds(xi, epsilon)
    result = run_two_phase(
        problem.instances, layout, HeightRaise(), thresholds, mis=mis, seed=seed,
        engine=engine,
    )
    guarantee = (2 * delta * delta + 1) / result.slackness
    return AlgorithmReport(
        name="narrow-lines",
        solution=result.solution,
        guarantee=guarantee,
        certified_upper_bound=result.certified_upper_bound,
        result=result,
    )


def solve_arbitrary_lines(
    problem: Problem,
    epsilon: float = 0.1,
    mis: str = "luby",
    seed: int = 0,
    engine: str = "reference",
) -> AlgorithmReport:
    """Run the Theorem 7.2 algorithm on a line-network problem."""
    validate_engine(engine)
    if not problem.has_wide:
        return solve_narrow_lines(
            problem, epsilon=epsilon, mis=mis, seed=seed, engine=engine,
        )
    if not problem.has_narrow:
        return solve_unit_lines(
            problem, epsilon=epsilon, mis=mis, seed=seed, allow_heights=True,
            engine=engine,
        )
    wide_problem, narrow_problem = problem.split_by_width()
    wide = solve_unit_lines(
        wide_problem, epsilon=epsilon, mis=mis, seed=seed, allow_heights=True,
        engine=engine,
    )
    narrow = solve_narrow_lines(
        narrow_problem, epsilon=epsilon, mis=mis, seed=seed, engine=engine,
    )
    combined = combine_per_network(
        wide.solution, narrow.solution, sorted(problem.networks)
    )
    return AlgorithmReport(
        name="arbitrary-lines",
        solution=combined,
        guarantee=wide.guarantee + narrow.guarantee,
        certified_upper_bound=wide.certified_upper_bound + narrow.certified_upper_bound,
        parts={"wide": wide, "narrow": narrow},
    )
