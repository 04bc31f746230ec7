"""Theorem 7.1: distributed (4+eps)-approximation, unit heights, lines.

Line-networks with windows: demands expand into one instance per
(resource, start slot).  The length-class layered decomposition
(``Delta = 3``, implicit in Panconesi-Sozio [16]) replaces the ideal
tree decomposition, and the stage ratio becomes ``xi = 8/9``
(``= 2*4/(2*4+1)``).  Lemma 3.1 certifies
``p(S) >= ((1-eps)/4) p(Opt)`` -- a factor-5 improvement over the
Panconesi-Sozio guarantee of ``20+eps``.
"""
from __future__ import annotations

from typing import Optional

from repro.algorithms.base import AlgorithmReport, line_layouts
from repro.core.dual import UnitRaise
from repro.core.framework import (
    geometric_thresholds,
    run_two_phase,
    unit_xi,
    validate_engine,
)
from repro.core.problem import Problem

#: Critical set size of the length-class decomposition (Section 7).
LINE_DELTA = 3


def solve_unit_lines(
    problem: Problem,
    epsilon: float = 0.1,
    mis: str = "luby",
    seed: int = 0,
    allow_heights: bool = False,
    xi: Optional[float] = None,
    engine: str = "reference",
) -> AlgorithmReport:
    """Run the Theorem 7.1 algorithm on a line-network problem."""
    validate_engine(engine)
    if not allow_heights and not problem.is_unit_height:
        raise ValueError(
            "unit-height algorithm requires unit heights "
            "(pass allow_heights=True to relax wide instances)"
        )
    layout = line_layouts(problem)
    delta = max(layout.critical_set_size, 1)
    if xi is None:
        xi = unit_xi(max(delta, LINE_DELTA))
    thresholds = geometric_thresholds(xi, epsilon)
    result = run_two_phase(
        problem.instances, layout, UnitRaise(), thresholds, mis=mis, seed=seed,
        engine=engine,
    )
    guarantee = (delta + 1) / result.slackness
    return AlgorithmReport(
        name="unit-lines",
        solution=result.solution,
        guarantee=guarantee,
        certified_upper_bound=result.certified_upper_bound,
        result=result,
    )
