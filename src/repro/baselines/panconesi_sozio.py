"""Panconesi-Sozio baselines [15, 16] for line-networks.

Reproduced in the vocabulary of this paper's framework (see the Remark
after Theorem 5.3): the PS algorithm uses the same length-class layered
decomposition (``Delta = 3``) but each epoch consists of a *single*
stage with satisfaction threshold ``lambda_0 = 1/(5+eps)`` -- an
instance that is ``lambda_0``-satisfied is simply ignored for the rest
of the first phase.  The slackness is therefore ``lambda = 1/(5+eps)``
and Lemma 3.1 gives an approximation factor of ``(Delta+1)/lambda =
4 * (5+eps) = 20 + eps'`` for the unit-height case.

For arbitrary heights, PS combine a wide run (unit-height algorithm)
with a narrow run under the same single-stage threshold; Lemma 6.1 then
gives ``(2 Delta^2 + 1)/lambda`` for the narrow side.  Their published
constant is ``55 + eps`` via a sharper case analysis; we report the
per-run certified bound, which is what the head-to-head experiments
compare.
"""
from __future__ import annotations

from repro.algorithms.base import AlgorithmReport, line_layouts
from repro.core.dual import HeightRaise, UnitRaise
from repro.core.framework import run_two_phase, validate_engine
from repro.core.problem import Problem
from repro.core.solution import combine_per_network

PS_UNIT_GUARANTEE = 20.0
PS_ARBITRARY_GUARANTEE = 55.0


def solve_ps_unit_lines(
    problem: Problem,
    epsilon: float = 0.1,
    mis: str = "luby",
    seed: int = 0,
    allow_heights: bool = False,
    engine: str = "reference",
) -> AlgorithmReport:
    """The PS unit-height line algorithm (single stage, lambda=1/(5+eps))."""
    validate_engine(engine)
    if not allow_heights and not problem.is_unit_height:
        raise ValueError("PS unit-height baseline requires unit heights")
    layout = line_layouts(problem)
    lambda0 = 1.0 / (5.0 + epsilon)
    result = run_two_phase(
        problem.instances, layout, UnitRaise(), [lambda0], mis=mis, seed=seed,
        engine=engine,
    )
    delta = max(layout.critical_set_size, 1)
    return AlgorithmReport(
        name="panconesi-sozio-unit",
        solution=result.solution,
        guarantee=(delta + 1) / lambda0,
        certified_upper_bound=result.certified_upper_bound,
        result=result,
    )


def solve_ps_arbitrary_lines(
    problem: Problem,
    epsilon: float = 0.1,
    mis: str = "luby",
    seed: int = 0,
    engine: str = "reference",
) -> AlgorithmReport:
    """The PS arbitrary-height line algorithm (wide/narrow combination)."""
    validate_engine(engine)
    if not problem.has_wide:
        return _ps_narrow(problem, epsilon, mis, seed, engine)
    if not problem.has_narrow:
        return solve_ps_unit_lines(
            problem, epsilon=epsilon, mis=mis, seed=seed, allow_heights=True,
            engine=engine,
        )
    wide_problem, narrow_problem = problem.split_by_width()
    wide = solve_ps_unit_lines(
        wide_problem, epsilon=epsilon, mis=mis, seed=seed, allow_heights=True,
        engine=engine,
    )
    narrow = _ps_narrow(narrow_problem, epsilon, mis, seed, engine)
    combined = combine_per_network(
        wide.solution, narrow.solution, sorted(problem.networks)
    )
    return AlgorithmReport(
        name="panconesi-sozio-arbitrary",
        solution=combined,
        guarantee=wide.guarantee + narrow.guarantee,
        certified_upper_bound=wide.certified_upper_bound + narrow.certified_upper_bound,
        parts={"wide": wide, "narrow": narrow},
    )


def _ps_narrow(
    problem: Problem, epsilon: float, mis: str, seed: int,
    engine: str = "reference",
) -> AlgorithmReport:
    """PS narrow side: height raise rule, single-stage threshold."""
    layout = line_layouts(problem)
    lambda0 = 1.0 / (5.0 + epsilon)
    result = run_two_phase(
        problem.instances, layout, HeightRaise(), [lambda0], mis=mis, seed=seed,
        engine=engine,
    )
    delta = max(layout.critical_set_size, 1)
    return AlgorithmReport(
        name="panconesi-sozio-narrow",
        solution=result.solution,
        guarantee=(2 * delta * delta + 1) / lambda0,
        certified_upper_bound=result.certified_upper_bound,
        result=result,
    )
