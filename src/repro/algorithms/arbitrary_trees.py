"""Theorem 6.3: distributed (80+eps)-approximation, arbitrary heights, trees.

Split the demands into wide (``h > 1/2``) and narrow (``h <= 1/2``):

* wide instances can never overlap pairwise in a feasible solution, so
  the unit-height algorithm of Theorem 5.3 applies verbatim and yields a
  ``(7+eps)`` guarantee against the wide-only optimum;
* narrow instances run the Lemma 6.2 algorithm, ``(73+eps)``.

The two solutions are merged network-by-network, keeping whichever side
earns more on each tree (Section 6, "Overall Algorithm").  Since
``p(Opt) <= p(Opt_wide) + p(Opt_narrow)`` and the merged solution earns
``max(p(S1), p(S2))``, the combined guarantee is the *sum* of the two
factors: ``80 + eps``.
"""
from __future__ import annotations

from repro.algorithms.base import AlgorithmReport
from repro.algorithms.narrow_trees import solve_narrow_trees
from repro.algorithms.unit_trees import solve_unit_trees
from repro.core.framework import validate_engine
from repro.core.problem import Problem
from repro.core.solution import combine_per_network


def solve_arbitrary_trees(
    problem: Problem,
    epsilon: float = 0.1,
    mis: str = "luby",
    seed: int = 0,
    decomposition: str = "ideal",
    engine: str = "reference",
) -> AlgorithmReport:
    """Run the Theorem 6.3 algorithm on *problem* (any heights)."""
    validate_engine(engine)
    if not problem.has_wide:
        return solve_narrow_trees(
            problem, epsilon=epsilon, mis=mis, seed=seed,
            decomposition=decomposition, engine=engine,
        )
    if not problem.has_narrow:
        return solve_unit_trees(
            problem,
            epsilon=epsilon,
            mis=mis,
            seed=seed,
            decomposition=decomposition,
            allow_heights=True,
            engine=engine,
        )
    wide_problem, narrow_problem = problem.split_by_width()
    wide = solve_unit_trees(
        wide_problem,
        epsilon=epsilon,
        mis=mis,
        seed=seed,
        decomposition=decomposition,
        allow_heights=True,
        engine=engine,
    )
    narrow = solve_narrow_trees(
        narrow_problem, epsilon=epsilon, mis=mis, seed=seed,
        decomposition=decomposition, engine=engine,
    )
    combined = combine_per_network(
        wide.solution, narrow.solution, sorted(problem.networks)
    )
    return AlgorithmReport(
        name="arbitrary-trees",
        solution=combined,
        guarantee=wide.guarantee + narrow.guarantee,
        certified_upper_bound=wide.certified_upper_bound + narrow.certified_upper_bound,
        parts={"wide": wide, "narrow": narrow},
    )
