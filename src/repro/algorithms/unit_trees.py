"""Theorem 5.3: distributed (7+eps)-approximation, unit heights, trees.

Per tree-network, build the ideal tree decomposition (Lemma 4.1) and its
layered decomposition (Lemma 4.3, ``Delta = 6``); then run the two-phase
framework with stage thresholds ``1 - xi^j`` where ``xi = 14/15``
(``= 2*7/(2*7+1)``), until every instance is ``(1-eps)``-satisfied.
Lemma 3.1 then certifies ``p(S) >= ((1-eps)/7) p(Opt)``.
"""
from __future__ import annotations

from typing import Optional

from repro.algorithms.base import AlgorithmReport, tree_layouts
from repro.core.dual import UnitRaise
from repro.core.framework import (
    geometric_thresholds,
    run_two_phase,
    unit_xi,
    validate_engine,
)
from repro.core.problem import Problem

#: Critical set size guaranteed by the ideal decomposition (Lemma 4.3).
TREE_DELTA = 6


def solve_unit_trees(
    problem: Problem,
    epsilon: float = 0.1,
    mis: str = "luby",
    seed: int = 0,
    decomposition: str = "ideal",
    allow_heights: bool = False,
    xi: Optional[float] = None,
    engine: str = "reference",
) -> AlgorithmReport:
    """Run the Theorem 5.3 algorithm on *problem*.

    Parameters
    ----------
    problem:
        The scheduling problem; demands must have unit height unless
        ``allow_heights`` is set (used by the wide-instance subroutine of
        Section 6, where edge-disjointness is the correct relaxation).
    epsilon:
        The paper's ``eps``; the slackness reached is ``>= 1 - eps``.
    mis:
        MIS oracle: ``'luby'`` (randomized, the paper's headline choice)
        or ``'greedy'`` (deterministic sweep).
    decomposition:
        ``'ideal'`` (paper), or ``'balancing'`` / ``'root_fixing'`` for
        the ablation of Section 4.2.
    xi:
        Override the stage ratio (defaults to ``2(Delta+1)/(2(Delta+1)+1)``
        for the realized ``Delta``, i.e. ``14/15`` when ``Delta = 6``).
    engine:
        First-phase engine: ``'reference'`` or ``'incremental'``.
    """
    validate_engine(engine)
    if not allow_heights and not problem.is_unit_height:
        raise ValueError(
            "unit-height algorithm requires unit heights "
            "(pass allow_heights=True to relax wide instances)"
        )
    layout, _ = tree_layouts(problem, decomposition)
    delta = max(layout.critical_set_size, 1)
    if xi is None:
        xi = unit_xi(max(delta, TREE_DELTA))
    thresholds = geometric_thresholds(xi, epsilon)
    result = run_two_phase(
        problem.instances, layout, UnitRaise(), thresholds, mis=mis, seed=seed,
        engine=engine,
    )
    guarantee = (delta + 1) / result.slackness
    return AlgorithmReport(
        name=f"unit-trees({decomposition})",
        solution=result.solution,
        guarantee=guarantee,
        certified_upper_bound=result.certified_upper_bound,
        result=result,
    )
