"""Lemma 6.2: distributed algorithm for narrow instances on trees.

All demands must be narrow (``h <= 1/2``).  Uses the same layered
decompositions as the unit-height case (``Delta = 6``) but the
height-generalized dual and raise rule of Section 6.1, and the slower
stage ratio ``xi = c/(c + hmin)`` so the kill-chain argument still
doubles profits.  Lemma 6.1 certifies
``p(S) >= (lambda / (2 Delta^2 + 1)) p(Opt)``, i.e. ``(73+eps)`` for
``Delta = 6``.
"""
from __future__ import annotations

from typing import Optional

from repro.algorithms.base import AlgorithmReport, tree_layouts
from repro.algorithms.unit_trees import TREE_DELTA
from repro.core.dual import HeightRaise
from repro.core.framework import (
    geometric_thresholds,
    narrow_xi,
    run_two_phase,
    validate_engine,
)
from repro.core.problem import Problem


def solve_narrow_trees(
    problem: Problem,
    epsilon: float = 0.1,
    mis: str = "luby",
    seed: int = 0,
    decomposition: str = "ideal",
    hmin: Optional[float] = None,
    xi: Optional[float] = None,
    engine: str = "reference",
) -> AlgorithmReport:
    """Run the Lemma 6.2 narrow-instance algorithm on *problem*.

    ``hmin`` defaults to the smallest demand height; the paper assumes it
    is known to (or fixed a priori for) all processors.
    """
    validate_engine(engine)
    if not all(a.is_narrow for a in problem.demands):
        raise ValueError("narrow algorithm requires every height <= 1/2")
    if hmin is None:
        hmin = problem.hmin
    if hmin > problem.hmin:
        raise ValueError(f"hmin={hmin} exceeds an actual demand height")
    layout, _ = tree_layouts(problem, decomposition)
    delta = max(layout.critical_set_size, 1)
    if xi is None:
        xi = narrow_xi(max(delta, TREE_DELTA), hmin)
    thresholds = geometric_thresholds(xi, epsilon)
    result = run_two_phase(
        problem.instances, layout, HeightRaise(), thresholds, mis=mis, seed=seed,
        engine=engine,
    )
    guarantee = (2 * delta * delta + 1) / result.slackness
    return AlgorithmReport(
        name=f"narrow-trees({decomposition})",
        solution=result.solution,
        guarantee=guarantee,
        certified_upper_bound=result.certified_upper_bound,
        result=result,
    )
