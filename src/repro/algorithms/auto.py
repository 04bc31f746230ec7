"""Family-dispatching solve entry point (the service-facing facade).

The paper's algorithms split by network family: line-networks get the
length-class machinery of Section 7 (``Delta = 3``), general trees the
layered tree decompositions of Sections 4-6 (``Delta = 6``).  Callers
that hold a concrete :class:`~repro.core.problem.Problem` -- the
scheduling service most of all -- should not have to re-derive that
choice, so :func:`solve_auto` inspects the problem and delegates to the
arbitrary-heights entry point of the right family (which in turn
subsumes the unit/narrow/wide special cases).

Dispatch rule: a problem is *line-shaped* when it contains a window
demand (windows only expand on path networks) or when every network is
a path graph -- the length-class decomposition is then valid and gives
the strictly better ``Delta``.  Everything else is tree-shaped.
"""
from __future__ import annotations

from typing import Optional

from repro.algorithms.arbitrary_lines import solve_arbitrary_lines
from repro.algorithms.arbitrary_trees import solve_arbitrary_trees
from repro.algorithms.base import AlgorithmReport
from repro.core.demand import WindowDemand
from repro.core.framework import validate_engine_knobs
from repro.core.problem import Problem

__all__ = ["problem_family", "solve_auto"]


def problem_family(problem: Problem) -> str:
    """``'line'`` or ``'tree'``: which algorithm family applies."""
    if any(isinstance(a, WindowDemand) for a in problem.demands):
        return "line"
    if all(net.is_path_graph() for net in problem.networks.values()):
        return "line"
    return "tree"


def solve_auto(
    problem: Problem,
    epsilon: float = 0.1,
    mis: str = "luby",
    seed: int = 0,
    decomposition: str = "ideal",
    engine: str = "reference",
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    plan_granularity: Optional[str] = None,
    phase2_engine: str = "reference",
) -> AlgorithmReport:
    """Solve *problem* with the algorithm family its networks demand.

    Accepts the union of the family entry points' knobs;
    ``decomposition`` applies to the tree family only (the line family
    always uses length classes) and is ignored for line-shaped
    problems.  ``workers`` and ``backend`` apply to ``engine="parallel"``
    only.  ``plan_granularity`` and ``phase2_engine`` are retired
    knobs, kept only so existing callers still run: strict epoch plans
    and the reference pop are the sole modes left, so they accept just
    ``None`` or ``"epoch"`` (the latter with ``engine="parallel"``) and
    ``"reference"``.
    """
    validate_engine_knobs(engine, workers, backend)
    if phase2_engine != "reference":
        raise ValueError(
            f"unknown phase2 engine {phase2_engine!r}; "
            "only 'reference' remains"
        )
    if plan_granularity is not None:
        if plan_granularity != "epoch":
            raise ValueError(
                f"unknown plan granularity {plan_granularity!r}; "
                "only 'epoch' remains"
            )
        if engine != "parallel":
            raise ValueError(
                "plan_granularity= applies only to engine='parallel', "
                f"not {engine!r}"
            )
    if problem_family(problem) == "line":
        return solve_arbitrary_lines(
            problem, epsilon=epsilon, mis=mis, seed=seed, engine=engine,
            workers=workers, backend=backend,
        )
    return solve_arbitrary_trees(
        problem, epsilon=epsilon, mis=mis, seed=seed,
        decomposition=decomposition, engine=engine, workers=workers,
        backend=backend,
    )
