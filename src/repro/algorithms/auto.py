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
from repro.core.framework import validate_engine
from repro.core.problem import Problem

__all__ = ["problem_family", "solve_auto", "validate_retired_knobs"]


def problem_family(problem: Problem) -> str:
    """``'line'`` or ``'tree'``: which algorithm family applies."""
    if any(isinstance(a, WindowDemand) for a in problem.demands):
        return "line"
    if all(net.is_path_graph() for net in problem.networks.values()):
        return "line"
    return "tree"


def validate_retired_knobs(
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    plan_granularity: Optional[str] = None,
    phase2_engine: str = "reference",
) -> None:
    """Reject any value of a retired knob but the one it still accepts.

    ``workers``, ``backend`` and ``plan_granularity`` configured epoch
    executors and planner modes that no longer exist, and
    ``phase2_engine`` picked among admission pops of which only the
    reference pop is left.  They survive only so existing callers that
    pass them still run: the first three accept only ``None``,
    ``phase2_engine`` only ``"reference"``.  The one check behind both
    :func:`solve_auto` and
    :meth:`~repro.service.fingerprint.SolveKnobs.validate`, so a
    retired value fails before any layout work or cache probe.
    """
    for name, value, only in (
        ("workers", workers, None),
        ("backend", backend, None),
        ("plan_granularity", plan_granularity, None),
        ("phase2_engine", phase2_engine, "reference"),
    ):
        if value != only:
            raise ValueError(
                f"{name}={value!r} is retired; only {only!r} is accepted"
            )


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
    problems.  ``workers``, ``backend``, ``plan_granularity`` and
    ``phase2_engine`` are retired knobs that accept only their one
    surviving value (:func:`validate_retired_knobs`).
    """
    validate_engine(engine)
    validate_retired_knobs(workers, backend, plan_granularity, phase2_engine)
    if problem_family(problem) == "line":
        return solve_arbitrary_lines(
            problem, epsilon=epsilon, mis=mis, seed=seed, engine=engine,
        )
    return solve_arbitrary_trees(
        problem, epsilon=epsilon, mis=mis, seed=seed,
        decomposition=decomposition, engine=engine,
    )
