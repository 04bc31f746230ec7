"""Appendix A: the sequential two-phase algorithm.

Per network, root the tree arbitrarily (the root-fixing decomposition)
and order demand instances by *descending* depth of their capture node
``mu(d)``.  Process networks one by one; in each iteration raise the
single earliest unsatisfied instance, taking as critical edges the
wing(s) of ``mu(d)`` on ``path(d)`` (``Delta = 2``).  Observation A.1
gives the interference property, and with slackness ``lambda = 1``
Lemma 3.1 yields a 3-approximation.

With a single tree-network, every demand has exactly one instance, so
the ``alpha`` variables are unnecessary; skipping them improves the
objective-increase factor from ``Delta + 1`` to ``Delta`` and the ratio
to 2 -- matching Lewin-Eytan et al. [13].

The round complexity is one iteration per raise (up to ``n``), which is
exactly the inefficiency the distributed algorithm of Section 5 removes.
"""
from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.algorithms.base import AlgorithmReport
from repro.core.demand import DemandInstance
from repro.core.dual import UnitRaise
from repro.core.framework import (
    InstanceLayout,
    TwoPhaseResult,
    run_first_phase,
    run_second_phase,
    validate_engine,
)
from repro.core.problem import Problem
from repro.core.types import InstanceId
from repro.trees.layered import wings
from repro.trees.root_fixing import build_root_fixing


class EarliestInSigmaOracle:
    """'MIS' oracle returning the single earliest instance in sigma.

    A module-level class (not a closure) so the oracle pickles, like
    the bundled oracles; ``rank`` maps instance id -> (network order,
    -capture depth, id).
    """

    def __init__(self, rank: Dict[InstanceId, Tuple[int, int, int]]) -> None:
        self.rank = rank

    def __call__(
        self, candidates: Sequence[DemandInstance], adjacency, context=None
    ) -> Tuple[Set[InstanceId], int]:
        return (
            {min((d.instance_id for d in candidates), key=self.rank.__getitem__)},
            0,
        )


def solve_sequential(
    problem: Problem,
    use_alpha: Optional[bool] = None,
    engine: str = "reference",
) -> AlgorithmReport:
    """Run the Appendix A sequential algorithm.

    ``use_alpha`` defaults to skipping alpha exactly when no demand has
    more than one instance (the single-tree refinement).
    """
    validate_engine(engine)
    if not problem.is_unit_height:
        raise ValueError("the Appendix A algorithm is for the unit-height case")
    instances = problem.instances
    if use_alpha is None:
        per_demand: Dict[int, int] = {}
        for d in instances:
            per_demand[d.demand_id] = per_demand.get(d.demand_id, 0) + 1
        use_alpha = any(count > 1 for count in per_demand.values())

    # Build root-fixing decompositions, capture depths and wing sets.
    group_of: Dict[InstanceId, int] = {}
    pi: Dict[InstanceId, Tuple] = {}
    rank: Dict[InstanceId, Tuple[int, int, int]] = {}
    network_order = {nid: i + 1 for i, nid in enumerate(sorted(problem.networks))}
    by_net = problem.instances_by_network
    for nid in sorted(problem.networks):
        mine = by_net.get(nid, ())
        if not mine:
            continue
        td = build_root_fixing(problem.networks[nid])
        for d in mine:
            mu = td.capture_node(d)
            group_of[d.instance_id] = network_order[nid]
            pi[d.instance_id] = wings(d, mu)
            # Deeper captures first within the network (descending depth).
            rank[d.instance_id] = (
                network_order[nid],
                -td.depth[mu],
                d.instance_id,
            )
    layout = InstanceLayout(
        group_of=group_of, pi=pi, n_epochs=len(network_order)
    )

    # One epoch per network, single stage with threshold 1 (lambda = 1).
    dual, stack, events, counters = run_first_phase(
        instances, layout, UnitRaise(use_alpha=use_alpha), [1.0],
        EarliestInSigmaOracle(rank),
        engine=engine,
    )
    solution = run_second_phase(stack, counters=counters)
    result = TwoPhaseResult(
        solution=solution,
        dual=dual,
        events=events,
        stack=stack,
        slackness=1.0,
        layout=layout,
        counters=counters,
        thresholds=[1.0],
    )
    delta = max((len(p) for p in pi.values()), default=0)
    guarantee = float(delta + (1 if use_alpha else 0))
    return AlgorithmReport(
        name="sequential" + ("" if use_alpha else "-single-tree"),
        solution=solution,
        guarantee=guarantee,
        certified_upper_bound=result.certified_upper_bound,
        result=result,
    )
