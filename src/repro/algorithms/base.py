"""Shared plumbing for the paper's algorithms.

Each algorithm is a thin configuration of the two-phase framework:
a layout (which layered decomposition), a threshold schedule, and a
raise rule.  :class:`AlgorithmReport` is the uniform result object the
examples, tests and benchmarks consume.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.framework import InstanceLayout, TwoPhaseResult
from repro.core.engines.journal import active_journal
from repro.core.problem import Problem
from repro.core.solution import Solution
from repro.lines.layered import layered_by_length
from repro.trees.balancing import build_balancing
from repro.trees.decomposition import TreeDecomposition
from repro.trees.ideal import build_ideal
from repro.trees.layered import LayeredDecomposition, layered_from_tree_decomposition
from repro.trees.root_fixing import build_root_fixing
from repro.trees.tree import TreeNetwork

#: Named tree-decomposition builders (Section 4).
DECOMPOSITION_BUILDERS: Dict[str, Callable[[TreeNetwork], TreeDecomposition]] = {
    "ideal": build_ideal,
    "balancing": build_balancing,
    "root_fixing": build_root_fixing,
}


@dataclass
class AlgorithmReport:
    """Uniform result of one algorithm run.

    ``guarantee`` is the *provable* per-run approximation factor implied
    by Lemma 3.1 / Lemma 6.1 for the realized ``Delta`` and ``lambda``
    (e.g. ``7/(1-eps)`` for Theorem 5.3); ``certified_upper_bound`` is
    the weak-duality bound ``val(alpha, beta)/lambda >= p(Opt)`` computed
    from the run's own duals.
    """

    name: str
    solution: Solution
    guarantee: float
    certified_upper_bound: float
    result: Optional[TwoPhaseResult] = None
    parts: Dict[str, "AlgorithmReport"] = field(default_factory=dict)

    @property
    def profit(self) -> float:
        """``p(S)``."""
        return self.solution.profit

    @property
    def certified_ratio(self) -> float:
        """Certified upper bound divided by achieved profit."""
        if self.profit <= 0:
            return float("inf")
        return self.certified_upper_bound / self.profit

    @property
    def communication_rounds(self) -> int:
        """Simulated synchronous rounds (summed over parts if composite)."""
        if self.result is not None:
            return self.result.counters.communication_rounds
        return sum(p.communication_rounds for p in self.parts.values())


def tree_layouts(
    problem: Problem, decomposition: str = "ideal"
) -> Tuple[InstanceLayout, Dict[int, TreeDecomposition]]:
    """Build per-network tree decompositions and merge their layered
    decompositions into one :class:`InstanceLayout` (Lemma 4.3).

    When a first-phase journal is active (the delta-solve path), the
    per-network work is served from the journal's layout cache where
    the inputs match: a tree decomposition is a pure function of the
    network, and a layered decomposition of (decomposition, instance
    expansion), so the cache keys embed exactly that content and a
    reused object is value-identical to a rebuild.  This -- not the
    epoch replay -- is the bulk of a warm start's latency win: churn
    mutates demands far more often than networks.
    """
    try:
        builder = DECOMPOSITION_BUILDERS[decomposition]
    except KeyError:
        raise ValueError(
            f"unknown decomposition {decomposition!r}; "
            f"choose from {sorted(DECOMPOSITION_BUILDERS)}"
        )
    journal = active_journal()
    decomps: Dict[int, TreeDecomposition] = {}
    layered: List[LayeredDecomposition] = []
    by_net = problem.instances_by_network
    for nid in sorted(problem.networks):
        instances = by_net.get(nid, ())
        if not instances:
            continue
        net = problem.networks[nid]
        td = ld = None
        if journal is not None:
            dkey = (nid, decomposition, net.vertices, tuple(sorted(net.edges())))
            lkey = dkey + (instances,)
            td = journal.lookup_decomp(dkey)
            ld = journal.lookup_layered(lkey)
        if ld is not None:
            journal.layouts_reused += 1
        if td is None:
            td = builder(net)
        if ld is None:
            ld = layered_from_tree_decomposition(td, instances)
        if journal is not None:
            journal.record_layouts(dkey, td, lkey, ld)
        decomps[nid] = td
        layered.append(ld)
    return InstanceLayout.from_layered(layered), decomps


def line_layouts(problem: Problem) -> InstanceLayout:
    """Length-class layered decompositions for every line-network
    (Section 7, ``Delta = 3``).

    Like :func:`tree_layouts`, an active first-phase journal (the
    delta-solve path) serves the per-network work from its
    content-keyed layout cache: ``layered_by_length`` is a pure
    function of (network id, instance expansion), which is exactly
    what the key embeds, so a reused object is value-identical to a
    rebuild.
    """
    journal = active_journal()
    layered: List[LayeredDecomposition] = []
    by_net = problem.instances_by_network
    for nid in sorted(problem.networks):
        if not problem.networks[nid].is_path_graph():
            raise ValueError(f"network {nid} is not a line-network")
        instances = by_net.get(nid, ())
        if not instances:
            continue
        ld = lkey = None
        if journal is not None:
            lkey = (nid, "length", instances)
            ld = journal.lookup_layered(lkey)
        if ld is not None:
            journal.layouts_reused += 1
        else:
            ld = layered_by_length(nid, instances)
        if journal is not None:
            journal.record_layered(lkey, ld)
        layered.append(ld)
    return InstanceLayout.from_layered(layered)
