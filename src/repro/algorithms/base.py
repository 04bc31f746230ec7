"""Shared plumbing for the paper's algorithms.

Each algorithm is a thin configuration of the two-phase framework:
a layout (which layered decomposition), a threshold schedule, and a
raise rule.  :class:`AlgorithmReport` is the uniform result object the
examples, tests and benchmarks consume.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.framework import InstanceLayout, TwoPhaseResult
from repro.core.problem import Problem
from repro.core.solution import Solution
from repro.core.types import EdgeKey
from repro.lines.layered import critical_slots, length_class
from repro.trees.balancing import build_balancing
from repro.trees.decomposition import TreeDecomposition
from repro.trees.ideal import build_ideal
from repro.trees.layered import path_layering
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

    A tree decomposition depends on its network alone (Lemma 4.1), and
    an instance's group and critical edges on that decomposition and
    the instance's vertex path alone (Lemma 4.2): both are memoized on
    the network (:class:`~repro.trees.tree.NetworkMemo`), so a layout
    is assembled from lookups and only new networks or new paths do
    any work.  A path with a non-``int`` endpoint is computed fresh,
    like the path itself.
    """
    try:
        builder = DECOMPOSITION_BUILDERS[decomposition]
    except KeyError:
        raise ValueError(
            f"unknown decomposition {decomposition!r}; "
            f"choose from {sorted(DECOMPOSITION_BUILDERS)}"
        )
    decomps: Dict[int, TreeDecomposition] = {}
    group_of: Dict[int, int] = {}
    pi: Dict[int, Tuple[EdgeKey, ...]] = {}
    n_epochs = 0
    by_net = problem.instances_by_network
    for nid in sorted(problem.networks):
        instances = by_net.get(nid, ())
        if not instances:
            continue
        net = problem.networks[nid]
        trees = net.memo.trees
        entry = trees.get(decomposition)
        if entry is None:
            entry = trees.setdefault(decomposition, (builder(net), {}))
        td, by_path = entry
        for d in instances:
            path = d.path_vertex_seq
            exact = type(d.u) is int and type(d.v) is int
            layering = by_path.get(path) if exact else None
            if layering is None:
                layering = path_layering(td, path)
                if exact:
                    by_path[path] = layering
            group_of[d.instance_id], pi[d.instance_id] = layering
        decomps[nid] = td
        n_epochs = max(n_epochs, td.max_depth)
    return InstanceLayout(group_of=group_of, pi=pi, n_epochs=n_epochs), decomps


def line_layouts(problem: Problem) -> InstanceLayout:
    """Length-class layered decompositions for every line-network
    (Section 7, ``Delta = 3``).

    An instance's critical slots depend on its endpoints alone and are
    memoized on the network like :func:`tree_layouts`' layerings; its
    group depends on the shortest instance of its network, so groups
    are recomputed per call.
    """
    group_of: Dict[int, int] = {}
    pi: Dict[int, Tuple[EdgeKey, ...]] = {}
    n_epochs = 0
    by_net = problem.instances_by_network
    for nid in sorted(problem.networks):
        net = problem.networks[nid]
        if not net.is_path_graph():
            raise ValueError(f"network {nid} is not a line-network")
        instances = by_net.get(nid, ())
        if not instances:
            continue
        slots = net.memo.line_slots
        l_min = min(d.length for d in instances)
        for d in instances:
            k = length_class(d.length, l_min)
            exact = type(d.u) is int and type(d.v) is int
            critical = slots.get((d.u, d.v)) if exact else None
            if critical is None:
                critical = critical_slots(nid, d)
                if exact:
                    slots[(d.u, d.v)] = critical
            group_of[d.instance_id] = k
            pi[d.instance_id] = critical
            n_epochs = max(n_epochs, k)
    return InstanceLayout(group_of=group_of, pi=pi, n_epochs=n_epochs)
