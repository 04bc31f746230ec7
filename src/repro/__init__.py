"""repro: reproduction of *Distributed Algorithms for Scheduling on Line
and Tree Networks* (Chakaravarthy, Roy, Sabharwal; PODC 2012).

Quickstart::

    from repro import (
        Demand, Problem, TreeNetwork,
        solve_unit_trees, solve_exact,
    )

    net = TreeNetwork(0, [(0, 1), (1, 2), (1, 3)])
    demands = [Demand(0, 0, 2, profit=2.0), Demand(1, 2, 3, profit=1.0)]
    problem = Problem(networks={0: net}, demands=demands)
    report = solve_unit_trees(problem, epsilon=0.05)
    print(report.profit, "vs opt", solve_exact(problem).profit)

See README.md for the engines, the serving layer and the workload
registry, and ``benchmarks/`` for the paper-claim reproductions.
"""
from repro.algorithms import (
    AlgorithmReport,
    solve_arbitrary_lines,
    solve_arbitrary_trees,
    solve_auto,
    solve_narrow_lines,
    solve_narrow_trees,
    solve_sequential,
    solve_unit_lines,
    solve_unit_trees,
)
from repro.baselines import (
    solve_exact,
    solve_greedy,
    solve_ps_arbitrary_lines,
    solve_ps_unit_lines,
    solve_tree_dp,
)
from repro.core import (
    Demand,
    DemandInstance,
    Problem,
    Solution,
    WindowDemand,
)
from repro.core.lp import lp_upper_bound
from repro.trees import (
    TreeDecomposition,
    TreeNetwork,
    build_balancing,
    build_ideal,
    build_root_fixing,
    make_line_network,
)

__version__ = "1.0.0"

__all__ = [
    "AlgorithmReport",
    "Demand",
    "DemandInstance",
    "Problem",
    "Solution",
    "TreeDecomposition",
    "TreeNetwork",
    "WindowDemand",
    "build_balancing",
    "build_ideal",
    "build_root_fixing",
    "lp_upper_bound",
    "make_line_network",
    "solve_arbitrary_lines",
    "solve_arbitrary_trees",
    "solve_auto",
    "solve_exact",
    "solve_greedy",
    "solve_narrow_lines",
    "solve_narrow_trees",
    "solve_ps_arbitrary_lines",
    "solve_ps_unit_lines",
    "solve_sequential",
    "solve_tree_dp",
    "solve_unit_lines",
    "solve_unit_trees",
    "__version__",
]
