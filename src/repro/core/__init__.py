"""Core problem model, LP/dual machinery and the two-phase framework."""
from repro.core.demand import Demand, DemandInstance, WindowDemand
from repro.core.dual import DualState, HeightRaise, RaiseEvent, UnitRaise
from repro.core.framework import (
    ENGINES,
    InstanceLayout,
    PhaseCounters,
    TwoPhaseResult,
    geometric_thresholds,
    narrow_xi,
    run_first_phase,
    run_second_phase,
    run_two_phase,
    unit_xi,
    validate_engine,
)
from repro.core.plan import EpochPlan
from repro.core.problem import Problem, ProblemError
from repro.core.solution import (
    CapacityLedger,
    InfeasibleSolutionError,
    Solution,
    combine_per_network,
)
from repro.core.types import EPS, EdgeKey, edge_key

__all__ = [
    "CapacityLedger",
    "Demand",
    "DemandInstance",
    "DualState",
    "ENGINES",
    "EPS",
    "EdgeKey",
    "EpochPlan",
    "HeightRaise",
    "InfeasibleSolutionError",
    "InstanceLayout",
    "PhaseCounters",
    "Problem",
    "ProblemError",
    "RaiseEvent",
    "Solution",
    "TwoPhaseResult",
    "UnitRaise",
    "WindowDemand",
    "combine_per_network",
    "edge_key",
    "geometric_thresholds",
    "narrow_xi",
    "run_first_phase",
    "run_second_phase",
    "run_two_phase",
    "unit_xi",
    "validate_engine",
]
