"""Dual variables and raise rules for the primal-dual framework.

The dual program (Section 3.1, generalized with heights in Section 6.1)
has a variable ``alpha(a)`` per demand and ``beta(e)`` per edge, and per
demand instance ``d`` the constraint::

    alpha(a_d) + h(d) * sum_{e : d ~ e} beta(e)  >=  p(d)

(``h(d) = 1`` in the unit-height case).  :class:`DualState` stores the
assignment; the raise rules implement the two raising strategies:

* :class:`UnitRaise` (Section 3.2): ``delta = s / (|pi|+1)``; raise
  ``alpha`` and every critical ``beta(e)`` by ``delta``.
* :class:`HeightRaise` (Section 6.1): ``delta = s / (1 + 2 h |pi|^2)``;
  raise ``alpha`` by ``delta`` and every critical ``beta(e)`` by
  ``2 |pi| delta``.

Both rules leave the raised instance's constraint *tight*.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.demand import DemandInstance
from repro.core.types import EPS, DemandId, EdgeKey


@dataclass(frozen=True)
class RaiseEvent:
    """Record of one dual raise: who, by how much, on which critical edges.

    ``order`` is the global raise sequence number; ``step_tuple`` is the
    (epoch, stage, step) coordinate of the framework schedule.
    """

    order: int
    instance: DemandInstance
    delta: float
    critical_edges: Tuple[EdgeKey, ...]
    step_tuple: Tuple[int, int, int]


class DualState:
    """The dual assignment ``<alpha, beta>``."""

    def __init__(self, use_height_rule: bool = False) -> None:
        self.alpha: Dict[DemandId, float] = {}
        self.beta: Dict[EdgeKey, float] = {}
        self.use_height_rule = use_height_rule

    def lhs(self, d: DemandInstance) -> float:
        """LHS of the dual constraint of *d*."""
        beta_sum = 0.0
        for e in d.path_edges:
            beta_sum += self.beta.get(e, 0.0)
        coeff = d.height if self.use_height_rule else 1.0
        return self.alpha.get(d.demand_id, 0.0) + coeff * beta_sum

    def slack(self, d: DemandInstance) -> float:
        """``s = p(d) - LHS`` (positive while the constraint is unsatisfied)."""
        return d.profit - self.lhs(d)

    @staticmethod
    def lhs_satisfies(lhs: float, profit: float, tau: float) -> bool:
        """The ``tau``-satisfied predicate on a precomputed LHS value.

        Shared by :meth:`is_satisfied` and the incremental engine's
        due-stage bisection so the tolerance convention lives in exactly
        one place.
        """
        return lhs >= tau * profit - EPS

    def is_satisfied(self, d: DemandInstance, tau: float = 1.0) -> bool:
        """The paper's ``tau``-satisfied test: ``LHS >= tau * p(d)``."""
        return self.lhs_satisfies(self.lhs(d), d.profit, tau)

    def value(self) -> float:
        """Dual objective ``sum alpha + sum beta``."""
        return sum(self.alpha.values()) + sum(self.beta.values())

    def scaled_value(self, slackness: float) -> float:
        """``val(alpha, beta) / lambda``: an upper bound on ``p(Opt)``
        once every instance is ``lambda``-satisfied (weak duality)."""
        if not 0 < slackness <= 1:
            raise ValueError(f"slackness must lie in (0, 1], got {slackness}")
        return self.value() / slackness


class RaiseRule:
    """Strategy interface: how to raise duals so *d*'s constraint is tight."""

    #: Whether this rule uses the height-generalized dual constraint.
    use_height_rule = False
    #: Whether ``alpha`` is raised at all.  The single-tree sequential
    #: algorithm (Appendix A) skips alpha and improves its ratio to 2.
    use_alpha = True

    def delta(self, d: DemandInstance, slack: float, n_critical: int) -> float:
        raise NotImplementedError

    def beta_increment(self, delta: float, n_critical: int) -> float:
        raise NotImplementedError

    def apply(
        self,
        dual: DualState,
        d: DemandInstance,
        critical_edges: Sequence[EdgeKey],
    ) -> float:
        """Raise duals for *d*; returns the raise amount ``delta(d)``."""
        slack = dual.slack(d)
        if slack <= EPS:
            return 0.0
        n_crit = len(critical_edges)
        delta = self.delta(d, slack, n_crit)
        if self.use_alpha:
            dual.alpha[d.demand_id] = dual.alpha.get(d.demand_id, 0.0) + delta
        inc = self.beta_increment(delta, n_crit)
        for e in critical_edges:
            dual.beta[e] = dual.beta.get(e, 0.0) + inc
        return delta

    def objective_increase_factor(self, n_critical: int) -> float:
        """By how many multiples of ``delta`` one raise can grow the dual
        objective (the ``Delta + 1`` resp. ``2 Delta^2 + 1`` of the
        approximation lemmas)."""
        raise NotImplementedError


class UnitRaise(RaiseRule):
    """Raise rule of the unit-height framework (Section 3.2)."""

    use_height_rule = False

    def __init__(self, use_alpha: bool = True) -> None:
        self.use_alpha = use_alpha

    def delta(self, d: DemandInstance, slack: float, n_critical: int) -> float:
        denom = n_critical + 1 if self.use_alpha else n_critical
        if denom == 0:
            raise ValueError("cannot raise with no alpha and no critical edges")
        return slack / denom

    def beta_increment(self, delta: float, n_critical: int) -> float:
        return delta

    def objective_increase_factor(self, n_critical: int) -> float:
        return n_critical + (1 if self.use_alpha else 0)


class HeightRaise(RaiseRule):
    """Raise rule for narrow instances with heights (Section 6.1).

    ``delta = s / (1 + 2 h(d) |pi|^2)``; ``alpha`` grows by ``delta`` and
    each critical ``beta(e)`` by ``2 |pi| delta``, so the constraint
    ``alpha + h * sum beta`` gains ``delta (1 + 2 h |pi|^2) = s`` exactly.
    """

    use_height_rule = True
    use_alpha = True

    def delta(self, d: DemandInstance, slack: float, n_critical: int) -> float:
        return slack / (1.0 + 2.0 * d.height * n_critical * n_critical)

    def beta_increment(self, delta: float, n_critical: int) -> float:
        return 2.0 * n_critical * delta

    def objective_increase_factor(self, n_critical: int) -> float:
        # alpha gains delta; each of the n critical betas gains 2 n delta.
        return 1.0 + 2.0 * n_critical * n_critical
