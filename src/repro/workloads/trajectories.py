"""Churn trajectories: seeded mutation streams over registry workloads.

A *trajectory* is a deterministic sequence of problem snapshots: snapshot
0 is a registry workload (:mod:`repro.workloads.random_suite`), and each
later snapshot applies one small mutation to its predecessor -- the
change stream a scheduling service sees from a live cluster.  They are
the input of the delta-solve path (:mod:`repro.service.delta`): every
mutation here is *id-stable* (existing demand and network ids keep their
meaning), so consecutive snapshots diff into small touched sets, and
all but ``onboard`` keep the previous snapshot's network objects, whose
memos already hold every layout.

Mutation kinds
--------------

* ``add`` -- clone a random existing demand under a fresh (max+1) id
  with a jittered profit; access copied from the template.  Instances of
  old demands keep their instance ids (new ids append at the tail).
* ``drop-recent`` -- remove the most recently added demand (the tail of
  the demand list), again keeping all surviving instance ids stable.
  A mid-list drop would shift every later instance id; churn that
  *arrives* mid-list is what ``resize`` models instead.
* ``resize`` -- scale a random demand's profit (a tenant changing its
  bid).
* ``capacity-step`` -- scale a random demand's height (its share of
  edge capacity), clamped to its side of the wide/narrow boundary and
  never below the problem's global ``hmin``: crossing either line would
  change the stage-threshold schedule (``narrow_xi`` depends on
  ``hmin``) or the wide/narrow split, a change to the whole problem's
  shape rather than to one demand.  Falls back to ``resize`` when no
  demand can move.
* ``onboard`` -- a new tenant: one fresh network plus one or two
  demands that access only it.  Deliberately changes the network set
  (and with it the delta key): the new network has no layout to reuse,
  so the write lays it out cold (``ancestor-miss``); snapshots after
  the onboarding share it and run warm again.

Determinism and prefix stability: ``build_trajectory(name, size, seed)``
drives all draws from one ``random.Random`` seeded by
``(name, size, seed)``, consuming draws strictly in step order -- so the
first ``k`` snapshots are identical regardless of the requested length,
and "snapshot 3 of churn-lines@80#1" means the same problem everywhere
(tests, benches, wire clients).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.demand import WindowDemand
from repro.core.problem import Problem
from repro.trees.tree import TreeNetwork, make_line_network
from repro.workloads.demands import _random_endpoints
from repro.workloads.random_suite import REGISTRY, build_workload
from repro.workloads.trees import random_tree_edges

__all__ = [
    "MUTATION_KINDS",
    "TRAJECTORIES",
    "TrajectorySpec",
    "TrajectoryStep",
    "build_trajectory",
    "get_trajectory",
    "register_trajectory",
    "trajectory_names",
]

#: Legal mutation kinds; a typo in a spec must fail at registration.
MUTATION_KINDS = ("add", "drop-recent", "resize", "capacity-step", "onboard")


@dataclass(frozen=True)
class TrajectorySpec:
    """A named churn trajectory over a base registry workload.

    ``kinds``/``weights`` define the per-step mutation draw;
    ``capacity-step`` belongs only on bases with non-unit heights (on a
    unit workload every height is pinned at 1.0 and the mutation would
    silently degenerate).
    """

    name: str
    base: str
    kinds: Tuple[str, ...]
    weights: Tuple[float, ...]
    description: str


TRAJECTORIES: Dict[str, TrajectorySpec] = {}


def register_trajectory(spec: TrajectorySpec) -> TrajectorySpec:
    """Add *spec* to the registry (name unused, base + kinds valid)."""
    if spec.name in TRAJECTORIES:
        raise ValueError(f"trajectory {spec.name!r} is already registered")
    if spec.base not in REGISTRY:
        raise ValueError(
            f"trajectory base {spec.base!r} is not a registered workload"
        )
    for kind in spec.kinds:
        if kind not in MUTATION_KINDS:
            raise ValueError(
                f"unknown mutation kind {kind!r}; choose from {MUTATION_KINDS}"
            )
    if len(spec.weights) != len(spec.kinds):
        raise ValueError("weights must match kinds one-to-one")
    TRAJECTORIES[spec.name] = spec
    return spec


def get_trajectory(name: str) -> TrajectorySpec:
    """Look up a registered trajectory by name."""
    try:
        return TRAJECTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown trajectory {name!r}; choose from {sorted(TRAJECTORIES)}"
        )


def trajectory_names() -> Tuple[str, ...]:
    """All registered trajectory names, sorted."""
    return tuple(sorted(TRAJECTORIES))


@dataclass(frozen=True)
class TrajectoryStep:
    """One snapshot of a trajectory: the problem plus how it got here."""

    index: int
    kind: str
    detail: str
    problem: Problem


def build_trajectory(
    name: str, size: int, seed: int = 0, steps: int = 8
) -> Tuple[TrajectoryStep, ...]:
    """Build the named trajectory: ``steps`` snapshots, index 0 = base."""
    if steps < 1:
        raise ValueError(f"a trajectory needs at least one step, got {steps}")
    spec = get_trajectory(name)
    rng = random.Random(f"trajectory/{name}/{size}/{seed}")
    problem = build_workload(spec.base, size, seed=seed)
    out: List[TrajectoryStep] = [
        TrajectoryStep(0, "base", f"{spec.base}@{size}#{seed}", problem)
    ]
    for index in range(1, steps):
        kind = rng.choices(spec.kinds, weights=spec.weights)[0]
        problem, kind, detail = _MUTATIONS[kind](problem, rng)
        out.append(TrajectoryStep(index, kind, detail, problem))
    return tuple(out)


# ----------------------------------------------------------------------
# Mutations (each returns (new_problem, actual_kind, detail); fallback
# chains keep every draw productive, so no step is ever a no-op)
# ----------------------------------------------------------------------
def _copy_access(problem: Problem) -> Dict[int, Tuple[int, ...]]:
    return {i: tuple(nets) for i, nets in problem.access.items()}


def _next_demand_id(problem: Problem) -> int:
    return max(a.demand_id for a in problem.demands) + 1


def _mutate_add(
    problem: Problem, rng: random.Random
) -> Tuple[Problem, str, str]:
    template = rng.choice(problem.demands)
    new_id = _next_demand_id(problem)
    factor = rng.uniform(0.8, 1.25)
    clone = replace(template, demand_id=new_id, profit=template.profit * factor)
    access = _copy_access(problem)
    access[new_id] = tuple(problem.access[template.demand_id])
    return (
        Problem(
            networks=dict(problem.networks),
            demands=list(problem.demands) + [clone],
            access=access,
        ),
        "add",
        f"add demand {new_id} (clone of {template.demand_id}, "
        f"profit x{factor:.2f})",
    )


def _mutate_drop_recent(
    problem: Problem, rng: random.Random
) -> Tuple[Problem, str, str]:
    if len(problem.demands) < 2:
        return _mutate_add(problem, rng)
    victim = problem.demands[-1]
    demands = list(problem.demands[:-1])
    access = {a.demand_id: tuple(problem.access[a.demand_id]) for a in demands}
    return (
        Problem(networks=dict(problem.networks), demands=demands, access=access),
        "drop-recent",
        f"drop demand {victim.demand_id}",
    )


def _mutate_resize(
    problem: Problem, rng: random.Random
) -> Tuple[Problem, str, str]:
    idx = rng.randrange(len(problem.demands))
    target = problem.demands[idx]
    factor = rng.uniform(0.5, 1.6)
    demands = list(problem.demands)
    demands[idx] = replace(target, profit=target.profit * factor)
    return (
        Problem(
            networks=dict(problem.networks),
            demands=demands,
            access=_copy_access(problem),
        ),
        "resize",
        f"demand {target.demand_id} profit x{factor:.2f}",
    )


def _mutate_capacity_step(
    problem: Problem, rng: random.Random
) -> Tuple[Problem, str, str]:
    hmin = problem.hmin
    n_min = sum(1 for a in problem.demands if a.height == hmin)
    candidates = [
        i
        for i, a in enumerate(problem.demands)
        if a.height > hmin or n_min > 1
    ]
    if not candidates:
        return _mutate_resize(problem, rng)
    idx = rng.choice(candidates)
    target = problem.demands[idx]
    factor = rng.uniform(0.85, 1.3)
    new_height = target.height * factor
    if target.height <= 0.5:
        new_height = max(hmin, min(0.5, new_height))
    else:
        new_height = min(1.0, new_height)
        if new_height <= 0.5:
            new_height = target.height
    if new_height == target.height:
        return _mutate_resize(problem, rng)
    demands = list(problem.demands)
    demands[idx] = replace(target, height=new_height)
    return (
        Problem(
            networks=dict(problem.networks),
            demands=demands,
            access=_copy_access(problem),
        ),
        "capacity-step",
        f"demand {target.demand_id} height "
        f"{target.height:.3f} -> {new_height:.3f}",
    )


def _mutate_onboard(
    problem: Problem, rng: random.Random
) -> Tuple[Problem, str, str]:
    new_nid = max(problem.networks) + 1
    template = rng.choice(problem.demands)
    if isinstance(template, WindowDemand):
        # Match the slot count of a timeline the template already runs
        # on, so its window stays feasible on the new resource.
        home = problem.networks[min(problem.access[template.demand_id])]
        net = make_line_network(new_nid, home.n_vertices - 1)
    else:
        net = TreeNetwork(
            new_nid,
            random_tree_edges(rng.randint(6, 12), seed=rng.randrange(1 << 30)),
        )
    networks = dict(problem.networks)
    networks[new_nid] = net
    demands = list(problem.demands)
    access = _copy_access(problem)
    new_ids = []
    for _ in range(rng.randint(1, 2)):
        new_id = max(a.demand_id for a in demands) + 1
        factor = rng.uniform(0.8, 1.25)
        if isinstance(template, WindowDemand):
            clone = replace(
                template, demand_id=new_id, profit=template.profit * factor
            )
        else:
            u, v = _random_endpoints(rng, net, 3)
            clone = replace(
                template,
                demand_id=new_id,
                u=u,
                v=v,
                profit=template.profit * factor,
            )
        demands.append(clone)
        access[new_id] = (new_nid,)
        new_ids.append(new_id)
    return (
        Problem(networks=networks, demands=demands, access=access),
        "onboard",
        f"onboard network {new_nid} with demands {new_ids}",
    )


_MUTATIONS = {
    "add": _mutate_add,
    "drop-recent": _mutate_drop_recent,
    "resize": _mutate_resize,
    "capacity-step": _mutate_capacity_step,
    "onboard": _mutate_onboard,
}


# ----------------------------------------------------------------------
# The bundled trajectory families
# ----------------------------------------------------------------------
register_trajectory(
    TrajectorySpec(
        name="churn-lines",
        base="bursty-lines",
        kinds=("add", "resize", "drop-recent", "capacity-step"),
        weights=(0.35, 0.35, 0.15, 0.15),
        description=(
            "window-demand churn on burst timelines: arrivals, bid "
            "changes, cancellations, capacity steps"
        ),
    )
)
register_trajectory(
    TrajectorySpec(
        name="tenant-churn",
        base="multi-tenant-forest",
        kinds=("add", "resize", "drop-recent", "onboard"),
        weights=(0.35, 0.35, 0.2, 0.1),
        description=(
            "multi-tenant demand churn with occasional tenant "
            "onboarding (a new network, laid out cold)"
        ),
    )
)
register_trajectory(
    TrajectorySpec(
        name="capacity-steps",
        base="sparse-access-forest",
        kinds=("resize", "capacity-step"),
        weights=(0.5, 0.5),
        description=(
            "bimodal-height forest under profit and height resizing "
            "(the composite wide/narrow solve path)"
        ),
    )
)
