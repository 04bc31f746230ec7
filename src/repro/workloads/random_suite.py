"""Named, scale-parameterized random workloads (the heavy-traffic suite).

The registry maps workload names to :class:`WorkloadSpec` entries whose
``build(size, seed)`` callables produce deterministic problems whose
instance counts grow roughly linearly with ``size``.  Benchmarks
(``bench_e16_engine_scaling``) and tests (golden equivalence, engine
invariants) draw from this one registry, so "the workload named
``bursty-lines`` at size 80, seed 3" means the same instances
everywhere.

Bundled generators cover the regimes that stress the first-phase engine
differently:

* ``powerlaw-trees`` -- heavy-tailed profits on a uniform forest; the
  wide profit range maximizes steps per stage (the kill-chain of
  Lemma 5.1 runs ``~log(pmax/pmin)`` deep).
* ``deep-trees`` -- caterpillar-shaped trees with far-apart endpoints;
  long paths make every satisfaction check expensive and the conflict
  graph dense.
* ``bursty-lines`` -- window demands whose releases cluster around a few
  burst centers, with narrow heights: many overlapping placements in a
  small part of the timeline, plus the height raise rule's long
  ``xi = c/(c+hmin)`` stage schedules.
* ``wide-vod-lines`` -- video-on-demand style: wide (``h > 1/2``)
  requests with generous windows on long timelines, so each demand
  expands into many instances per resource.
* ``sparse-access-forest`` -- bimodal heights over several networks with
  single-network accessibility, the multi-network merge path.
* ``multi-tenant-forest`` -- many small disjoint tenant trees, each with
  its own demand mix and only a couple of local demands: the regime
  where first-phase epochs are most independent of each other (few
  shared edges/demands across groups), so the epoch-interaction graph
  of :mod:`repro.core.plan` is sparsest here.
* ``diurnal-cycle`` -- window demands whose arrival intensity follows a
  sinusoidal day/night cycle over the timeline: load swells and ebbs in
  smooth waves rather than bursts, the classic VoD traffic shape.  One
  of the service-traffic sources of bench E18, where re-submitted peak
  windows are exactly what a result cache amortizes.

The paper's fixed worked examples (Figures 1, 2, 6) are registered too,
with ``scale=False``; their builders ignore ``(size, seed)``.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.demand import Demand, WindowDemand
from repro.core.problem import Problem
from repro.trees.tree import TreeNetwork, make_line_network
from repro.workloads.demands import (
    _random_endpoints,
    _random_height,
    _random_profit,
    random_tree_problem,
)
from repro.workloads.lines import random_line_problem
from repro.workloads.scenarios import SCENARIOS
from repro.workloads.trees import random_forest, random_tree_edges


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload generator.

    ``kind`` is ``'tree'`` or ``'line'`` (which algorithm family
    applies); ``heights`` is ``'unit'``, ``'narrow'``, ``'wide'`` or
    ``'mixed'`` (which raise rules are legal); ``scale`` says whether
    ``build`` actually uses its ``(size, seed)`` arguments or returns a
    fixed instance.
    """

    name: str
    kind: str
    heights: str
    description: str
    build: Callable[[int, int], Problem]
    scale: bool = True


REGISTRY: Dict[str, WorkloadSpec] = {}

#: Legal ``WorkloadSpec.heights`` tags; consumers pick raise rules from
#: this tag, so a typo must fail at registration, not mis-run silently.
HEIGHT_TAGS = ("unit", "narrow", "wide", "mixed")


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """Add *spec* to the registry (name must be unused)."""
    if spec.name in REGISTRY:
        raise ValueError(f"workload {spec.name!r} is already registered")
    if spec.kind not in ("tree", "line"):
        raise ValueError(f"workload kind must be 'tree' or 'line', got {spec.kind!r}")
    if spec.heights not in HEIGHT_TAGS:
        raise ValueError(
            f"workload heights must be one of {HEIGHT_TAGS}, got {spec.heights!r}"
        )
    REGISTRY[spec.name] = spec
    return spec


def get_workload(name: str) -> WorkloadSpec:
    """Look up a registered workload by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(REGISTRY)}"
        )


def build_workload(name: str, size: int, seed: int = 0) -> Problem:
    """Build the named workload at the given scale and seed."""
    if size < 1:
        raise ValueError(f"workload size must be positive, got {size}")
    return get_workload(name).build(size, seed)


def workload_names(
    kind: Optional[str] = None, scale: Optional[bool] = None
) -> Tuple[str, ...]:
    """Registered names, optionally filtered by kind and scalability."""
    return tuple(
        sorted(
            name
            for name, spec in REGISTRY.items()
            if (kind is None or spec.kind == kind)
            and (scale is None or spec.scale == scale)
        )
    )


# ----------------------------------------------------------------------
# Scale generators
# ----------------------------------------------------------------------
#: Per-tenant demand mixes of the multi-tenant forest: a (profit
#: profile, pmax/pmin) pair is assigned to each tenant in rotation.
TENANT_MIXES = (
    ("uniform", 10.0),
    ("powerlaw", 100.0),
    ("two-point", 20.0),
)


def multi_tenant_forest_problem(
    n_tenants: int,
    m: int,
    seed: int = 0,
    tenant_size_range: Tuple[int, int] = (8, 20),
    locality: int = 3,
    shapes: Tuple[str, ...] = ("uniform", "caterpillar", "binary"),
) -> Problem:
    """Many small disjoint tenant trees with local, single-tenant demands.

    Each of the ``n_tenants`` tree-networks gets its own size, shape and
    demand mix (:data:`TENANT_MIXES`, in rotation); the ``m`` demands are
    spread round-robin over the tenants, each accessible on its own
    tenant's network only, with endpoints at most ``locality`` edges
    apart.  Because every demand has exactly one instance and two short
    paths in a small tree rarely overlap, different epochs of the merged
    layered decomposition share few edges and demands -- the workload
    family where the epoch-graph planner finds the widest independence
    classes.
    """
    if n_tenants < 1:
        raise ValueError("at least one tenant is required")
    if m < n_tenants:
        raise ValueError(
            f"need at least one demand per tenant, got m={m} for {n_tenants} tenants"
        )
    lo, hi = tenant_size_range
    if not 2 <= lo <= hi:
        raise ValueError(f"tenant sizes must satisfy 2 <= lo <= hi, got {tenant_size_range}")
    rng = random.Random(seed)
    networks: Dict[int, TreeNetwork] = {}
    for t in range(n_tenants):
        size = rng.randint(lo, hi)
        shape = shapes[t % len(shapes)]
        networks[t] = TreeNetwork(t, random_tree_edges(size, seed=seed + 31 * t, shape=shape))
    demands: List[Demand] = []
    access: Dict[int, Tuple[int, ...]] = {}
    for demand_id in range(m):
        tenant = demand_id % n_tenants
        profile, pmax = TENANT_MIXES[tenant % len(TENANT_MIXES)]
        u, v = _random_endpoints(rng, networks[tenant], locality)
        demands.append(
            Demand(
                demand_id=demand_id,
                u=u,
                v=v,
                profit=_random_profit(rng, profile, pmax),
                height=1.0,
            )
        )
        access[demand_id] = (tenant,)
    return Problem(networks=networks, demands=demands, access=access)


def _windowed_line_problem(
    rng: random.Random,
    n_slots: int,
    m: int,
    r: int,
    draw_release: Callable[[random.Random], int],
    window_slack: int,
    height_profile: str,
    hmin: float,
    profit_profile: str,
    pmax_over_pmin: float,
) -> Problem:
    """Shared scaffolding of the arrival-pattern line generators.

    Builds ``r`` line resources and ``m`` window demands whose release
    slots come from *draw_release* (the only thing the bursty and
    diurnal generators differ in); processing times, window slack,
    profits and heights are drawn here so the feasibility clamps --
    ``rho`` fits the remaining timeline, deadlines stay on it -- live
    in exactly one place.
    """
    networks: Dict[int, TreeNetwork] = {
        q: make_line_network(q, n_slots) for q in range(r)
    }
    demands: List[WindowDemand] = []
    for demand_id in range(m):
        release = draw_release(rng)
        rho = rng.randint(1, max(1, n_slots // 6))
        rho = min(rho, n_slots - release)
        deadline = min(n_slots - 1, release + rho + rng.randint(0, window_slack) - 1)
        demands.append(
            WindowDemand(
                demand_id=demand_id,
                release=release,
                deadline=deadline,
                processing=rho,
                profit=_random_profit(rng, profit_profile, pmax_over_pmin),
                height=_random_height(rng, height_profile, hmin),
            )
        )
    return Problem(networks=networks, demands=demands)


def bursty_line_problem(
    n_slots: int,
    m: int,
    r: int = 1,
    seed: int = 0,
    n_bursts: int = 3,
    burst_spread: int = 3,
    height_profile: str = "narrow",
    hmin: float = 0.2,
    profit_profile: str = "powerlaw",
    pmax_over_pmin: float = 50.0,
) -> Problem:
    """Window demands whose releases cluster around burst centers.

    Unlike :func:`repro.workloads.lines.random_line_problem` (uniform
    releases), jobs arrive in ``n_bursts`` waves: each release is a
    burst center plus noise of at most ``burst_spread`` slots, so load
    concentrates and conflict components grow large -- the adversarial
    regime for the first phase.
    """
    if n_slots < 4:
        raise ValueError("a bursty timeline needs at least 4 slots")
    rng = random.Random(seed)
    centers = [rng.randint(0, max(0, n_slots - 2)) for _ in range(max(1, n_bursts))]

    def draw_release(rng: random.Random) -> int:
        center = rng.choice(centers)
        return min(
            max(0, center + rng.randint(-burst_spread, burst_spread)), n_slots - 2
        )

    return _windowed_line_problem(
        rng, n_slots, m, r, draw_release, window_slack=burst_spread,
        height_profile=height_profile, hmin=hmin,
        profit_profile=profit_profile, pmax_over_pmin=pmax_over_pmin,
    )


def diurnal_line_problem(
    n_slots: int,
    m: int,
    r: int = 1,
    seed: int = 0,
    n_cycles: int = 2,
    amplitude: float = 0.9,
    window_slack: int = 3,
    height_profile: str = "narrow",
    hmin: float = 0.2,
    profit_profile: str = "uniform",
    pmax_over_pmin: float = 10.0,
) -> Problem:
    """Window demands under a sinusoidal (diurnal) arrival intensity.

    Release slots are drawn with probability proportional to
    ``1 + amplitude * sin(2 pi * n_cycles * t / n_slots)``: ``n_cycles``
    day/night waves over the timeline, with ``amplitude`` controlling
    how empty the troughs get (``0`` degenerates to a uniform draw,
    ``1`` leaves the troughs almost silent).  Unlike ``bursty-lines``
    (point masses plus noise), load here varies *smoothly*, so conflict
    density tracks the wave -- and repeated peak-hour submissions make
    it a natural traffic source for the service-layer benchmarks.
    """
    if n_slots < 8:
        raise ValueError("a diurnal timeline needs at least 8 slots")
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError(f"amplitude must lie in [0, 1], got {amplitude}")
    if n_cycles < 1:
        raise ValueError(f"at least one cycle is required, got {n_cycles}")
    rng = random.Random(seed)
    slots = range(n_slots - 1)
    intensity = [
        1.0 + amplitude * math.sin(2.0 * math.pi * n_cycles * t / n_slots)
        for t in slots
    ]

    def draw_release(rng: random.Random) -> int:
        return rng.choices(slots, weights=intensity)[0]

    return _windowed_line_problem(
        rng, n_slots, m, r, draw_release, window_slack=window_slack,
        height_profile=height_profile, hmin=hmin,
        profit_profile=profit_profile, pmax_over_pmin=pmax_over_pmin,
    )


def _powerlaw_trees(size: int, seed: int) -> Problem:
    return random_tree_problem(
        random_forest(max(16, size // 2), 2, seed=seed),
        m=size,
        seed=seed + 1,
        profit_profile="powerlaw",
        pmax_over_pmin=100.0,
    )


def _deep_trees(size: int, seed: int) -> Problem:
    return random_tree_problem(
        random_forest(max(16, size), 2, seed=seed, shape="caterpillar"),
        m=size,
        seed=seed + 1,
        profit_profile="powerlaw",
        pmax_over_pmin=100.0,
    )


def _bursty_lines(size: int, seed: int) -> Problem:
    return bursty_line_problem(
        n_slots=max(12, size // 2),
        m=size,
        r=2,
        seed=seed,
        n_bursts=max(2, size // 40),
    )


def _wide_vod_lines(size: int, seed: int) -> Problem:
    return random_line_problem(
        n_slots=max(20, size),
        m=size,
        r=2,
        seed=seed,
        window_slack=8,
        profit_profile="powerlaw",
        pmax_over_pmin=50.0,
        height_profile="wide",
    )


def _multi_tenant_forest(size: int, seed: int) -> Problem:
    # Mostly single-demand tenants with tight locality: per-tenant
    # coupling between epochs stays rare even at large tenant counts, so
    # the planner's epoch-independence width survives scaling.
    return multi_tenant_forest_problem(
        n_tenants=max(4, (3 * size) // 4),
        m=size,
        seed=seed,
        tenant_size_range=(10, 24),
        locality=2,
    )


def _diurnal_cycle(size: int, seed: int) -> Problem:
    return diurnal_line_problem(
        n_slots=max(16, size // 2),
        m=size,
        r=2,
        seed=seed,
        n_cycles=max(2, size // 50),
    )


def _sparse_access_forest(size: int, seed: int) -> Problem:
    return random_tree_problem(
        random_forest(max(12, size // 3), 3, seed=seed),
        m=size,
        seed=seed + 1,
        profit_profile="two-point",
        pmax_over_pmin=20.0,
        height_profile="bimodal",
        hmin=0.15,
        access_size=1,
    )


register_workload(
    WorkloadSpec(
        name="powerlaw-trees",
        kind="tree",
        heights="unit",
        description="uniform forest, heavy-tailed profits (pmax/pmin = 100)",
        build=_powerlaw_trees,
    )
)
register_workload(
    WorkloadSpec(
        name="deep-trees",
        kind="tree",
        heights="unit",
        description="caterpillar trees, long paths, heavy-tailed profits",
        build=_deep_trees,
    )
)
register_workload(
    WorkloadSpec(
        name="bursty-lines",
        kind="line",
        heights="narrow",
        description="clustered release bursts, narrow heights, 2 resources",
        build=_bursty_lines,
    )
)
register_workload(
    WorkloadSpec(
        name="wide-vod-lines",
        kind="line",
        heights="wide",
        description="video-on-demand style wide requests, generous windows",
        build=_wide_vod_lines,
    )
)
register_workload(
    WorkloadSpec(
        name="diurnal-cycle",
        kind="line",
        heights="narrow",
        description="sinusoidal arrival intensity (day/night waves), 2 resources",
        build=_diurnal_cycle,
    )
)
register_workload(
    WorkloadSpec(
        name="multi-tenant-forest",
        kind="tree",
        heights="unit",
        description="many small disjoint tenant trees, local per-tenant demand mixes",
        build=_multi_tenant_forest,
    )
)
register_workload(
    WorkloadSpec(
        name="sparse-access-forest",
        kind="tree",
        heights="mixed",
        description="3 networks, single-network access, bimodal heights",
        build=_sparse_access_forest,
    )
)

# The paper's fixed worked examples, under the same registry roof.
_SCENARIO_TRAITS = {
    "figure1": ("line", "mixed"),
    "figure2": ("tree", "mixed"),
    "figure2-unit": ("tree", "unit"),
    "figure6": ("tree", "unit"),
}
for _name, (_kind, _heights) in _SCENARIO_TRAITS.items():
    _builder = SCENARIOS[_name]
    register_workload(
        WorkloadSpec(
            name=_name,
            kind=_kind,
            heights=_heights,
            description=f"fixed worked example ({_name})",
            build=lambda size, seed, _b=_builder: _b(),
            scale=False,
        )
    )
