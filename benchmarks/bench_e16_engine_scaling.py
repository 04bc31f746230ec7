"""E16 -- reference vs incremental first-phase engine at scale.

Claim reproduced: the incremental dirty-set engine
(``engine='incremental'`` of :func:`repro.core.framework.run_two_phase`)
is *equivalent* to the reference Figure 7 loop -- identical solutions,
raise logs and schedules -- while doing asymptotically less work: the
reference engine re-evaluates every group member's dual constraint on
every step (``O(steps x group)`` LHS evaluations per stage, plus a full
``restrict()`` rebuild per step), the incremental engine pays one
evaluation per member per epoch plus dirty-set rechecks, and enters
only the stages some member fails instead of every stage.  The gap
widens with workload size and with schedule length (the narrow-height
``xi = c/(c+hmin)`` schedules run hundreds of stages), yielding
strictly fewer satisfaction checks everywhere, strictly fewer entered
stages on bursty-lines (both deterministic, asserted in ``--quick``
too) and >= 2x wall-clock at the largest size.

Workloads come from the named registry in
:mod:`repro.workloads.random_suite`.  ``--quick`` runs a two-point
smoke version for CI.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from common import emit_json, parse_bench_args, table

from repro.algorithms.base import line_layouts, tree_layouts
from repro.core.dual import HeightRaise, UnitRaise
from repro.core.framework import (
    geometric_thresholds,
    narrow_xi,
    run_two_phase,
    unit_xi,
)
from repro.workloads import build_workload, get_workload

#: (workload name, sizes, epsilon); the narrow-height line workload has
#: the long stage schedules where the reference engine's rescans hurt
#: most, the tree workload is the paper's headline setting.
FULL_PLAN = (
    ("powerlaw-trees", (50, 100, 200, 400), 0.2),
    ("bursty-lines", (50, 100, 200, 400), 0.3),
)
QUICK_PLAN = (
    ("powerlaw-trees", (20, 40), 0.2),
    ("bursty-lines", (20, 40), 0.3),
)
#: Wall-clock factor the incremental engine must reach at the largest
#: size of the long-schedule workload (full mode only; quick mode is a
#: smoke test on toy sizes where constant factors dominate).
MIN_SPEEDUP = 2.0


def _setup(name: str, size: int, seed: int):
    """Build (instances, layout, raise rule, thresholds) for a workload."""
    spec = get_workload(name)
    problem = build_workload(name, size, seed=seed)
    if spec.kind == "tree":
        layout, _ = tree_layouts(problem, "ideal")
        delta = max(layout.critical_set_size, 6)
        rule, xi_of = UnitRaise(), lambda eps: unit_xi(delta)
    else:
        layout = line_layouts(problem)
        delta = max(layout.critical_set_size, 3)
        if spec.heights == "narrow":
            rule = HeightRaise()
            xi_of = lambda eps: narrow_xi(delta, problem.hmin)
        else:
            rule, xi_of = UnitRaise(), lambda eps: unit_xi(delta)
    return problem, layout, rule, xi_of


def _run_pair(problem, layout, rule, thresholds, seed):
    """Time both engines on one workload; assert equivalence."""
    results = {}
    for engine in ("reference", "incremental"):
        t0 = time.perf_counter()
        res = run_two_phase(
            problem.instances, layout, rule, thresholds,
            mis="greedy", seed=seed, engine=engine,
        )
        results[engine] = (time.perf_counter() - t0, res)
    ref_t, ref = results["reference"]
    inc_t, inc = results["incremental"]
    assert [d.instance_id for d in ref.solution.selected] == [
        d.instance_id for d in inc.solution.selected
    ], "engines disagreed on the solution"
    assert [(e.order, e.instance.instance_id, e.delta) for e in ref.events] == [
        (e.order, e.instance.instance_id, e.delta) for e in inc.events
    ], "engines disagreed on the raise log"
    assert ref.counters.steps == inc.counters.steps
    return ref_t, inc_t, ref.counters, inc.counters


def run_experiment(quick: bool = False):
    plan = QUICK_PLAN if quick else FULL_PLAN
    rows = []
    speedup_at_largest = {}
    for name, sizes, epsilon in plan:
        for size in sizes:
            problem, layout, rule, xi_of = _setup(name, size, seed=size)
            thresholds = geometric_thresholds(xi_of(epsilon), epsilon)
            ref_t, inc_t, ref_c, inc_c = _run_pair(
                problem, layout, rule, thresholds, seed=size
            )
            # The headline inequality: dirty-sets strictly beat rescans.
            assert inc_c.satisfaction_checks < ref_c.satisfaction_checks, (
                f"{name}@{size}: incremental did not reduce satisfaction checks"
            )
            # The reference loop enters every stage; the incremental
            # engine jumps over the stages no member fails, which the
            # long narrow schedules are mostly made of.
            assert ref_c.stages_entered == ref_c.stages
            if name == "bursty-lines":
                assert inc_c.stages_entered < ref_c.stages_entered, (
                    f"{name}@{size}: incremental entered every stage"
                )
            speedup = ref_t / inc_t if inc_t > 0 else float("inf")
            speedup_at_largest[name] = speedup
            rows.append(
                [
                    name,
                    size,
                    len(problem.instances),
                    len(thresholds),
                    f"{ref_t * 1e3:.1f}",
                    f"{inc_t * 1e3:.1f}",
                    f"{speedup:.2f}x",
                    ref_c.satisfaction_checks,
                    inc_c.satisfaction_checks,
                    ref_c.stages_entered,
                    inc_c.stages_entered,
                    ref_c.adjacency_touches,
                    inc_c.adjacency_touches,
                ]
            )
    if not quick:
        # At scale, the long-schedule workload must show the full win.
        assert speedup_at_largest["bursty-lines"] >= MIN_SPEEDUP, (
            f"bursty-lines largest-size speedup "
            f"{speedup_at_largest['bursty-lines']:.2f}x < {MIN_SPEEDUP}x"
        )
    out = table(
        [
            "workload", "size", "instances", "stages",
            "ref ms", "inc ms", "speedup",
            "ref checks", "inc checks", "ref entered", "inc entered",
            "ref adj", "inc adj",
        ],
        rows,
    )
    return "E16 - First-phase engine scaling (reference vs incremental)", out, {
        "speedup_at_largest": speedup_at_largest,
        "quick": quick,
    }


def bench_e16_incremental_bursty_lines_200(benchmark):
    problem, layout, rule, xi_of = _setup("bursty-lines", 200, seed=200)
    thresholds = geometric_thresholds(xi_of(0.3), 0.3)
    result = benchmark(
        run_two_phase, problem.instances, layout, rule, thresholds,
        mis="greedy", seed=200, engine="incremental",
    )
    result.solution.verify()


def bench_e16_reference_bursty_lines_200(benchmark):
    problem, layout, rule, xi_of = _setup("bursty-lines", 200, seed=200)
    thresholds = geometric_thresholds(xi_of(0.3), 0.3)
    result = benchmark(
        run_two_phase, problem.instances, layout, rule, thresholds,
        mis="greedy", seed=200, engine="reference",
    )
    result.solution.verify()


if __name__ == "__main__":
    quick, json_path = parse_bench_args(sys.argv[1:], Path(sys.argv[0]).name)
    title, out, findings = run_experiment(quick=quick)
    print(title, "\n", out, sep="")
    print("speedups at largest size:", findings["speedup_at_largest"])
    emit_json(json_path, "e16", title, findings)
