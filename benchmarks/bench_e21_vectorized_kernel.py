"""E21 -- vectorized columnar first-phase kernel vs incremental engine.

Claim reproduced: the array-native first phase (``engine='vectorized'``
of :func:`repro.core.framework.run_first_phase`) produces artifacts
bit-identical to the incremental dirty-set engine -- same raise log,
same dual dicts (values *and* insertion order), same schedule counters
-- while replacing the per-instance dict work with numpy kernels over a
columnar instance layout: one shared edge/demand vocabulary for the
whole phase, segmented bucket reductions for the MIS steps, a
padded-position loop for the LHS recomputes, and a first-touch commit
back into the dual dicts.  The per-raise python overhead of the dict
engine grows with the dirty-set sizes, so the gap widens with workload
size; at the largest bursty-lines and multi-tenant-forest sizes the
vectorized kernel is at least ``MIN_SPEEDUP`` x faster wall-clock.

The incremental baseline runs every epoch on its plan slices (the
epoch's members and reverse index; each stage it enters builds its
conflict graph from the buckets its unsatisfied members touch), never
the global cross-epoch conflict graph, so the ratio measures the
columnar kernel against the dict kernel alone.

Methodology notes (both matter on a loaded shared box):

* Only :func:`run_first_phase` is timed -- the layered-decomposition
  build is engine-independent and would dilute the ratio.
* A **fresh MIS oracle per timed run**: :class:`LubyOracle` advances
  per-epoch RNG substreams as it draws, so re-running the phase with a
  shared oracle would time *different* work each rep.  Everything else
  the phase touches is read-only; the per-rep artifact fingerprints are
  asserted identical to prove it.
* Engine timings are **interleaved** (inc, vec, inc, vec, ...) and the
  per-engine minimum over ``REPS`` reps is reported, so background-load
  drift hits both engines alike.

``--quick`` runs a two-point smoke version for CI (no speedup floor:
at toy sizes constant factors dominate).
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
    run_first_phase,
    unit_xi,
)
from repro.distributed.mis import make_mis_oracle
from repro.workloads import build_workload, get_workload

#: (workload name, sizes, epsilon); bursty-lines has the long
#: narrow-height stage schedules (many steps over few rows), the
#: multi-tenant forest is the wide-epoch setting (few steps over many
#: rows) -- the two regimes the columnar kernel must win in.
FULL_PLAN = (
    ("bursty-lines", (100, 200, 400, 800), 0.3),
    ("multi-tenant-forest", (6400, 12800, 25600, 51200), 0.2),
)
QUICK_PLAN = (
    ("bursty-lines", (50, 100), 0.3),
    ("multi-tenant-forest", (200, 400), 0.2),
)
#: Wall-clock factor the vectorized kernel must reach at the largest
#: size of each family (full mode only).
MIN_SPEEDUP = 5.0
#: Interleaved timing reps per engine per size.
REPS = 3


def _setup(name: str, size: int, seed: int):
    """Build (problem, layout, raise rule, thresholds) for a workload."""
    spec = get_workload(name)
    problem = build_workload(name, size, seed=seed)
    if spec.kind == "tree":
        layout, _ = tree_layouts(problem, "ideal")
        delta = max(layout.critical_set_size, 6)
        rule, xi = UnitRaise(), unit_xi(delta)
    else:
        layout = line_layouts(problem)
        delta = max(layout.critical_set_size, 3)
        if spec.heights == "narrow":
            rule, xi = HeightRaise(), narrow_xi(delta, problem.hmin)
        else:
            rule, xi = UnitRaise(), unit_xi(delta)
    epsilon = 0.2 if spec.kind == "tree" else 0.3
    return problem, layout, rule, geometric_thresholds(xi, epsilon)


def _fingerprint(artifacts):
    """Everything both engines must agree on, bit-for-bit.

    ``satisfaction_checks`` / ``adjacency_touches`` are deliberately
    excluded -- those count engine-internal work and *should* differ.
    """
    dual, stack, events, counters = artifacts
    return (
        tuple(
            (e.order, e.instance.instance_id, e.delta, e.critical_edges, e.step_tuple)
            for e in events
        ),
        tuple(dual.alpha.items()),
        tuple(dual.beta.items()),
        tuple(tuple(d.instance_id for d in batch) for batch in stack),
        (counters.epochs, counters.stages, counters.steps, counters.raises),
    )


def _run_pair(problem, layout, rule, thresholds, seed, reps=REPS):
    """Interleaved best-of-*reps* timing of both engines; assert identity."""
    best = {"incremental": float("inf"), "vectorized": float("inf")}
    prints = {}
    for _ in range(reps):
        for engine in ("incremental", "vectorized"):
            oracle = make_mis_oracle("luby", seed)
            t0 = time.perf_counter()
            artifacts = run_first_phase(
                problem.instances, layout, rule, thresholds, oracle,
                engine=engine,
            )
            best[engine] = min(best[engine], time.perf_counter() - t0)
            fp = _fingerprint(artifacts)
            assert prints.setdefault(engine, fp) == fp, (
                f"{engine}: non-deterministic across reps (shared state leak)"
            )
    assert prints["incremental"] == prints["vectorized"], (
        "engines disagreed on the first-phase artifacts"
    )
    return best["incremental"], best["vectorized"]


def run_experiment(quick: bool = False):
    plan = QUICK_PLAN if quick else FULL_PLAN
    reps = 2 if quick else REPS
    rows = []
    speedup_at_largest = {}
    for name, sizes, epsilon in plan:
        for size in sizes:
            problem, layout, rule, thresholds = _setup(name, size, seed=size)
            inc_t, vec_t = _run_pair(
                problem, layout, rule, thresholds, seed=size, reps=reps
            )
            speedup = inc_t / vec_t if vec_t > 0 else float("inf")
            speedup_at_largest[name] = speedup
            rows.append(
                [
                    name,
                    size,
                    len(problem.instances),
                    len(thresholds),
                    f"{inc_t * 1e3:.1f}",
                    f"{vec_t * 1e3:.1f}",
                    f"{speedup:.2f}x",
                ]
            )
    if not quick:
        for family, floor in (
            ("bursty-lines", MIN_SPEEDUP),
            ("multi-tenant-forest", MIN_SPEEDUP),
        ):
            assert speedup_at_largest[family] >= floor, (
                f"{family} largest-size speedup "
                f"{speedup_at_largest[family]:.2f}x < {floor}x"
            )
    out = table(
        ["workload", "size", "instances", "stages", "inc ms", "vec ms", "speedup"],
        rows,
    )
    return "E21 - Vectorized columnar kernel vs incremental engine", out, {
        "speedup_at_largest": speedup_at_largest,
        "min_speedup": MIN_SPEEDUP,
        "quick": quick,
    }


def bench_e21_vectorized_bursty_lines_400(benchmark):
    problem, layout, rule, thresholds = _setup("bursty-lines", 400, seed=400)
    benchmark(
        lambda: run_first_phase(
            problem.instances, layout, rule, thresholds,
            make_mis_oracle("luby", 400), engine="vectorized",
        )
    )


def bench_e21_incremental_bursty_lines_400(benchmark):
    problem, layout, rule, thresholds = _setup("bursty-lines", 400, seed=400)
    benchmark(
        lambda: run_first_phase(
            problem.instances, layout, rule, thresholds,
            make_mis_oracle("luby", 400), engine="incremental",
        )
    )


if __name__ == "__main__":
    quick, json_path = parse_bench_args(sys.argv[1:], Path(sys.argv[0]).name)
    title, out, findings = run_experiment(quick=quick)
    print(title, "\n", out, sep="")
    print("speedups at largest size:", findings["speedup_at_largest"])
    emit_json(json_path, "e21", title, findings)
