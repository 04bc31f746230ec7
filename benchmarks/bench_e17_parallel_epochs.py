"""E17 -- epoch-graph planning and the parallel first-phase engine.

Claim reproduced: the first phase's epochs need not run strictly in
sequence.  Dual variables live only on edges and demands, so epochs
whose groups share no path edge and no demand are independent; the
:class:`repro.core.plan.EpochPlan` partitions the epoch-interaction
graph into *waves* of mutually independent epochs, and
``engine='parallel'`` executes each wave concurrently over per-epoch
incremental state while staying **bit-identical** to
``engine='incremental'`` -- on every execution backend.

The experiment measures, on the multi-tenant/forest workloads (the
families with the most epoch independence):

* the epoch-independence width found by the planner (>= 2 means the
  schedule genuinely parallelizes),
* wall-clock of reference vs incremental vs parallel on the *thread*
  and *process* backends (>= 2 workers), interleaving the engine runs
  round-robin and keeping per-engine minima so machine noise cancels
  out, and
* the engines' work meters, which must be equal: the incremental
  engine runs the same epoch kernel on the same plan slices.

Both sides of the thread comparison therefore run one plan-sliced
kernel, serially on the incremental side and as pooled waves on the
parallel side, so the thread gate measures what the executor adds: pool
dispatch plus the ordered merge.  On a GIL-bound CPython the thread
backend cannot win by brute concurrency -- epoch execution is pure
Python -- so its headline inequality is that this overhead stays within
noise: thread wall-clock stays at or below incremental times the
tolerance.  The process backend is where
real CPU parallelism enters: wave jobs are pickled to a warm worker
pool and run truly concurrently, so on multi-core hosts it must come in
at or below the thread backend on the widest workload at the largest
size (on single-CPU runners the pickling overhead is bounded by the
noise tolerance instead).  ``--quick`` runs a two-point smoke version
for CI; ``--json OUT`` emits the findings -- with per-backend labels --
as machine-readable JSON.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from common import emit_json, parse_bench_args, table

from repro.algorithms.base import tree_layouts
from repro.core.dual import UnitRaise
from repro.core.engines.backends import usable_cpu_count
from repro.core.framework import geometric_thresholds, run_two_phase, unit_xi
from repro.core.plan import EpochPlan
from repro.workloads import build_workload

#: (workload name, sizes); both are unit-height tree families, so the
#: UnitRaise rule and the paper's tree xi apply throughout.  The
#: multi-tenant sizes start where dispatch overhead is amortized (below
#: ~500 instances a first phase lasts single-digit milliseconds and the
#: pooled hand-off is a measurable fraction of it).
FULL_PLAN = (
    ("multi-tenant-forest", (800, 1600, 3200)),
    ("powerlaw-trees", (200, 400)),
)
QUICK_PLAN = (
    ("multi-tenant-forest", (800, 1600)),
    ("powerlaw-trees", (120,)),
)
EPSILON = 0.2
#: Worker counts compared against the serial engines.
WORKER_COUNTS = (2, 4)
#: Execution backends timed for engine='parallel'.
TIMED_BACKENDS = ("thread", "process")
#: Interleaved timing repetitions per engine.
REPEATS = 5
#: Wall-clock tolerance for the thread-parallel <= incremental
#: assertion.  The engines are within measurement noise of each other
#: by design and the *reported* ratio is the honest number; full mode
#: (larger sizes, dev machines) gets a tight bound, --quick (CI smoke
#: on shared runners, where two GIL-bound pure-Python timings jitter)
#: only a backstop that still catches real regressions such as
#: accidental serialization.
NOISE_TOLERANCE_FULL = 1.10
NOISE_TOLERANCE_QUICK = 1.25
#: Wall-clock tolerance for the process <= thread assertion on the
#: widest workload at its largest size.  With >= 2 usable CPUs the
#: process backend runs wave jobs truly concurrently and full mode gets
#: a tight bound; --quick (CI smoke on shared, contended runners) gets
#: the same loosened backstop treatment as the thread assertion.  On a
#: single usable CPU there is no parallelism to win, only pickling to
#: pay, so the bound degrades further while still catching pathological
#: serialization overhead.
PROCESS_TOLERANCE_MULTICORE = 1.10
PROCESS_TOLERANCE_MULTICORE_QUICK = 1.30
PROCESS_TOLERANCE_SINGLE_CPU = 1.50


def _setup(name: str, size: int, seed: int):
    problem = build_workload(name, size, seed=seed)
    layout, _ = tree_layouts(problem, "ideal")
    thresholds = geometric_thresholds(
        unit_xi(max(layout.critical_set_size, 6)), EPSILON
    )
    return problem, layout, thresholds


def _timed_engines(problem, layout, thresholds, seed):
    """Interleave engine runs round-robin; return per-config best times
    and one result per config for the equivalence checks.  Config keys
    are (engine, workers, backend)."""
    configs = [
        ("reference", None, None),
        ("incremental", None, None),
    ]
    configs += [
        ("parallel", w, b) for b in TIMED_BACKENDS for w in WORKER_COUNTS
    ]
    best = {key: float("inf") for key in configs}
    results = {}
    for _ in range(REPEATS):
        for key in configs:
            engine, workers, backend = key
            t0 = time.perf_counter()
            res = run_two_phase(
                problem.instances, layout, UnitRaise(), thresholds,
                mis="greedy", seed=seed, engine=engine, workers=workers,
                backend=backend,
            )
            best[key] = min(best[key], time.perf_counter() - t0)
            results[key] = res
    return best, results


def _assert_identical(a, b, what):
    assert a.semantic_tuple() == b.semantic_tuple(), (
        f"{what}: engines disagreed on the semantic artifact"
    )


def run_experiment(quick: bool = False):
    plan = QUICK_PLAN if quick else FULL_PLAN
    rows = []
    findings = {
        "quick": quick,
        "usable_cpus": usable_cpu_count(),
        "workloads": {},
    }
    for name, sizes in plan:
        for size in sizes:
            problem, layout, thresholds = _setup(name, size, seed=size)
            epoch_plan = EpochPlan.build(problem.instances, layout)
            epoch_plan.verify()
            best, results = _timed_engines(problem, layout, thresholds, seed=size)
            ref = results[("reference", None, None)]
            inc = results[("incremental", None, None)]
            _assert_identical(ref, inc, f"{name}@{size} ref/inc")
            for backend in TIMED_BACKENDS:
                for w in WORKER_COUNTS:
                    _assert_identical(
                        inc, results[("parallel", w, backend)],
                        f"{name}@{size} inc/{backend}{w}",
                    )
            ref_t = best[("reference", None, None)]
            inc_t = best[("incremental", None, None)]
            backend_t = {
                backend: min(
                    best[("parallel", w, backend)] for w in WORKER_COUNTS
                )
                for backend in TIMED_BACKENDS
            }
            thr_t = backend_t["thread"]
            proc_t = backend_t["process"]
            par_c = results[("parallel", WORKER_COUNTS[0], "thread")].counters
            inc_c = inc.counters
            # One kernel on the same plan slices: equal adjacency work.
            assert par_c.adjacency_touches == inc_c.adjacency_touches, (
                f"{name}@{size}: parallel and incremental adjacency "
                "touches differ on the same plan slices"
            )
            rows.append(
                [
                    name,
                    size,
                    len(problem.instances),
                    layout.n_epochs,
                    epoch_plan.n_waves,
                    epoch_plan.width,
                    f"{ref_t * 1e3:.1f}",
                    f"{inc_t * 1e3:.1f}",
                    f"{thr_t * 1e3:.1f}",
                    f"{proc_t * 1e3:.1f}",
                    f"{thr_t / inc_t:.2f}x",
                    f"{proc_t / thr_t:.2f}x",
                    inc_c.adjacency_touches,
                    par_c.adjacency_touches,
                ]
            )
            findings["workloads"].setdefault(name, {})[size] = {
                "instances": len(problem.instances),
                "n_epochs": layout.n_epochs,
                "n_waves": epoch_plan.n_waves,
                "width": epoch_plan.width,
                "ref_ms": ref_t * 1e3,
                "inc_ms": inc_t * 1e3,
                "backend_ms": {
                    backend: backend_t[backend] * 1e3
                    for backend in TIMED_BACKENDS
                },
                "par_over_inc": thr_t / inc_t,
                "proc_over_thread": proc_t / thr_t,
                "adjacency_touches": {
                    "incremental": inc_c.adjacency_touches,
                    "parallel": par_c.adjacency_touches,
                },
            }
            if name == "multi-tenant-forest":
                # The headline workload must expose real independence,
                # and since both engines run the same plan-sliced
                # kernel, the pool dispatch and merge must stay within
                # noise of the serial run.
                assert epoch_plan.width >= 2, (
                    f"{name}@{size}: expected epoch-independence width >= 2, "
                    f"got {epoch_plan.width}"
                )
                tolerance = NOISE_TOLERANCE_QUICK if quick else NOISE_TOLERANCE_FULL
                assert thr_t <= inc_t * tolerance, (
                    f"{name}@{size}: thread-parallel {thr_t * 1e3:.2f}ms exceeds "
                    f"incremental {inc_t * 1e3:.2f}ms beyond noise tolerance"
                )
            if name == "multi-tenant-forest" and size == max(sizes):
                # The real-speedup claim of the process backend: at the
                # largest size of the widest workload, real CPU
                # parallelism must at least pay for its pickling.
                if usable_cpu_count() < 2:
                    tolerance = PROCESS_TOLERANCE_SINGLE_CPU
                elif quick:
                    tolerance = PROCESS_TOLERANCE_MULTICORE_QUICK
                else:
                    tolerance = PROCESS_TOLERANCE_MULTICORE
                assert proc_t <= thr_t * tolerance, (
                    f"{name}@{size}: process backend {proc_t * 1e3:.2f}ms "
                    f"exceeds thread backend {thr_t * 1e3:.2f}ms "
                    f"(tolerance {tolerance}x, "
                    f"{usable_cpu_count()} usable CPUs)"
                )
    mt = findings["workloads"].get("multi-tenant-forest", {})
    widths = [stats["width"] for stats in mt.values()]
    ratios = [stats["par_over_inc"] for stats in mt.values()]
    proc_ratios = [stats["proc_over_thread"] for stats in mt.values()]
    findings["max_width"] = max(widths, default=0)
    findings["best_par_over_inc"] = min(ratios, default=float("nan"))
    findings["best_proc_over_thread"] = min(proc_ratios, default=float("nan"))
    out = table(
        [
            "workload", "size", "instances", "epochs", "waves", "width",
            "ref ms", "inc ms", "thr ms", "proc ms", "thr/inc",
            "proc/thr", "inc adj", "par adj",
        ],
        rows,
    )
    return "E17 - Epoch-graph planning and the parallel engine", out, findings


def bench_e17_parallel_multi_tenant_400(benchmark):
    problem, layout, thresholds = _setup("multi-tenant-forest", 400, seed=400)
    result = benchmark(
        run_two_phase, problem.instances, layout, UnitRaise(), thresholds,
        mis="greedy", seed=400, engine="parallel", workers=4,
    )
    result.solution.verify()


def bench_e17_process_multi_tenant_400(benchmark):
    problem, layout, thresholds = _setup("multi-tenant-forest", 400, seed=400)
    result = benchmark(
        run_two_phase, problem.instances, layout, UnitRaise(), thresholds,
        mis="greedy", seed=400, engine="parallel", workers=4,
        backend="process",
    )
    result.solution.verify()


def bench_e17_incremental_multi_tenant_400(benchmark):
    problem, layout, thresholds = _setup("multi-tenant-forest", 400, seed=400)
    result = benchmark(
        run_two_phase, problem.instances, layout, UnitRaise(), thresholds,
        mis="greedy", seed=400, engine="incremental",
    )
    result.solution.verify()


if __name__ == "__main__":
    quick, json_path = parse_bench_args(sys.argv[1:], Path(sys.argv[0]).name)
    title, out, findings = run_experiment(quick=quick)
    print(title, "\n", out, sep="")
    print(
        "multi-tenant-forest: max width", findings["max_width"],
        "best thr/inc", f"{findings['best_par_over_inc']:.2f}",
        "best proc/thr", f"{findings['best_proc_over_thread']:.2f}",
        f"({findings['usable_cpus']} usable CPUs)",
    )
    emit_json(json_path, "e17", title, findings)
