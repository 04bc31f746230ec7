"""E18 -- the scheduling service under Zipf-skewed request traffic.

Claim reproduced: a serving loop in front of the two-phase framework
amortizes realistic traffic.  Production request streams are not
uniform -- a few hot workloads are re-submitted constantly (the skew
that motivates every VoD control-plane cache) -- so a
fingerprint-keyed result cache plus request coalescing turns most of
the stream into sub-millisecond lookups while cold solves run once.

The experiment builds a population of distinct requests from the
workload registry (multi-tenant forests, diurnal-cycle and bursty
lines -- the service-traffic families), replays a Zipf-skewed stream
of them through a :class:`repro.service.SchedulingService`, and
reports:

* throughput (requests/s) and the cache hit rate over the stream,
* p50/p99 request latency, mean cold-solve and mean warm-hit latency,
  and their ratio -- asserted >= 10x (the acceptance line of the
  service layer: a warm hit must be at least an order of magnitude
  cheaper than a cold solve).  The stream replays *prepared* request
  handles, whose problems and knobs memoize their part of the
  fingerprint on first use (a resubmission re-encodes nothing), so a
  second number is measured separately: the *fresh-handle* hit, which
  rebuilds and re-fingerprints the whole problem per submission and
  must still beat a cold solve by >= 3x,
* coalescing: a burst of identical in-flight requests collapses onto
  one solve,
* restart warmth: a second service instance sharing the disk tier
  serves the whole population without a single fresh solve,
* correctness: served results are semantically identical
  (:func:`repro.service.report_semantic_digest`) to direct
  :func:`repro.algorithms.solve_auto` calls, and
* telemetry: the replay runs with the :mod:`repro.obs` metrics layer
  on -- per-family p99 request latency is asserted from the served
  histograms (with a churn tail making ``outcome="delta"`` re-solves
  visible next to ``outcome="cold"``), the SLO attainment report must
  come back met, and the measured per-request instrument cost against
  the measured per-request serving cost bounds the telemetry overhead
  under ``MAX_TELEMETRY_OVERHEAD``.

``--quick`` runs a CI-sized stream; ``--json OUT`` emits the findings
as machine-readable JSON via the shared benchmark plumbing (plus the
rendered Prometheus snapshot next to it, as ``OUT`` with a ``.prom``
suffix).
"""
import math
import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from common import (
    emit_json,
    histogram_percentiles,
    parse_bench_args,
    percentiles,
    table,
)

from repro.algorithms import solve_auto
from repro.obs import (
    MetricsRegistry,
    SLOTracker,
    render_prometheus,
    trace_request,
)
from repro.service import (
    SchedulingService,
    SolveKnobs,
    SolveRequest,
    report_semantic_digest,
)
from repro.workloads import build_trajectory, build_workload

#: (workload name, size, number of seeds) population slices.
FULL_POPULATION = (
    ("multi-tenant-forest", 240, 4),
    ("diurnal-cycle", 120, 4),
    ("bursty-lines", 80, 4),
)
QUICK_POPULATION = (
    ("multi-tenant-forest", 80, 2),
    ("diurnal-cycle", 48, 2),
    ("bursty-lines", 32, 2),
)
FULL_REQUESTS = 400
QUICK_REQUESTS = 80
#: Zipf exponent of the request stream (rank r drawn with weight
#: ``1/(r+1)^s``) -- mild skew, still leaves a long tail.
ZIPF_S = 1.2
STREAM_SEED = 18
#: How many identical requests the coalescing burst submits at once.
BURST = 8
#: Required mean cold-solve / mean warm-hit latency ratio.
MIN_SPEEDUP = 10.0
#: Solve knobs of every request: the serial production engine with the
#: deterministic oracle, so reruns are comparable.
KNOBS = dict(engine="incremental", mis="greedy", epsilon=0.25)
#: Per-family p99 latency budgets (seconds) the replay must meet --
#: deliberately generous (cold solves land in the same histograms),
#: they guard "the SLO machinery reports sane numbers", not a perf
#: target a loaded CI runner could miss.
SLO_TARGETS = {"line": 60.0, "tree": 60.0}
#: Telemetry must cost under this fraction of replay wall-clock.
MAX_TELEMETRY_OVERHEAD = 0.05


def _population(plan):
    """The distinct requests, in a deterministic order."""
    return [
        SolveRequest.from_workload(name, size, seed=seed, **KNOBS)
        for name, size, n_seeds in plan
        for seed in range(n_seeds)
    ]


def _zipf_stream(n_population: int, n_requests: int, rng: random.Random):
    """Population indices drawn Zipf-skewed, hot ranks shuffled."""
    ranks = list(range(n_population))
    rng.shuffle(ranks)  # decouple hotness from population build order
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(n_population)]
    return [ranks[i] for i in rng.choices(range(n_population), weights, k=n_requests)]


def _replay_elapsed(population, stream, metrics) -> float:
    """Wall-clock of one full replay on a fresh memory-only service."""
    service = SchedulingService(
        capacity=len(population), workers=2, metrics=metrics
    )
    t0 = time.perf_counter()
    for idx in stream:
        service.solve(population[idx])
    return time.perf_counter() - t0


def _telemetry_overhead() -> float:
    """Fraction of per-request serving cost that telemetry adds.

    A direct A/B of replay wall-clock cannot resolve the true delta on
    shared hardware: the instruments cost ~10 microseconds per request
    while cold-solve jitter between replays runs tens of percent, so
    differencing two noisy ~60ms numbers answers with the noise.  The
    guard instead measures the two factors where each is stable:

    * the **numerator** -- per-request instrument cost -- from a tight
      loop over the exact hit-path telemetry sequence (three phase
      spans, ``finish``, SLO observe) against a private registry;
    * the **denominator** -- per-request serving cost -- from a
      telemetry-off quick replay (min-of-N, so a noisy slow replay
      cannot flatter the ratio).  Each replay, the warm-up included,
      gets a freshly built population: networks memoize their
      layouts, so re-serving objects an earlier replay solved would
      time memo-warm solves that the main replay's fresh requests
      never get.

    Their ratio bounds the replay slowdown telemetry can cause: a hit
    pays exactly the measured sequence, and the few extra span records
    of a cold request are amortized over a solve that is three orders
    of magnitude longer.
    """
    def fresh():
        """A rebuilt population, fingerprinted outside any timing."""
        population = _population(QUICK_POPULATION)
        for request in population:
            request.fingerprint()
        return population

    population = fresh()
    stream = _zipf_stream(
        len(population), QUICK_REQUESTS, random.Random(STREAM_SEED)
    )
    _replay_elapsed(population, stream, None)  # warm pools/allocator
    replay = min(_replay_elapsed(fresh(), stream, None) for _ in range(3))
    per_request = replay / len(stream)

    registry = MetricsRegistry()
    slo = SLOTracker(registry)

    def batch(n: int = 2000) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            trace = trace_request(registry)
            with trace.span("validate"):
                pass
            with trace.span("fingerprint"):
                pass
            with trace.span("cache_probe"):
                pass
            slo.observe("line", trace.finish("hit"))
        return (time.perf_counter() - t0) / n

    batch(200)  # warm the instrument caches
    per_request_telemetry = min(batch() for _ in range(5))
    return per_request_telemetry / per_request


def _delta_tail(registry, quick: bool) -> None:
    """A short churn trajectory so ``outcome="delta"`` re-solves land
    in the same solve-latency histograms as the cold population."""
    trajectory = build_trajectory(
        "tenant-churn", 16 if quick else 32, seed=1, steps=4 if quick else 6
    )
    knobs = SolveKnobs(**KNOBS)
    service = SchedulingService(
        workers=2, keep_artifacts=True, metrics=registry
    )
    service.solve(SolveRequest(problem=trajectory[0].problem, knobs=knobs))
    for step in trajectory[1:]:
        service.solve_delta(
            SolveRequest(problem=step.problem, knobs=knobs)
        )


def run_experiment(quick: bool = False):
    plan = QUICK_POPULATION if quick else FULL_POPULATION
    n_requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    rng = random.Random(STREAM_SEED)
    population = _population(plan)
    stream = _zipf_stream(len(population), n_requests, rng)
    registry = MetricsRegistry()

    with tempfile.TemporaryDirectory(prefix="repro-e18-cache-") as disk_dir:
        service = SchedulingService(
            capacity=len(population), disk_dir=disk_dir, workers=2,
            metrics=registry, slo_targets=SLO_TARGETS,
        )
        per_source = {name: {"cold": [], "hit": [], "requests": 0}
                      for name, _, _ in plan}
        latencies = []
        t_start = time.perf_counter()
        for idx in stream:
            request = population[idx]
            result = service.solve(request)
            source = request.label.split("@")[0]
            per_source[source]["requests"] += 1
            per_source[source]["cold" if result.status == "miss" else "hit"].append(
                result.latency_s
            )
            latencies.append(result.latency_s)
        elapsed = time.perf_counter() - t_start

        stats = service.stats
        hits = stats["cache"]["hits"] + stats["cache"]["disk_hits"]
        hit_rate = hits / n_requests
        cold = sorted(x for s in per_source.values() for x in s["cold"])
        warm = sorted(x for s in per_source.values() for x in s["hit"])
        assert stats["solves"] == len(cold) <= len(population), (
            "every distinct fingerprint must solve at most once"
        )
        assert warm, "a Zipf-skewed stream must produce warm hits"
        mean_cold = sum(cold) / len(cold)
        mean_warm = sum(warm) / len(warm)
        speedup = mean_cold / mean_warm
        assert speedup >= MIN_SPEEDUP, (
            f"warm hits must be >= {MIN_SPEEDUP}x faster than cold solves, "
            f"got {speedup:.1f}x ({mean_cold * 1e3:.2f}ms vs {mean_warm * 1e3:.3f}ms)"
        )

        # Fresh-handle hits: the stream above replays prepared request
        # objects (their problems and knobs memoize the fingerprint on
        # first use -- the client library pattern), so its hit
        # latencies measure lookup alone.  A fresh submission of the
        # same workload rebuilds the problem and pays a full
        # fingerprint per request; measure that
        # honestly as its own number.
        fresh_latencies = []
        for name, size, n_seeds in plan:
            for seed in range(n_seeds):
                fresh = SolveRequest.from_workload(name, size, seed=seed, **KNOBS)
                result = service.solve(fresh)
                assert result.status == "hit", (
                    f"{fresh.label}: fresh resubmission must hit the cache"
                )
                fresh_latencies.append(result.latency_s)
        mean_fresh = sum(fresh_latencies) / len(fresh_latencies)
        assert mean_fresh * 3 <= mean_cold, (
            f"even a fresh-handle hit (full fingerprinting, "
            f"{mean_fresh * 1e3:.2f}ms) must beat a cold solve "
            f"({mean_cold * 1e3:.2f}ms) by >= 3x"
        )

        # Correctness spot-check: the served report is semantically the
        # direct library call, for the hottest entry of each source.
        for name, size, _ in plan:
            request = next(
                p for p in population if p.label.startswith(f"{name}@")
            )
            served = service.solve(request).report
            direct = solve_auto(
                build_workload(name, size, seed=0),
                **{**KNOBS, "seed": 0},
            )
            assert report_semantic_digest(served) == report_semantic_digest(direct), (
                f"{request.label}: served result diverged from a direct solve"
            )

        # Coalescing: a burst of one *uncached* fingerprint collapses
        # onto a single solve.
        burst_req = SolveRequest.from_workload(
            plan[0][0], plan[0][1] + 1, seed=0, **KNOBS
        )
        before = service.stats
        futures = [service.submit(burst_req) for _ in range(BURST)]
        burst_results = [f.result() for f in futures]
        after = service.stats
        burst_solves = after["solves"] - before["solves"]
        burst_coalesced = after["coalesced"] - before["coalesced"]
        assert burst_solves == 1, (
            f"a coalesced burst must run exactly one solve, ran {burst_solves}"
        )
        assert all(
            report_semantic_digest(r.report)
            == report_semantic_digest(burst_results[0].report)
            for r in burst_results
        ), "coalesced callers must share one result"

        # Restart warmth: a fresh service on the same disk tier serves
        # the population without solving anything.
        service2 = SchedulingService(
            capacity=len(population), disk_dir=disk_dir, workers=2
        )
        disk_latencies = []
        for request in population:
            result = service2.solve(request)
            assert result.status == "hit", (
                f"{request.label}: expected a disk-tier hit after restart"
            )
            disk_latencies.append(result.latency_s)
        assert service2.stats["solves"] == 0, "restart must not re-solve"
        mean_disk = sum(disk_latencies) / len(disk_latencies)

    # -- telemetry: per-family tails, delta visibility, SLO, overhead --
    _delta_tail(registry, quick)
    snap = service.metrics_snapshot()
    metrics = snap["metrics"]
    request_p99 = {
        family: histogram_percentiles(
            metrics, "repro_service_request_seconds", family=family
        )["p99"]
        for family in ("line", "tree")
    }
    for family, p99 in request_p99.items():
        assert not math.isnan(p99), (
            f"family {family!r} served no requests -- the stream must "
            f"exercise both families"
        )
        assert p99 <= SLO_TARGETS[family], (
            f"{family} p99 {p99 * 1e3:.1f}ms blew the "
            f"{SLO_TARGETS[family]:.0f}s budget"
        )
    solve_p99 = {
        outcome: histogram_percentiles(
            metrics, "repro_service_solve_seconds", outcome=outcome
        )["p99"]
        for outcome in ("cold", "delta")
    }
    assert not math.isnan(solve_p99["delta"]), (
        "churn re-solves must be visible under outcome=\"delta\""
    )
    assert not math.isnan(solve_p99["cold"])
    slo = snap["slo"]
    assert slo is not None
    for family, attainment in slo.items():
        assert attainment["met"], (
            f"SLO missed for {family}: {attainment}"
        )
        assert attainment["observed"] > 0
    overhead = _telemetry_overhead()
    assert overhead < MAX_TELEMETRY_OVERHEAD, (
        f"telemetry cost {overhead * 100:.1f}% of replay wall-clock "
        f"(budget {MAX_TELEMETRY_OVERHEAD * 100:.0f}%)"
    )

    latencies.sort()
    rows = []
    for name, size, n_seeds in plan:
        s = per_source[name]
        source_cold = (sum(s["cold"]) / len(s["cold"])) if s["cold"] else 0.0
        source_warm = (sum(s["hit"]) / len(s["hit"])) if s["hit"] else 0.0
        rows.append(
            [
                name,
                size,
                n_seeds,
                s["requests"],
                len(s["hit"]),
                f"{source_cold * 1e3:.1f}",
                f"{source_warm * 1e3:.3f}",
                f"{source_cold / source_warm:.0f}x" if source_warm else "-",
            ]
        )
    stream_pcts = percentiles(latencies)
    findings = {
        "quick": quick,
        "population": len(population),
        "requests": n_requests,
        "zipf_s": ZIPF_S,
        "throughput_rps": n_requests / elapsed,
        "hit_rate": hit_rate,
        "p50_ms": stream_pcts["p50"] * 1e3,
        "p99_ms": stream_pcts["p99"] * 1e3,
        "mean_cold_ms": mean_cold * 1e3,
        "mean_warm_hit_ms": mean_warm * 1e3,
        "mean_fresh_hit_ms": mean_fresh * 1e3,
        "mean_disk_hit_ms": mean_disk * 1e3,
        "warm_speedup": speedup,
        "burst_coalesced": burst_coalesced,
        "service_stats": stats,
        "telemetry": {
            "overhead_frac": overhead,
            "request_p99_ms": {
                family: p99 * 1e3 for family, p99 in request_p99.items()
            },
            "solve_p99_ms": {
                outcome: p99 * 1e3 for outcome, p99 in solve_p99.items()
            },
            "slo": slo,
        },
        "prometheus_text": render_prometheus(metrics),
    }
    out = table(
        [
            "source", "size", "seeds", "requests", "hits",
            "cold ms", "hit ms", "speedup",
        ],
        rows,
    )
    return "E18 - Scheduling service under Zipf-skewed traffic", out, findings


def bench_e18_service_replay_quick(benchmark):
    population = _population(QUICK_POPULATION)
    stream = _zipf_stream(
        len(population), QUICK_REQUESTS, random.Random(STREAM_SEED)
    )

    def replay():
        service = SchedulingService(capacity=len(population), workers=2)
        for idx in stream:
            service.solve(population[idx])
        return service

    service = benchmark(replay)
    assert service.stats["cache"]["hits"] > 0


if __name__ == "__main__":
    quick, json_path = parse_bench_args(sys.argv[1:], Path(sys.argv[0]).name)
    title, out, findings = run_experiment(quick=quick)
    print(title, "\n", out, sep="")
    print(
        f"stream: {findings['requests']} requests over "
        f"{findings['population']} distinct (zipf s={findings['zipf_s']}), "
        f"hit rate {findings['hit_rate']:.2f}, "
        f"{findings['throughput_rps']:.0f} req/s, "
        f"p50 {findings['p50_ms']:.2f}ms p99 {findings['p99_ms']:.1f}ms, "
        f"warm speedup {findings['warm_speedup']:.0f}x, "
        f"fresh-handle hit {findings['mean_fresh_hit_ms']:.2f}ms, "
        f"disk hit {findings['mean_disk_hit_ms']:.2f}ms, "
        f"burst coalesced {findings['burst_coalesced']}/{BURST - 1}"
    )
    telemetry = findings["telemetry"]
    print(
        f"telemetry: overhead {telemetry['overhead_frac'] * 100:+.1f}%, "
        f"request p99 line {telemetry['request_p99_ms']['line']:.1f}ms / "
        f"tree {telemetry['request_p99_ms']['tree']:.1f}ms, "
        f"solve p99 cold {telemetry['solve_p99_ms']['cold']:.1f}ms / "
        f"delta {telemetry['solve_p99_ms']['delta']:.1f}ms"
    )
    # The rendered snapshot lands next to the JSON record, scrape-ready.
    prometheus_text = findings.pop("prometheus_text")
    if json_path is not None:
        prom_path = Path(json_path).with_suffix(".prom")
        prom_path.write_text(prometheus_text)
        print(f"wrote {prom_path}")
    emit_json(json_path, "e18", title, findings)
