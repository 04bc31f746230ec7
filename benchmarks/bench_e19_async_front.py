"""E19 -- the asyncio front door under Zipf-skewed request traffic.

Claim reproduced: putting the serving loop behind ``asyncio`` keeps the
cache/coalescing amortization of E18 while adding what an RPC process
needs -- concurrent admission with bounded in-flight work, a wire
endpoint, and graceful drain -- without changing a single served bit.
In the arrival-dominated regime of heavy request traffic (the
queueing-network scheduling setting of Shah--Shin, arXiv:0908.3670)
the front door, not the solver, is the component under load, so it is
benchmarked the same way the solver layers are.

The experiment replays E18's Zipf-skewed stream (same populations,
same seeds) three ways and cross-checks them:

* **sync baseline** -- sequential ``SchedulingService.solve`` calls,
  E18's serving path,
* **async in-process** -- the whole stream submitted at once to an
  :class:`repro.service.AsyncSchedulingService` and gathered, with
  admission capped by ``max_inflight`` (peak in-flight is asserted to
  respect the cap),
* **TCP front door** -- a pipelining JSON client drives part of the
  stream over a real socket.

Reported: throughput and p50/p99 of the async replay vs the sync
baseline, hit rates, peak queue depth / in-flight, and wire round-trip
latency.  Asserted: every async-served result is bit-identical
(:func:`repro.service.report_semantic_digest`) to a direct
:func:`repro.algorithms.solve_auto` call -- checked on a *cold* front
door (fresh disk-less service) and again on a *cached* one -- the TCP
responses' digests match the same direct solves, and after
:meth:`aclose` the warm service-pool registry is empty (the
graceful-drain contract of ``shutdown_pools``).  The async replay
runs with a private :class:`repro.obs.MetricsRegistry` and asserts
the telemetry's own view: one admission-wait observation per admitted
request and a finite per-family request p99 out of the latency
histograms.

``--quick`` runs a CI-sized stream; ``--json OUT`` emits the findings
via the shared benchmark plumbing.
"""
import asyncio
import json
import math
import random
import sys
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
from repro.obs import MetricsRegistry
from repro.service import (
    AsyncSchedulingService,
    SchedulingService,
    SolveRequest,
    pools,
    report_semantic_digest,
)
from repro.workloads import build_workload

#: Same populations and stream shape as E18, so the two benches are
#: directly comparable.
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
ZIPF_S = 1.2
STREAM_SEED = 19
MAX_INFLIGHT = 8
#: How many stream entries the TCP client replays (pipelined).
FULL_WIRE = 60
QUICK_WIRE = 20
KNOBS = dict(engine="incremental", mis="greedy", epsilon=0.25)


def _population(plan):
    return [
        SolveRequest.from_workload(name, size, seed=seed, **KNOBS)
        for name, size, n_seeds in plan
        for seed in range(n_seeds)
    ]


def _zipf_stream(n_population: int, n_requests: int, rng: random.Random):
    ranks = list(range(n_population))
    rng.shuffle(ranks)
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(n_population)]
    return [ranks[i] for i in rng.choices(range(n_population), weights, k=n_requests)]


def _direct_digests(plan):
    """Fingerprint-label -> digest of the direct library solve."""
    digests = {}
    for name, size, n_seeds in plan:
        for seed in range(n_seeds):
            report = solve_auto(
                build_workload(name, size, seed=seed),
                **{**KNOBS, "seed": seed},
            )
            digests[f"{name}@{size}#{seed}"] = report_semantic_digest(report)
    return digests


async def _async_replay(population, stream, direct, max_inflight):
    """The whole stream gathered at once through a fresh front door.

    The front runs with a private telemetry registry: besides the
    digest cross-checks, the replay asserts the observability layer's
    view of itself -- admission-wait observed once per request, and a
    finite per-family request p99 straight from the latency histograms.
    """
    registry = MetricsRegistry()
    front = AsyncSchedulingService(
        capacity=len(population),
        workers=2,
        max_inflight=max_inflight,
        metrics=registry,
    )
    latencies = []

    async def one(request):
        t0 = time.perf_counter()
        result = await front.solve(request)
        latencies.append(time.perf_counter() - t0)
        return result

    t_start = time.perf_counter()
    results = await asyncio.gather(*(one(population[i]) for i in stream))
    elapsed = time.perf_counter() - t_start

    # Cold check: every label served at least once as a miss, and every
    # served report -- miss or coalesced/cached hit -- is bit-identical
    # to the direct solve.
    statuses = {}
    for result in results:
        statuses.setdefault(result.label, set()).add(result.status)
        assert report_semantic_digest(result.report) == direct[result.label], (
            f"{result.label}: async-served result diverged from direct solve"
        )
    assert all("miss" in s for s in statuses.values()), (
        "a fresh front door must cold-solve each distinct label once"
    )

    # Cached check: replay the distinct population again, all hits,
    # still bit-identical.
    again = await front.solve_batch(population)
    for result in again:
        assert result.status == "hit", (
            f"{result.label}: expected a cached hit on replay"
        )
        assert report_semantic_digest(result.report) == direct[result.label], (
            f"{result.label}: cached result diverged from direct solve"
        )

    stats = front.stats
    assert stats["peak_active"] <= max_inflight, (
        f"admission cap violated: peak {stats['peak_active']} > {max_inflight}"
    )

    # Telemetry cross-check: every admitted request (the stream plus
    # the cached-replay batch) observed an admission wait, and the
    # request histograms yield a finite p99 for both served families.
    snap = registry.snapshot()
    n_admitted = sum(
        h["count"]
        for key, h in snap["histograms"].items()
        if key.startswith("repro_admission_wait_seconds")
    )
    assert n_admitted == len(stream) + len(population), (
        f"admission-wait observed {n_admitted} times, expected "
        f"{len(stream) + len(population)}"
    )
    telemetry_p99 = {}
    for family in ("line", "tree"):
        pcts = histogram_percentiles(
            snap, "repro_service_request_seconds", family=family
        )
        assert not math.isnan(pcts["p99"]), (
            f"{family}: request histogram has no samples"
        )
        telemetry_p99[family] = pcts["p99"]

    await front.drain()  # pools stay warm for the wire phase
    return elapsed, sorted(latencies), stats, telemetry_p99


async def _wire_replay(population, stream, direct):
    """Part of the stream over a real socket, pipelined, id-correlated."""
    async with AsyncSchedulingService(
        capacity=len(population), workers=2, max_inflight=MAX_INFLIGHT
    ) as front:
        host, port = await front.serve()
        reader, writer = await asyncio.open_connection(host, port)
        t_start = time.perf_counter()
        expected = {}
        for req_id, idx in enumerate(stream):
            request = population[idx]
            name, rest = request.label.split("@")
            size, seed = rest.split("#")
            expected[req_id] = request.label
            writer.write(json.dumps({
                "id": req_id,
                "workload": name,
                "size": int(size),
                "seed": int(seed),
                "knobs": KNOBS,
            }).encode() + b"\n")
        await writer.drain()
        responses = {}
        while len(responses) < len(expected):
            line = await reader.readline()
            assert line, "connection closed before all responses arrived"
            response = json.loads(line)
            responses[response["id"]] = response
        elapsed = time.perf_counter() - t_start
        writer.close()
        await writer.wait_closed()
        for req_id, label in expected.items():
            response = responses[req_id]
            assert response["ok"], f"{label}: wire request failed: {response}"
            assert response["semantic_digest"] == direct[label], (
                f"{label}: wire-served digest diverged from direct solve"
            )
    return elapsed, len(expected)


def run_experiment(quick: bool = False):
    plan = QUICK_POPULATION if quick else FULL_POPULATION
    n_requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    n_wire = QUICK_WIRE if quick else FULL_WIRE
    rng = random.Random(STREAM_SEED)
    population = _population(plan)
    stream = _zipf_stream(len(population), n_requests, rng)
    direct = _direct_digests(plan)

    # Sync baseline: E18's sequential serving path on a fresh service.
    sync_service = SchedulingService(capacity=len(population), workers=2)
    sync_latencies = []
    t_start = time.perf_counter()
    for idx in stream:
        result = sync_service.solve(population[idx])
        sync_latencies.append(result.latency_s)
    sync_elapsed = time.perf_counter() - t_start
    sync_pcts = percentiles(sync_latencies)

    async_elapsed, async_latencies, front_stats, telemetry_p99 = asyncio.run(
        _async_replay(population, stream, direct, MAX_INFLIGHT)
    )
    async_pcts = percentiles(async_latencies)
    wire_elapsed, wire_count = asyncio.run(
        _wire_replay(population, stream[:n_wire], direct)
    )

    # The wire replay closed through aclose(): the graceful-drain
    # contract is zero live executors in the warm-pool registry.
    live_pools = len(pools._SERVICE_POOLS)
    assert live_pools == 0, (
        f"aclose() must leave zero live executors, found {live_pools}"
    )

    hit_rate = front_stats["service"]["cache"]["hit_ratio"]
    rows = [
        [
            "sync (E18 path)",
            n_requests,
            f"{n_requests / sync_elapsed:.0f}",
            f"{sync_pcts['p50'] * 1e3:.2f}",
            f"{sync_pcts['p99'] * 1e3:.1f}",
            "1 (serial)",
        ],
        [
            "async front door",
            n_requests,
            f"{n_requests / async_elapsed:.0f}",
            f"{async_pcts['p50'] * 1e3:.2f}",
            f"{async_pcts['p99'] * 1e3:.1f}",
            f"{front_stats['peak_active']} (cap {MAX_INFLIGHT})",
        ],
        [
            "json-over-tcp",
            wire_count,
            f"{wire_count / wire_elapsed:.0f}",
            "-",
            "-",
            "pipelined",
        ],
    ]
    findings = {
        "quick": quick,
        "population": len(population),
        "requests": n_requests,
        "zipf_s": ZIPF_S,
        "max_inflight": MAX_INFLIGHT,
        "sync_throughput_rps": n_requests / sync_elapsed,
        "async_throughput_rps": n_requests / async_elapsed,
        "async_vs_sync": sync_elapsed / async_elapsed,
        "async_p50_ms": async_pcts["p50"] * 1e3,
        "async_p99_ms": async_pcts["p99"] * 1e3,
        "sync_p50_ms": sync_pcts["p50"] * 1e3,
        "sync_p99_ms": sync_pcts["p99"] * 1e3,
        "telemetry_request_p99_ms": {
            family: p99 * 1e3 for family, p99 in telemetry_p99.items()
        },
        "wire_requests": wire_count,
        "wire_throughput_rps": wire_count / wire_elapsed,
        "hit_rate": hit_rate,
        "peak_active": front_stats["peak_active"],
        "peak_queued": front_stats["peak_queued"],
        "front_stats": front_stats,
    }
    out = table(
        ["path", "requests", "req/s", "p50 ms", "p99 ms", "inflight"],
        rows,
    )
    return "E19 - Asyncio front door under Zipf-skewed traffic", out, findings


def bench_e19_async_replay_quick(benchmark):
    population = _population(QUICK_POPULATION)
    stream = _zipf_stream(
        len(population), QUICK_REQUESTS, random.Random(STREAM_SEED)
    )

    def replay():
        async def run():
            front = AsyncSchedulingService(
                capacity=len(population), workers=2, max_inflight=MAX_INFLIGHT
            )
            results = await asyncio.gather(
                *(front.solve(population[i]) for i in stream)
            )
            await front.drain()
            return front, results

        return asyncio.run(run())[0]

    front = benchmark(replay)
    assert front.stats["service"]["cache"]["hits"] > 0


if __name__ == "__main__":
    quick, json_path = parse_bench_args(sys.argv[1:], Path(sys.argv[0]).name)
    title, out, findings = run_experiment(quick=quick)
    print(title, "\n", out, sep="")
    print(
        f"stream: {findings['requests']} requests over "
        f"{findings['population']} distinct (zipf s={findings['zipf_s']}), "
        f"hit rate {findings['hit_rate']:.2f}, "
        f"async {findings['async_throughput_rps']:.0f} req/s "
        f"({findings['async_vs_sync']:.2f}x sync), "
        f"p50 {findings['async_p50_ms']:.2f}ms p99 {findings['async_p99_ms']:.1f}ms, "
        f"peak inflight {findings['peak_active']}/{findings['max_inflight']} "
        f"(queued {findings['peak_queued']}), "
        f"wire {findings['wire_throughput_rps']:.0f} req/s over "
        f"{findings['wire_requests']} pipelined"
    )
    emit_json(json_path, "e19", title, findings)
