"""E22 -- the sharded service tier: scaling, failover, delta-push egress.

Claim reproduced: partitioning the serving tier across N shard worker
processes behind a consistent-hash router multiplies *cold-solve*
throughput (each shard owns a disjoint fingerprint range, so cold
misses solve in parallel across processes) without changing a served
bit, and the schedule-diff egress layer pushes O(changed cells) per
subscribed update instead of O(solution).

Three phases, all over real sockets:

* **Scaling** -- a Zipf-skewed replay (E18/E19's stream shape) drives a
  single-shard tier and a ``FLEET``-shard tier with identical traffic;
  cold-heavy population so the solver, not the socket, is the
  bottleneck.  Every response digest is checked against a direct
  :func:`repro.algorithms.solve_auto`.  The fleet tier runs with
  telemetry on and the router's ``{"op": "metrics"}`` cluster-merged
  view must account for exactly the replayed stream (merged request
  count == stream length == sum of per-shard counts, with a finite
  per-family p99 out of the bucket-wise-merged histograms).  The >= 2.5x four-shard speedup
  assert only arms in full mode on a box with >= 4 usable CPUs -- on
  fewer cores the shards time-slice one another and the ratio is
  reported, not asserted.
* **Shard kill** -- one shard is SIGKILLed mid-replay; the router
  removes it from the ring and re-homes only its keys.  The replay must
  complete and every post-kill digest must equal the pre-kill (and
  direct) digest -- bit-identical failover.
* **Egress** -- a subscribed client follows a churn trajectory through
  delta pushes; per step the delta payload must stay within
  ``400 + 120 * changed_cells`` bytes (O(delta), never O(table)), and a
  :class:`repro.service.ScheduleFollower` applies every push with its
  digest handshake, cross-checked against direct solves of each
  snapshot.

Every client reads with ``WIRE_LINE_LIMIT``: the fleet's merged
``{"op": "metrics"}`` reply is about 67 KB, past asyncio's default
64 KiB line limit.

``--quick`` shrinks populations for CI; ``--json OUT`` emits findings
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
from common import emit_json, histogram_percentiles, parse_bench_args, table

from repro.algorithms import solve_auto
from repro.service import (
    ScheduleFollower,
    ShardCluster,
    ShardRouter,
    SolveRequest,
    report_semantic_digest,
    schedule_table,
    table_digest,
)
from repro.service.async_front import WIRE_LINE_LIMIT
from repro.service.pools import usable_cpu_count
from repro.workloads import build_trajectory, build_workload

FLEET = 4
ZIPF_S = 1.2
STREAM_SEED = 22
KNOBS = dict(engine="incremental", mis="greedy", epsilon=0.25)
#: Cold-heavy population: many distinct labels, few repeats, so the
#: replay measures parallel solving, not cache bandwidth.
FULL_POPULATION = (
    ("multi-tenant-forest", 64, 10),
    ("diurnal-cycle", 48, 10),
    ("bursty-lines", 40, 10),
)
QUICK_POPULATION = (
    ("multi-tenant-forest", 32, 3),
    ("diurnal-cycle", 24, 3),
    ("bursty-lines", 16, 3),
)
FULL_REQUESTS = 60
QUICK_REQUESTS = 12
#: Egress phase: trajectory steps followed by the subscriber.
FULL_STEPS = 10
QUICK_STEPS = 4
TRAJECTORY = ("churn-lines", 24, 5)  # name, size, seed
#: Per-step delta budget: a fixed envelope plus a per-cell allowance
#: (a JSON cell is ~60-90 bytes; 120 leaves headroom).
DELTA_BYTES_BASE = 400
DELTA_BYTES_PER_CELL = 120
SCALING_TARGET = 2.5


def _population(plan):
    return [
        (name, size, seed)
        for name, size, n_seeds in plan
        for seed in range(n_seeds)
    ]


def _zipf_stream(n_population, n_requests, rng):
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(n_population)]
    ranks = list(range(n_population))
    rng.shuffle(ranks)
    return [ranks[i] for i in rng.choices(
        range(n_population), weights, k=n_requests
    )]


def _direct_digests(population):
    digests = {}
    for name, size, seed in population:
        report = solve_auto(
            build_workload(name, size, seed=seed), **{**KNOBS, "seed": seed}
        )
        digests[f"{name}@{size}#{seed}"] = report_semantic_digest(report)
    return digests


def _solve_msg(entry, req_id, **extra):
    name, size, seed = entry
    return {"id": req_id, "workload": name, "size": size, "seed": seed,
            "knobs": KNOBS, **extra}


async def _rpc(reader, writer, message):
    writer.write(json.dumps(message).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


async def _replay(addresses, population, stream, direct, collect_metrics=False):
    """Pipeline the whole stream through a router; verify every digest.

    With ``collect_metrics`` the replay finishes by asking the router
    for the cluster-merged telemetry view (``{"op": "metrics"}``) and
    returns it alongside the elapsed time.
    """
    router = ShardRouter(addresses)
    host, port = await router.serve()
    reader, writer = await asyncio.open_connection(
        host, port, limit=WIRE_LINE_LIMIT
    )
    t_start = time.perf_counter()
    for req_id, idx in enumerate(stream):
        writer.write(
            json.dumps(_solve_msg(population[idx], req_id)).encode() + b"\n"
        )
    await writer.drain()
    responses = {}
    while len(responses) < len(stream):
        line = await reader.readline()
        assert line, "connection closed before all responses arrived"
        response = json.loads(line)
        responses[response["id"]] = response
    elapsed = time.perf_counter() - t_start
    for req_id, idx in enumerate(stream):
        name, size, seed = population[idx]
        label = f"{name}@{size}#{seed}"
        response = responses[req_id]
        assert response["ok"], f"{label}: {response.get('error')}"
        assert response["semantic_digest"] == direct[label], (
            f"{label}: sharded response diverged from direct solve"
        )
    metrics = None
    if collect_metrics:
        metrics = await _rpc(reader, writer, {"op": "metrics", "id": -2})
        assert metrics["ok"], f"metrics op failed: {metrics.get('error')}"
    writer.close()
    await writer.wait_closed()
    await router.aclose()
    return elapsed, metrics


def _check_cluster_metrics(metrics, n_requests):
    """The router-merged telemetry must account for the whole replay.

    Bucket-wise merging across shards is exact (shared fixed bounds),
    so the cluster view's request count must equal the stream length
    -- equal to the sum of the per-shard counts -- and the merged
    request histogram must yield a finite p99.  Returns
    ``{"request_p99_ms": {family: ms}, "shard_requests": {...}}``.
    """

    def request_count(snapshot):
        return sum(
            h["count"]
            for key, h in snapshot.get("histograms", {}).items()
            if key.startswith("repro_service_request_seconds")
        )

    cluster = metrics["cluster"]
    shard_counts = {
        entry["shard"]: request_count(entry["metrics"])
        for entry in metrics["shards"]
    }
    total = request_count(cluster)
    assert total == n_requests, (
        f"cluster-merged request count {total} != {n_requests} served"
    )
    assert total == sum(shard_counts.values()), (
        f"merged count {total} != per-shard sum {shard_counts}"
    )
    p99 = {}
    for family in ("line", "tree"):
        pcts = histogram_percentiles(
            cluster, "repro_service_request_seconds", family=family
        )
        if not math.isnan(pcts["p99"]):
            p99[family] = pcts["p99"] * 1e3
    assert p99, "merged request histogram must yield a finite family p99"
    return {"request_p99_ms": p99, "shard_requests": shard_counts}


def _scaling_phase(quick, population, stream, direct):
    results = {}
    telemetry = None
    for shards in (1, FLEET):
        with ShardCluster(shards=shards, capacity=len(population),
                          workers=2, metrics=True) as cluster:
            elapsed, metrics = asyncio.run(
                _replay(cluster.addresses, population, stream, direct,
                        collect_metrics=shards == FLEET)
            )
            results[shards] = elapsed
            if metrics is not None:
                telemetry = _check_cluster_metrics(metrics, len(stream))
    ratio = results[1] / results[FLEET]
    if not quick and usable_cpu_count() >= FLEET:
        assert ratio >= SCALING_TARGET, (
            f"{FLEET}-shard replay must be >= {SCALING_TARGET}x a single "
            f"shard on a >= {FLEET}-CPU box, got {ratio:.2f}x"
        )
    return results, ratio, telemetry


async def _kill_phase(population, stream, direct):
    """SIGKILL one shard mid-replay; the stream must finish identically."""
    with ShardCluster(shards=FLEET, capacity=len(population),
                      workers=2) as cluster:
        router = ShardRouter(cluster.addresses)
        host, port = await router.serve()
        reader, writer = await asyncio.open_connection(
            host, port, limit=WIRE_LINE_LIMIT
        )
        half = max(1, len(stream) // 2)
        rerouted = 0
        try:
            for req_id, idx in enumerate(stream):
                if req_id == half:
                    cluster.kill(0)
                response = await _rpc(
                    reader, writer, _solve_msg(population[idx], req_id)
                )
                name, size, seed = population[idx]
                label = f"{name}@{size}#{seed}"
                assert response["ok"], (
                    f"{label} (req {req_id}): replay must survive the kill, "
                    f"got {response.get('error')}"
                )
                assert response["semantic_digest"] == direct[label], (
                    f"{label}: post-kill digest diverged"
                )
            stats = await _rpc(reader, writer, {"op": "stats", "id": -1})
            assert stats["stats"]["router"]["shards_dead"] == ["shard-0"]
            rerouted = stats["stats"]["router"]["reroutes"]
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            await router.aclose()
    return rerouted


async def _egress_phase(steps):
    """A subscriber follows a churn trajectory through delta pushes."""
    name, size, seed = TRAJECTORY
    trajectory = build_trajectory(name, size, seed=seed, steps=steps)
    follower = ScheduleFollower()
    per_step = []
    with ShardCluster(shards=2, capacity=64, workers=2) as cluster:
        router = ShardRouter(cluster.addresses)
        host, port = await router.serve()
        reader, writer = await asyncio.open_connection(
            host, port, limit=WIRE_LINE_LIMIT
        )
        try:
            for k in range(steps):
                response = await _rpc(reader, writer, {
                    "id": k, "trajectory": name, "size": size, "seed": seed,
                    "step": k, "knobs": KNOBS, "sub": "bench",
                })
                assert response["ok"], response.get("error")
                push = response["push"]
                push_bytes = len(json.dumps(push).encode())
                table_cells = follower.apply(push)  # digest-verified
                direct = solve_auto(
                    trajectory[k].problem, **{**KNOBS, "seed": seed}
                )
                assert table_digest(table_cells) == table_digest(
                    schedule_table(direct)
                ), f"step {k}: applied push diverged from direct solve"
                changed = (
                    len(push.get("added", [])) + len(push.get("removed", []))
                    if push["mode"] == "delta"
                    else len(push["table"])
                )
                if push["mode"] == "delta":
                    budget = DELTA_BYTES_BASE + DELTA_BYTES_PER_CELL * changed
                    assert push_bytes <= budget, (
                        f"step {k}: delta payload {push_bytes}B exceeds "
                        f"O(changed-cells) budget {budget}B "
                        f"({changed} cells changed)"
                    )
                per_step.append((push["mode"], changed, push_bytes,
                                 len(table_cells)))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
            await router.aclose()
    assert any(mode == "delta" for mode, _, _, _ in per_step[1:]), (
        "churn steps share most cells: some push must be a delta"
    )
    return per_step


def run_experiment(quick: bool = False):
    plan = QUICK_POPULATION if quick else FULL_POPULATION
    n_requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    steps = QUICK_STEPS if quick else FULL_STEPS
    population = _population(plan)
    rng = random.Random(STREAM_SEED)
    stream = _zipf_stream(len(population), n_requests, rng)
    direct = _direct_digests(population)

    elapsed, ratio, telemetry = _scaling_phase(quick, population, stream, direct)
    rerouted = asyncio.run(_kill_phase(population, stream, direct))
    per_step = asyncio.run(_egress_phase(steps))

    full_bytes = [b for m, _, b, _ in per_step if m == "full"]
    delta_rows = [(c, b, n) for m, c, b, n in per_step if m == "delta"]
    delta_bytes = [b for _, b, _ in delta_rows]
    rows = [
        ["1 shard", n_requests, f"{n_requests / elapsed[1]:.1f}", "-"],
        [f"{FLEET} shards", n_requests,
         f"{n_requests / elapsed[FLEET]:.1f}", f"{ratio:.2f}x"],
    ]
    findings = {
        "quick": quick,
        "fleet": FLEET,
        "usable_cpus": usable_cpu_count(),
        "population": len(population),
        "requests": n_requests,
        "zipf_s": ZIPF_S,
        "single_shard_s": elapsed[1],
        "fleet_s": elapsed[FLEET],
        "speedup": ratio,
        "scaling_asserted": (not quick) and usable_cpu_count() >= FLEET,
        "scaling_target": SCALING_TARGET,
        "telemetry": telemetry,
        "kill_reroutes": rerouted,
        "egress_steps": len(per_step),
        "egress_full_syncs": len(full_bytes),
        "egress_delta_pushes": len(delta_rows),
        "egress_full_bytes_mean": (
            sum(full_bytes) / len(full_bytes) if full_bytes else 0
        ),
        "egress_delta_bytes_mean": (
            sum(delta_bytes) / len(delta_bytes) if delta_bytes else 0
        ),
        "egress_delta_cells_mean": (
            sum(c for c, _, _ in delta_rows) / len(delta_rows)
            if delta_rows else 0
        ),
        "delta_bytes_budget": (
            f"{DELTA_BYTES_BASE} + {DELTA_BYTES_PER_CELL} * cells"
        ),
        "per_step": [
            {"mode": m, "changed": c, "bytes": b, "table_cells": n}
            for m, c, b, n in per_step
        ],
    }
    out = table(["tier", "requests", "req/s", "speedup"], rows)
    return "E22 - Sharded tier: scaling, failover, delta-push egress", out, findings


if __name__ == "__main__":
    quick, json_path = parse_bench_args(sys.argv[1:], Path(sys.argv[0]).name)
    title, out, findings = run_experiment(quick=quick)
    print(title, "\n", out, sep="")
    gate = "asserted" if findings["scaling_asserted"] else "reported only"
    p99s = ", ".join(
        f"{fam} {ms:.1f}ms"
        for fam, ms in sorted(findings["telemetry"]["request_p99_ms"].items())
    )
    print(
        f"{findings['fleet']}-shard speedup {findings['speedup']:.2f}x "
        f"({gate}, {findings['usable_cpus']} usable CPUs); "
        f"cluster-merged request p99 {p99s}; "
        f"shard-kill survived with bit-identical digests "
        f"({findings['kill_reroutes']} ring removals); "
        f"egress: {findings['egress_delta_pushes']} delta pushes avg "
        f"{findings['egress_delta_bytes_mean']:.0f}B "
        f"({findings['egress_delta_cells_mean']:.1f} cells) vs "
        f"{findings['egress_full_syncs']} full syncs avg "
        f"{findings['egress_full_bytes_mean']:.0f}B"
    )
    emit_json(json_path, "e22", title, findings)
