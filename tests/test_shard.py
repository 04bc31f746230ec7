"""The sharded service tier: ring, router, failover, fan-out, egress.

The contract under test: routing through N shards is invisible in the
served bits -- every response digest equals a direct
:func:`solve_auto` -- while identical requests always land on the same
shard (consistent hashing on the solve fingerprint), ``stats`` and
``invalidate`` fan out across the cluster, a SIGKILLed shard only
re-homes the keys it owned (and the retried requests still serve
bit-identical results), and a ``"sub"``-scribed client tracks the
schedule through delta pushes that digest-verify on both ends.

No ``pytest-asyncio``: each test drives its own loop with
``asyncio.run``; the shard cluster itself is process-based and shared
module-wide to amortize the forks.
"""
import asyncio
import json

import pytest

from repro.algorithms import solve_auto
from repro.service import (
    HashRing,
    ScheduleFollower,
    ShardCluster,
    ShardRouter,
    ShardUnavailable,
    report_semantic_digest,
    schedule_table,
    table_digest,
)
from repro.workloads import build_trajectory, build_workload

KNOBS = dict(engine="incremental", mis="greedy", epsilon=0.25)


def wire(name="bursty-lines", size=14, seed=1, **extra):
    return {"workload": name, "size": size, "seed": seed,
            "knobs": KNOBS, **extra}


def direct_digest(name="bursty-lines", size=14, seed=1):
    report = solve_auto(
        build_workload(name, size, seed=seed), **{**KNOBS, "seed": seed}
    )
    return report_semantic_digest(report)


class TestHashRing:
    def test_deterministic_and_total(self):
        a = HashRing(["s0", "s1", "s2"])
        b = HashRing(["s0", "s1", "s2"])
        keys = [f"key-{i}" for i in range(200)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]
        assert set(a.owner(k) for k in keys) == {"s0", "s1", "s2"}, (
            "200 keys over 3 shards must touch every shard"
        )

    def test_removal_moves_only_the_dead_shards_keys(self):
        ring = HashRing(["s0", "s1", "s2", "s3"])
        keys = [f"key-{i}" for i in range(300)]
        before = {k: ring.owner(k) for k in keys}
        ring.remove("s2")
        for k in keys:
            if before[k] != "s2":
                assert ring.owner(k) == before[k], (
                    "a surviving shard's keys must not re-home"
                )
            else:
                assert ring.owner(k) != "s2"

    def test_empty_ring_raises(self):
        ring = HashRing(["s0"])
        ring.remove("s0")
        with pytest.raises(ShardUnavailable, match="empty"):
            ring.owner("k")

    def test_validation(self):
        with pytest.raises(ValueError, match="already"):
            HashRing(["s0", "s0"])
        ring = HashRing(["s0"])
        ring.remove("ghost")  # absent removal is a no-op
        assert len(ring) == 1


@pytest.fixture(scope="module")
def cluster():
    with ShardCluster(shards=2, capacity=32, workers=2) as c:
        yield c


async def rpc(reader, writer, message: dict) -> dict:
    writer.write(json.dumps(message).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


async def with_router(cluster, body):
    """Run *body(reader, writer)* against a fresh router over *cluster*."""
    router = ShardRouter(cluster.addresses)
    host, port = await router.serve()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await body(reader, writer)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
        await router.aclose()


class TestRoutedServing:
    def test_routed_digests_match_direct_and_replays_hit(self, cluster):
        async def body(reader, writer):
            first = await rpc(reader, writer, wire(id=1))
            again = await rpc(reader, writer, wire(id=2))
            other = await rpc(reader, writer, wire(seed=2, id=3))
            return first, again, other

        first, again, other = asyncio.run(with_router(cluster, body))
        assert first["ok"] and again["ok"] and other["ok"]
        assert first["semantic_digest"] == direct_digest()
        assert again["semantic_digest"] == direct_digest()
        assert again["status"] == "hit", (
            "identical requests route to the same shard, so the replay "
            "must find that shard's cache warm"
        )
        assert other["semantic_digest"] == direct_digest(seed=2)

    def test_stats_aggregates_across_shards(self, cluster):
        async def body(reader, writer):
            for i in range(4):
                await rpc(reader, writer, wire(size=14 + i, id=i))
            return await rpc(reader, writer, {"op": "stats", "id": 99})

        response = asyncio.run(with_router(cluster, body))
        assert response["ok"] and response["id"] == 99
        stats = response["stats"]
        assert stats["router"]["routed"] >= 4
        assert len(stats["shards"]) == 2
        per_shard = sum(s["service"]["requests"] for s in stats["shards"])
        assert stats["aggregate"]["service"]["requests"] == per_shard
        assert "delta_totals" in stats["aggregate"]["service"]

    def test_invalidate_fans_out_and_recolds_every_shard(self, cluster):
        async def body(reader, writer):
            # Spread keys across both shards, then sweep generation 0.
            for i in range(4):
                await rpc(reader, writer, wire(size=20 + i, id=i))
            swept = await rpc(
                reader, writer,
                {"op": "invalidate", "epoch_below": 1, "id": 5},
            )
            after = await rpc(reader, writer, wire(size=20, id=6))
            return swept, after

        swept, after = asyncio.run(with_router(cluster, body))
        assert swept["ok"] and swept["dropped"] >= 4, (
            "the broadcast must sum drops over every shard"
        )
        assert after["ok"] and after["status"] == "miss", (
            "a swept entry must re-solve, not serve stale"
        )

    def test_invalidate_rejects_an_epoch_below_that_is_not_an_int(
        self, cluster
    ):
        # The router checks before fanning out: coerced with int(), each
        # of these would reach the shards and drop generation 1 there.
        def solve(i, epoch):
            return wire(size=15, id=i,
                        knobs={**KNOBS, "capacity_epoch": epoch})

        def invalidate(i, below):
            return {"op": "invalidate", "epoch_below": below, "id": i}

        async def body(reader, writer):
            async def send(message):
                return await rpc(reader, writer, message)

            seeded = [await send(solve(e, e)) for e in (1, 2)]
            rejected = [
                await send(invalidate(10 + i, v))
                for i, v in enumerate((2.7, True, "2"))
            ]
            kept = [await send(solve(20 + e, e)) for e in (1, 2)]
            swept = await send(invalidate(30, 2))
            after = [await send(solve(40 + e, e)) for e in (1, 2)]
            return seeded, rejected, kept, swept, after

        seeded, rejected, kept, swept, after = asyncio.run(
            with_router(cluster, body)
        )
        assert [r["status"] for r in seeded] == ["miss", "miss"]
        for r in rejected:
            assert not r["ok"] and "epoch_below must be an int" in r["error"]
        assert [r["status"] for r in kept] == ["hit", "hit"], (
            "a rejected invalidate must reach no shard"
        )
        assert swept["ok"] and swept["dropped"] >= 1
        assert [r["status"] for r in after] == ["miss", "hit"]

    def test_subscription_tracks_schedule_through_deltas(self, cluster):
        steps = build_trajectory("churn-lines", 16, seed=3, steps=3)

        async def body(reader, writer):
            responses = []
            for k in range(3):
                responses.append(await rpc(reader, writer, {
                    "trajectory": "churn-lines", "size": 16, "seed": 3,
                    "step": k, "knobs": KNOBS, "sub": "watch", "id": k,
                }))
            return responses

        responses = asyncio.run(with_router(cluster, body))
        follower = ScheduleFollower()
        assert all(r["ok"] for r in responses)
        assert responses[0]["push"]["mode"] == "full"
        for k, r in enumerate(responses):
            table = follower.apply(r["push"])
            expected = solve_auto(
                steps[k].problem, **{**KNOBS, "seed": 3}
            )
            assert table_digest(table) == table_digest(
                schedule_table(expected)
            ), f"step {k}: follower table must match a direct solve"
        assert any(r["push"]["mode"] == "delta" for r in responses[1:]), (
            "churn steps share most cells, so some push must be a delta"
        )

    def test_full_sync_escape_hatch(self, cluster):
        async def body(reader, writer):
            first = await rpc(reader, writer, wire(sub="s", id=1))
            forced = await rpc(
                reader, writer, wire(sub="s", full_sync=True, id=2)
            )
            return first, forced

        first, forced = asyncio.run(with_router(cluster, body))
        assert first["push"]["mode"] == "full"
        assert forced["push"]["mode"] == "full", (
            "full_sync: true must override the delta path"
        )
        assert "table" not in first, (
            "the routed table rides the push payload unless the client "
            "asked for it with table: true"
        )


class TestShardDeath:
    def test_kill_rehomes_only_owned_keys_with_identical_digests(self):
        sizes = range(14, 19)

        async def run():
            with ShardCluster(shards=3, capacity=32, workers=2) as cluster:
                router = ShardRouter(cluster.addresses)
                host, port = await router.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    before = {}
                    for i, size in enumerate(sizes):
                        before[size] = await rpc(
                            reader, writer, wire(size=size, id=i)
                        )
                    cluster.kill(0)
                    after = {}
                    for i, size in enumerate(sizes):
                        after[size] = await rpc(
                            reader, writer, wire(size=size, id=100 + i)
                        )
                    stats = await rpc(
                        reader, writer, {"op": "stats", "id": 999}
                    )
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except Exception:
                        pass
                    await router.aclose()
                return before, after, stats

        before, after, stats = asyncio.run(run())
        assert all(r["ok"] for r in before.values())
        for size in sizes:
            assert after[size]["ok"], f"size {size} must survive the kill"
            assert (
                after[size]["semantic_digest"]
                == before[size]["semantic_digest"]
            ), "a re-homed key must serve the bit-identical artifact"
        assert stats["stats"]["router"]["shards_dead"] == ["shard-0"]
        assert len(stats["stats"]["shards"]) == 2
        # Keys owned by survivors stayed warm: at least one post-kill
        # replay is a hit, and re-homed keys re-solved as misses.
        statuses = {after[s]["status"] for s in sizes}
        assert "hit" in statuses


class TestReprobe:
    def test_restarted_shard_rejoins_without_router_restart(self):
        sizes = range(14, 18)

        async def run():
            with ShardCluster(shards=2, capacity=32, workers=2) as cluster:
                router = ShardRouter(cluster.addresses)
                host, port = await router.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    before = {}
                    for i, size in enumerate(sizes):
                        before[size] = await rpc(
                            reader, writer, wire(size=size, id=i)
                        )
                    cluster.kill(0)
                    # Traffic against the dead shard makes the router
                    # notice and remove it from the ring.
                    for i, size in enumerate(sizes):
                        await rpc(reader, writer, wire(size=size, id=50 + i))
                    mid = await rpc(reader, writer, {"op": "stats", "id": 98})
                    cluster.restart(0)
                    probe = await rpc(
                        reader, writer, {"op": "reprobe", "id": 99}
                    )
                    after_stats = await rpc(
                        reader, writer, {"op": "stats", "id": 100}
                    )
                    served = {}
                    for i, size in enumerate(sizes):
                        served[size] = await rpc(
                            reader, writer, wire(size=size, id=200 + i)
                        )
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except Exception:
                        pass
                    await router.aclose()
                return before, mid, probe, after_stats, served

        before, mid, probe, after_stats, served = asyncio.run(run())
        assert mid["stats"]["router"]["shards_dead"] == ["shard-0"]
        assert probe["ok"] and probe["rejoined"] == ["shard-0"], (
            "a restarted shard at its old address must rejoin on reprobe"
        )
        router_stats = after_stats["stats"]["router"]
        assert router_stats["shards_dead"] == []
        assert router_stats["shards_live"] == 2
        assert router_stats["ring_rejoins"] == 1
        assert len(after_stats["stats"]["shards"]) == 2
        for size in sizes:
            assert served[size]["ok"]
            assert (
                served[size]["semantic_digest"]
                == before[size]["semantic_digest"]
            ), "a rejoined shard must serve the bit-identical artifact"

    def test_periodic_reprobe_task_rejoins_automatically(self):
        async def run():
            with ShardCluster(shards=2, capacity=32, workers=2) as cluster:
                router = ShardRouter(
                    cluster.addresses, reprobe_interval=0.05
                )
                host, port = await router.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    for i, size in enumerate(range(14, 18)):
                        await rpc(reader, writer, wire(size=size, id=i))
                    cluster.kill(0)
                    for i, size in enumerate(range(14, 18)):
                        await rpc(reader, writer, wire(size=size, id=50 + i))
                    cluster.restart(0)
                    # The periodic task should rejoin the shard without
                    # any explicit reprobe call; poll stats briefly.
                    for _ in range(100):
                        stats = await rpc(
                            reader, writer, {"op": "stats", "id": 99}
                        )
                        if not stats["stats"]["router"]["shards_dead"]:
                            return stats
                        await asyncio.sleep(0.05)
                    return stats
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except Exception:
                        pass
                    await router.aclose()

        stats = asyncio.run(run())
        router_stats = stats["stats"]["router"]
        assert router_stats["shards_dead"] == []
        assert router_stats["ring_rejoins"] == 1


class TestClusterMetrics:
    def test_metrics_op_merges_shard_histograms_bucket_wise(self):
        async def run():
            with ShardCluster(
                shards=2, capacity=32, workers=2, metrics=True
            ) as cluster:
                router = ShardRouter(cluster.addresses)
                host, port = await router.serve()
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    for i in range(12):
                        await rpc(reader, writer, wire(size=14 + i, id=i))
                    return await rpc(
                        reader, writer, {"op": "metrics", "id": 99}
                    )
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except Exception:
                        pass
                    await router.aclose()

        response = asyncio.run(run())
        assert response["ok"] and response["id"] == 99
        name = "repro_service_request_seconds"

        def request_count(snapshot):
            return sum(
                h["count"]
                for key, h in snapshot["histograms"].items()
                if key.startswith(name)
            )

        shards = response["shards"]
        assert len(shards) == 2
        per_shard = [request_count(s["metrics"]) for s in shards]
        assert sum(per_shard) >= 12
        assert all(c > 0 for c in per_shard), (
            "12 distinct keys over 2 shards must exercise both"
        )
        assert request_count(response["cluster"]) == sum(per_shard), (
            "the cluster view must be the bucket-wise sum of the shards"
        )
        assert f"# TYPE {name} histogram" in response["text"]
        assert response["router"]["shards_live"] == 2
