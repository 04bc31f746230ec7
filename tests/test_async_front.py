"""The asyncio front door: solve/batch parity, backpressure, the
JSON-over-TCP endpoint, and graceful drain.

Event-loop plumbing must never change served bits: every result that
comes back through ``await``/the wire is digest-compared against a
direct :func:`solve_auto` call.  No ``pytest-asyncio`` dependency --
each test drives its own loop with ``asyncio.run``.
"""
import asyncio
import json
import threading

import pytest

from repro.algorithms import solve_auto
from repro.service import (
    AsyncSchedulingService,
    ServiceError,
    SolveRequest,
    pools,
    report_semantic_digest,
)
from repro.workloads import build_workload

KNOBS = dict(engine="incremental", mis="greedy", epsilon=0.25)


def request(name="bursty-lines", size=14, seed=1):
    return SolveRequest.from_workload(name, size, seed=seed, **KNOBS)


def direct_digest(name="bursty-lines", size=14, seed=1):
    report = solve_auto(
        build_workload(name, size, seed=seed), **{**KNOBS, "seed": seed}
    )
    return report_semantic_digest(report)


class TestAsyncSolve:
    def test_solve_matches_direct_cold_and_cached(self):
        async def run():
            front = AsyncSchedulingService(capacity=8, workers=2)
            cold = await front.solve(request())
            warm = await front.solve(request())
            await front.drain()
            return cold, warm

        cold, warm = asyncio.run(run())
        expected = direct_digest()
        assert cold.status == "miss"
        assert warm.status == "hit"
        assert report_semantic_digest(cold.report) == expected
        assert report_semantic_digest(warm.report) == expected

    def test_solve_batch_coalesces_and_orders(self):
        async def run():
            front = AsyncSchedulingService(capacity=8, workers=2)
            reqs = [request(seed=1), request(seed=2), request(seed=1)]
            results = await front.solve_batch(reqs)
            stats = front.stats
            await front.drain()
            return reqs, results, stats

        reqs, results, stats = asyncio.run(run())
        assert [r.label for r in results] == [r.label for r in reqs]
        # Two distinct fingerprints -> exactly two solves; the third
        # entry coalesced or hit.
        assert stats["service"]["solves"] == 2
        assert report_semantic_digest(results[0].report) == report_semantic_digest(
            results[2].report
        )

    def test_solve_problem_uses_default_knobs(self):
        async def run():
            front = AsyncSchedulingService(capacity=4, workers=2)
            problem = build_workload("bursty-lines", 14, seed=1)
            result = await front.solve_problem(problem, label="adhoc")
            await front.drain()
            return result

        result = asyncio.run(run())
        assert result.label == "adhoc"
        assert result.profit > 0

    def test_failures_stay_attributable(self):
        async def run():
            front = AsyncSchedulingService(capacity=4, workers=2)
            from repro.service import SolveKnobs

            bad = SolveRequest(
                problem=build_workload("bursty-lines", 14, seed=1),
                knobs=SolveKnobs(engine="incremental", backend="process"),
                label="bad-combo",
            )
            with pytest.raises(ServiceError, match="bad-combo"):
                await front.solve(bad)
            await front.drain()

        asyncio.run(run())

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="not both"):
            AsyncSchedulingService(
                service=object(), capacity=4  # type: ignore[arg-type]
            )
        with pytest.raises(ValueError, match="max_inflight"):
            AsyncSchedulingService(max_inflight=0)


class TestBackpressure:
    def test_peak_inflight_respects_the_cap(self):
        cap = 2

        async def run():
            front = AsyncSchedulingService(
                capacity=16, workers=2, max_inflight=cap
            )
            reqs = [request(size=14 + i) for i in range(6)]  # all cold
            await asyncio.gather(*(front.solve(r) for r in reqs))
            stats = front.stats
            await front.drain()
            return stats

        stats = asyncio.run(run())
        assert 1 <= stats["peak_active"] <= cap
        assert stats["peak_queued"] >= 6 - cap, (
            "arrivals beyond the cap must be visible as queue depth"
        )
        assert stats["served"] == 6
        assert stats["queued"] == 0 and stats["active"] == 0

    def test_drained_front_rejects_new_requests(self):
        async def run():
            front = AsyncSchedulingService(capacity=4, workers=2)
            await front.solve(request())
            await front.drain()
            with pytest.raises(ServiceError, match="draining"):
                await front.solve(request(seed=9))
            return front.stats

        stats = asyncio.run(run())
        assert stats["rejected"] == 1


class TestWireProtocol:
    @staticmethod
    async def roundtrip(lines, *, front_kwargs=None):
        """Open a front door + client, send *lines*, return responses."""
        front = AsyncSchedulingService(
            capacity=16, workers=2, **(front_kwargs or {})
        )
        host, port = await front.serve()
        reader, writer = await asyncio.open_connection(host, port)
        for line in lines:
            payload = line if isinstance(line, bytes) else json.dumps(line).encode()
            writer.write(payload + b"\n")
        await writer.drain()
        responses = [
            json.loads(await reader.readline()) for _ in range(len(lines))
        ]
        writer.close()
        await writer.wait_closed()
        await front.drain()
        return front, responses

    def test_request_roundtrip_matches_direct_solve(self):
        wire = {
            "id": 5,
            "workload": "bursty-lines",
            "size": 14,
            "seed": 1,
            "knobs": KNOBS,
        }
        front, responses = asyncio.run(self.roundtrip([wire, wire]))
        assert all(r["ok"] and r["id"] == 5 for r in responses)
        # Pipelined duplicates coalesce: one solve ran; callers see the
        # shared miss, or a hit if they landed after resolution.
        assert front.stats["service"]["solves"] == 1
        assert {r["status"] for r in responses} <= {"miss", "hit"}
        expected = direct_digest()
        assert all(r["semantic_digest"] == expected for r in responses)
        assert all(r["label"] == "bursty-lines@14#1" for r in responses)

    def test_pipelined_ids_correlate_out_of_order_responses(self):
        lines = [
            {"id": i, "workload": "bursty-lines", "size": 14 + (i % 2),
             "seed": 1, "knobs": KNOBS}
            for i in range(6)
        ]
        front, responses = asyncio.run(self.roundtrip(lines))
        assert sorted(r["id"] for r in responses) == list(range(6))
        assert all(r["ok"] for r in responses)

    def test_malformed_and_invalid_lines_answer_without_killing_conn(self):
        lines = [
            b"this is not json",
            {"id": 1, "op": "stats"},
            {"id": 2, "workload": "no-such-workload", "size": 8},
            {"id": 3, "size": 8},  # missing workload
            {"id": 4, "workload": "bursty-lines", "size": 14, "seed": 1,
             "knobs": {"bogus_knob": True}},
            {"id": 5, "workload": "bursty-lines", "size": 14, "seed": 1,
             "knobs": KNOBS},
            {"id": 6, "workload": "bursty-lines", "size": 14, "seed": 1,
             "knobs": {**KNOBS, "phase2_engine": "vectorized"}},
            {"id": 7, "workload": "bursty-lines", "size": 14, "seed": 1,
             "knobs": {**KNOBS, "engine": "parallel"}},
            {"id": 8, "workload": "bursty-lines", "size": 14, "seed": 1,
             "knobs": {**KNOBS, "workers": 2}},
            {"id": 9, "workload": "bursty-lines", "size": 14, "seed": 1,
             "knobs": {**KNOBS, "backend": "thread"}},
            {"id": 10, "workload": "bursty-lines", "size": 14, "seed": 1,
             "knobs": {**KNOBS, "plan_granularity": "epoch"}},
            # Knob seeds that would key like the integer seed 1.
            {"id": 11, "trajectory": "churn-lines", "size": 12, "seed": 1,
             "knobs": {**KNOBS, "seed": 1.5}},
            {"id": 12, "trajectory": "churn-lines", "size": 12, "seed": 1,
             "knobs": {**KNOBS, "mis": "hash", "seed": True}},
            # A knob seed overrides the solve seed of a workload request.
            {"id": 13, "workload": "bursty-lines", "size": 14, "seed": 1,
             "knobs": {**KNOBS, "mis": "luby", "seed": 2}},
            # size, seed and step must be exact ints, never truncated.
            {"id": 14, "workload": "bursty-lines", "size": 8.9, "seed": 1},
            {"id": 15, "workload": "bursty-lines", "size": 8, "seed": True},
            {"id": 16, "workload": "bursty-lines", "size": 14, "seed": 1.0},
            {"id": 17, "trajectory": "churn-lines", "size": "12", "seed": 1},
            {"id": 18, "trajectory": "churn-lines", "size": 12, "seed": "1"},
            {"id": 19, "trajectory": "churn-lines", "size": 12, "seed": 1,
             "step": 1.7},
            {"id": 20, "trajectory": "churn-lines", "size": 12, "seed": 1,
             "step": True},
        ]
        front, responses = asyncio.run(self.roundtrip(lines))
        by_id = {r.get("id"): r for r in responses}
        assert not by_id[None]["ok"]  # unparseable line
        assert by_id[1]["ok"] and "service" in by_id[1]["stats"]
        assert not by_id[2]["ok"] and "no-such-workload" in by_id[2]["error"]
        assert not by_id[3]["ok"] and "workload" in by_id[3]["error"]
        assert not by_id[4]["ok"]
        assert by_id[5]["ok"], "a valid request after garbage must still serve"
        assert by_id[5]["semantic_digest"] == direct_digest()
        # Retired knobs and the deleted epoch executor's engine name are
        # rejected, never served from id 5's cache entry or solved; so
        # are seeds that are not exact ints.
        for rid, name in (
            (6, "phase2_engine"), (7, "unknown engine 'parallel'"),
            (8, "workers"), (9, "backend"), (10, "plan_granularity"),
            (11, "seed must be an int"), (12, "seed must be an int"),
            (14, "size must be an int"), (15, "seed must be an int"),
            (16, "seed must be an int"), (17, "size must be an int"),
            (18, "seed must be an int"), (19, "step must be an int"),
            (20, "step must be an int"),
        ):
            assert not by_id[rid]["ok"] and name in by_id[rid]["error"], rid
        luby = {
            seed: report_semantic_digest(solve_auto(
                build_workload("bursty-lines", 14, seed=1),
                **{**KNOBS, "mis": "luby", "seed": seed},
            ))
            for seed in (1, 2)
        }
        assert luby[1] != luby[2]
        assert by_id[13]["ok"] and by_id[13]["semantic_digest"] == luby[2]
        assert front.stats["service"]["solves"] == 2

    def test_oversized_line_answers_and_flushes_accepted_work(self):
        # A line past the stream limit breaks the line discipline, so
        # the connection ends -- but the already-pipelined valid
        # request must still get its response, and the offense gets an
        # ok:false answer instead of a silent hangup.
        from repro.service.async_front import WIRE_LINE_LIMIT

        async def run():
            front = AsyncSchedulingService(capacity=8, workers=2)
            host, port = await front.serve()
            reader, writer = await asyncio.open_connection(
                host, port, limit=WIRE_LINE_LIMIT
            )
            writer.write(json.dumps({
                "id": 1, "workload": "bursty-lines", "size": 14,
                "seed": 1, "knobs": KNOBS,
            }).encode() + b"\n")
            writer.write(b"x" * (WIRE_LINE_LIMIT + 1024) + b"\n")
            await writer.drain()
            responses = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                responses.append(json.loads(line))
            writer.close()
            await writer.wait_closed()
            await front.drain()
            return responses

        responses = asyncio.run(run())
        by_id = {r.get("id"): r for r in responses}
        assert by_id[1]["ok"], "accepted request must be answered"
        assert by_id[1]["semantic_digest"] == direct_digest()
        assert not by_id[None]["ok"] and "exceeds" in by_id[None]["error"]

    def test_serve_twice_rejected(self):
        async def run():
            front = AsyncSchedulingService(capacity=4, workers=2)
            await front.serve()
            with pytest.raises(RuntimeError, match="already"):
                await front.serve()
            await front.drain()

        asyncio.run(run())


class TestResponseDigest:
    """A memory-only cache admits results undigested: the wire digests
    an entry once, for its first response, on the admission pool and
    outside the service lock, and every later response peeks."""

    def test_wire_miss_then_two_hits_digest_once_off_loop_and_lock(self):
        calls = []

        async def run():
            front = AsyncSchedulingService(capacity=8, workers=2)
            service, loop_thread = front.service, threading.get_ident()
            real = service.cache.digest_fn

            def counted(report):
                # The service lock is not reentrant: held by this
                # thread, the acquire times out.
                free = service._lock.acquire(timeout=5)
                if free:
                    service._lock.release()
                calls.append((threading.get_ident() != loop_thread, free))
                return real(report)

            service.cache.digest_fn = counted
            host, port = await front.serve()
            reader, writer = await asyncio.open_connection(host, port)
            responses = []
            for i in range(3):  # sequential: a miss, then two hits
                line = {"id": i, "workload": "bursty-lines", "size": 14,
                        "seed": 1, "knobs": KNOBS}
                writer.write(json.dumps(line).encode() + b"\n")
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            await front.drain()
            return responses

        responses = asyncio.run(run())
        assert [r["status"] for r in responses] == ["miss", "hit", "hit"]
        assert all(r["semantic_digest"] == direct_digest() for r in responses)
        assert calls == [(True, True)]

    def test_an_evicted_entry_is_digested_from_the_served_report(self):
        async def run():
            front = AsyncSchedulingService(capacity=1, workers=2)
            first = await front.solve(request())
            await front.solve(request(seed=2))  # evicts the first entry
            evicted = front.service.peek_digest(first.fingerprint)
            digest = await front._response_digest(first)
            await front.drain()
            return evicted, digest

        evicted, digest = asyncio.run(run())
        assert evicted is None
        assert digest == direct_digest()


class TestStatsAndInvalidateWire:
    def test_stats_round_trips_a_future_non_serializable_counter(self):
        # The regression: one layer growing a non-JSON stat (an object,
        # an Enum, a numpy scalar) must degrade that value to its repr,
        # not flip the whole {"op": "stats"} answer to ok:false.  Real
        # socket, not a direct stats-property peek -- the bug lives in
        # the json.dumps on the wire path.
        async def run():
            front = AsyncSchedulingService(capacity=8, workers=2)
            front.service._delta_totals["future_stat"] = object()
            host, port = await front.serve()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps({"id": 1, "op": "stats"}).encode() + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await front.drain()
            return response

        response = asyncio.run(run())
        assert response["ok"], "stats must answer despite the bad counter"
        bogus = response["stats"]["service"]["delta_totals"]["future_stat"]
        assert isinstance(bogus, str) and "object" in bogus
        assert response["stats"]["service"]["requests"] == 0

    def test_invalidate_op_sweeps_and_validates(self):
        async def run():
            front = AsyncSchedulingService(capacity=8, workers=2)
            host, port = await front.serve()
            reader, writer = await asyncio.open_connection(host, port)
            lines = [
                {"id": 1, "workload": "bursty-lines", "size": 14, "seed": 1,
                 "knobs": KNOBS},
                {"id": 2, "op": "invalidate", "epoch_below": 1},
                {"id": 3, "workload": "bursty-lines", "size": 14, "seed": 1,
                 "knobs": KNOBS},
                {"id": 4, "op": "invalidate"},  # missing epoch_below
            ]
            responses = []
            for line in lines:  # sequential: order matters here
                writer.write(json.dumps(line).encode() + b"\n")
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            await front.drain()
            return {r["id"]: r for r in responses}

        by_id = asyncio.run(run())
        assert by_id[1]["ok"] and by_id[1]["status"] == "miss"
        assert by_id[2]["ok"] and by_id[2]["dropped"] >= 1
        assert by_id[3]["ok"] and by_id[3]["status"] == "miss", (
            "a swept entry must re-solve, not serve stale"
        )
        assert not by_id[4]["ok"] and "epoch_below" in by_id[4]["error"]

    def test_invalidate_rejects_an_epoch_below_that_is_not_an_int(self):
        # Entries at capacity epochs 1-3.  Coerced with int(), 2.7 and
        # "2" would drop the epoch-1 entry and true would read as 1.
        def solve(i, epoch):
            return {"id": i, "workload": "bursty-lines", "size": 14,
                    "seed": 1, "knobs": {**KNOBS, "capacity_epoch": epoch}}

        async def run():
            front = AsyncSchedulingService(capacity=8, workers=2)
            host, port = await front.serve()
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(message):
                writer.write(json.dumps(message).encode() + b"\n")
                await writer.drain()
                return json.loads(await reader.readline())

            seeded = [await rpc(solve(e, e)) for e in (1, 2, 3)]
            rejected = [
                await rpc({"id": 10 + i, "op": "invalidate", "epoch_below": v})
                for i, v in enumerate((2.7, True, "2"))
            ]
            kept = [await rpc(solve(20 + e, e)) for e in (1, 2, 3)]
            swept = await rpc({"id": 30, "op": "invalidate", "epoch_below": 2})
            after = [await rpc(solve(40 + e, e)) for e in (1, 2, 3)]
            writer.close()
            await writer.wait_closed()
            await front.drain()
            return seeded, rejected, kept, swept, after

        seeded, rejected, kept, swept, after = asyncio.run(run())
        assert [r["status"] for r in seeded] == ["miss"] * 3
        for r in rejected:
            assert not r["ok"] and "epoch_below must be an int" in r["error"]
        assert [r["status"] for r in kept] == ["hit"] * 3, (
            "a rejected invalidate must drop nothing"
        )
        assert swept["ok"] and swept["dropped"] == 1
        assert [r["status"] for r in after] == ["miss", "hit", "hit"]


class TestDeltaPushWire:
    def test_subscription_pushes_full_then_delta(self):
        from repro.service import ScheduleFollower, schedule_table, table_digest
        from repro.workloads import build_trajectory

        steps = build_trajectory("churn-lines", 16, seed=3, steps=2)

        async def run():
            front = AsyncSchedulingService(capacity=8, workers=2)
            host, port = await front.serve()
            reader, writer = await asyncio.open_connection(host, port)
            responses = []
            for k in range(2):
                writer.write(json.dumps({
                    "id": k, "trajectory": "churn-lines", "size": 16,
                    "seed": 3, "step": k, "knobs": KNOBS,
                    "sub": "watch", "table": bool(k),
                }).encode() + b"\n")
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            await front.drain()
            return responses

        responses = asyncio.run(run())
        assert all(r["ok"] for r in responses)
        assert responses[0]["push"]["mode"] == "full"
        assert "table" not in responses[0], "table rides only on request"
        assert responses[1]["push"]["mode"] == "delta"
        follower = ScheduleFollower()
        for k, r in enumerate(responses):
            table = follower.apply(r["push"])
            direct = solve_auto(steps[k].problem, **{**KNOBS, "seed": 3})
            assert table_digest(table) == table_digest(schedule_table(direct))
        # table: true on the second request: explicit table + digest,
        # consistent with the push chain.
        assert responses[1]["table_digest"] == table_digest(follower.table)

    def test_trajectory_requests_validate(self):
        async def run():
            front = AsyncSchedulingService(capacity=4, workers=2)
            host, port = await front.serve()
            reader, writer = await asyncio.open_connection(host, port)
            lines = [
                {"id": 1, "trajectory": "churn-lines",
                 "workload": "bursty-lines", "size": 14},
                {"id": 2, "trajectory": "churn-lines", "size": 14,
                 "step": -1},
                {"id": 3, "workload": "bursty-lines", "size": 14, "seed": 1,
                 "sub": 7, "knobs": KNOBS},
            ]
            for line in lines:
                writer.write(json.dumps(line).encode() + b"\n")
            await writer.drain()
            responses = [
                json.loads(await reader.readline()) for _ in lines
            ]
            writer.close()
            await writer.wait_closed()
            await front.drain()
            return {r["id"]: r for r in responses}

        by_id = asyncio.run(run())
        assert not by_id[1]["ok"] and "not both" in by_id[1]["error"]
        assert not by_id[2]["ok"] and "step" in by_id[2]["error"]
        assert not by_id[3]["ok"] and "sub" in by_id[3]["error"]


class TestRoutedWireRobustness:
    """The front door's garbage/oversize/sever guarantees, re-checked
    through the shard router: a hostile or dying client must leave both
    the router and the shard behind it healthy."""

    @pytest.fixture(scope="class")
    def cluster(self):
        from repro.service import ShardCluster

        with ShardCluster(shards=1, capacity=16, workers=2) as c:
            yield c

    @staticmethod
    async def healthy_roundtrip(reader, writer):
        writer.write(json.dumps({
            "id": 77, "workload": "bursty-lines", "size": 14, "seed": 1,
            "knobs": KNOBS,
        }).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    def test_oversized_line_answers_and_router_survives(self, cluster):
        from repro.service import ShardRouter
        from repro.service.async_front import WIRE_LINE_LIMIT

        async def run():
            router = ShardRouter(cluster.addresses)
            host, port = await router.serve()
            reader, writer = await asyncio.open_connection(
                host, port, limit=WIRE_LINE_LIMIT
            )
            writer.write(json.dumps({
                "id": 1, "workload": "bursty-lines", "size": 14, "seed": 1,
                "knobs": KNOBS,
            }).encode() + b"\n")
            writer.write(b"x" * (WIRE_LINE_LIMIT + 1024) + b"\n")
            await writer.drain()
            responses = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                responses.append(json.loads(line))
            writer.close()
            await writer.wait_closed()
            # The offending connection is gone; a fresh one must serve.
            reader2, writer2 = await asyncio.open_connection(host, port)
            followup = await self.healthy_roundtrip(reader2, writer2)
            writer2.close()
            await writer2.wait_closed()
            await router.aclose()
            return responses, followup

        responses, followup = asyncio.run(run())
        by_id = {r.get("id"): r for r in responses}
        assert by_id[1]["ok"], "the pipelined request must be answered"
        assert not by_id[None]["ok"] and "exceeds" in by_id[None]["error"]
        assert followup["ok"] and followup["semantic_digest"] == direct_digest()

    def test_sever_mid_forward_leaves_router_and_shard_healthy(self, cluster):
        from repro.service import ShardRouter

        async def run():
            router = ShardRouter(cluster.addresses)
            host, port = await router.serve()
            # Fire a cold request and slam the connection before the
            # shard can answer: the router's relay must hit its
            # closing-transport guard, not crash or poison the link.
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps({
                "id": 1, "workload": "bursty-lines", "size": 15, "seed": 4,
                "knobs": KNOBS,
            }).encode() + b"\n")
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            reader2, writer2 = await asyncio.open_connection(host, port)
            followup = await self.healthy_roundtrip(reader2, writer2)
            stats = None
            writer2.write(json.dumps({"id": 9, "op": "stats"}).encode() + b"\n")
            await writer2.drain()
            stats = json.loads(await reader2.readline())
            writer2.close()
            await writer2.wait_closed()
            await router.aclose()
            return followup, stats

        followup, stats = asyncio.run(run())
        assert followup["ok"] and followup["semantic_digest"] == direct_digest()
        assert stats["ok"] and stats["stats"]["router"]["shards_dead"] == [], (
            "a severed client must never mark the shard dead"
        )

    def test_garbage_lines_through_router(self, cluster):
        from repro.service import ShardRouter

        async def run():
            router = ShardRouter(cluster.addresses)
            host, port = await router.serve()
            reader, writer = await asyncio.open_connection(host, port)
            lines = [
                b"not json at all",
                json.dumps({"id": 1, "op": "bogus"}).encode(),
                json.dumps({"id": 2, "workload": "no-such", "size": 8}).encode(),
                json.dumps({
                    "id": 3, "workload": "bursty-lines", "size": 14,
                    "seed": 1, "knobs": KNOBS,
                }).encode(),
            ]
            for line in lines:
                writer.write(line + b"\n")
            await writer.drain()
            responses = [
                json.loads(await reader.readline()) for _ in lines
            ]
            writer.close()
            await writer.wait_closed()
            await router.aclose()
            return {r.get("id"): r for r in responses}

        by_id = asyncio.run(run())
        assert not by_id[None]["ok"]
        assert not by_id[1]["ok"] and "bogus" in by_id[1]["error"]
        assert not by_id[2]["ok"] and "no-such" in by_id[2]["error"]
        assert by_id[3]["ok"], "a valid request after garbage must serve"
        assert by_id[3]["semantic_digest"] == direct_digest()


class TestGracefulDrain:
    def test_aclose_leaves_zero_live_executors(self):
        async def run():
            async with AsyncSchedulingService(capacity=8, workers=2) as front:
                host, port = await front.serve()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(json.dumps({
                    "id": 0, "workload": "bursty-lines", "size": 14,
                    "seed": 1, "knobs": KNOBS,
                }).encode() + b"\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"]
                writer.close()
                await writer.wait_closed()
            # __aexit__ ran aclose(): drained + pools torn down.

        asyncio.run(run())
        assert not pools._SERVICE_POOLS
        assert not any(
            t.name.startswith(("repro-service", "repro-admission"))
            for t in threading.enumerate()
        ), "a closed front door must leave no live pool threads"

    def test_inflight_requests_resolve_through_drain(self):
        async def run():
            front = AsyncSchedulingService(capacity=8, workers=2)
            # Launch cold work, then drain while it is in flight: the
            # drain must wait for resolution, not cancel it.
            tasks = [
                asyncio.ensure_future(front.solve(request(size=14 + i)))
                for i in range(3)
            ]
            await asyncio.sleep(0)  # let the tasks reach admission
            await front.drain()
            results = [await t for t in tasks]
            assert all(r.report.profit >= 0 for r in results)
            return front.stats

        stats = asyncio.run(run())
        assert stats["served"] == 3
        assert stats["draining"]

    def test_drain_is_idempotent(self):
        async def run():
            front = AsyncSchedulingService(capacity=4, workers=2)
            await front.solve(request())
            await front.drain()
            await front.drain()
            await front.aclose()

        asyncio.run(run())
