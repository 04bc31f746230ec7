"""Sharded service tier: N shard workers behind one wire-compatible router.

One :class:`~repro.service.async_front.AsyncSchedulingService` saturates
at one process's worth of solver throughput.  This module horizontally
partitions the serving tier without changing a byte of the wire
protocol: :class:`ShardCluster` forks N worker processes, each running
the full async front door over its own :class:`SchedulingService`, and
:class:`ShardRouter` is a :class:`~repro.service.async_front.LineServer`
like the front door, so it keeps the same wire rules, and routes every
solve to the shard that *owns* the request's solve fingerprint.

**Ownership = consistent hashing on the fingerprint digest.**  The
router computes each request's real
:func:`~repro.service.fingerprint.solve_fingerprint` (the same digest
the shards key their caches on) and maps it onto a sha256
:class:`HashRing` with :data:`VNODES` virtual nodes per shard.
Identical requests therefore always land on the same shard --
coalescing, caching, and delta-solve ancestry all keep working per
shard -- and when a shard dies only the keys it owned move (to the ring
neighbors), everyone else's cache stays warm.  Routing is deterministic
in the shard set, so a restarted router over the same shards routes
identically.

**Shared disk tier.**  Shards may share one ``disk_dir``: the
:class:`~repro.service.cache.ResultCache` disk tier is append-mostly
and digest-verified on read, and shards own disjoint fingerprints by
construction, so a key re-homed by a shard death finds its disk entry
already present on the new owner -- a warm handoff, not a re-solve.

**Fan-out ops.**  ``{"op": "invalidate", "epoch_below": E}`` broadcasts
to every live shard and sums the dropped counts; ``{"op": "stats"}``
returns per-shard stats plus a recursive numeric aggregate (so
``aggregate.service.delta_totals`` reads like a single service's), and
the router's own routing counters.

**Delta-push egress.**  The router owns the client connections, so the
:class:`~repro.service.diff.SchedulePusher` state lives here: a
``"sub"``-scribed request is forwarded with ``"table": true``, the
schedule table is stripped from the shard's reply, and the client gets
only the add/remove cells relative to the last table pushed on *this*
connection (digest-verified, full-sync escape hatch) -- shards stay
egress-stateless.

**Failure model.**  A dead shard (connect refused, link severed) is
removed from the ring and its in-flight requests are retried on the new
owner; the retried request is a cold miss there (or a disk hit, with a
shared tier) but returns the bit-identical artifact -- the acceptance
check of bench E22.  A severed *client* only loses its own replies;
the shards behind it stay live.
"""
from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import multiprocessing
import threading
from collections import OrderedDict
from itertools import count
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import default_registry, merge_snapshots, render_prometheus
from repro.service.async_front import (
    WIRE_LINE_LIMIT,
    AsyncSchedulingService,
    LineServer,
    jsonable,
    wire_epoch_below,
)

__all__ = [
    "HashRing",
    "ShardCluster",
    "ShardRouter",
    "ShardUnavailable",
]

#: Virtual nodes per shard on the hash ring.
VNODES = 64

#: How many request -> digest routing decisions a router memoizes (the
#: digest requires building the workload; replayed traffic skips that).
ROUTE_CACHE_SIZE = 2048


class ShardUnavailable(RuntimeError):
    """A shard link failed (connect refused, severed, or closed)."""


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------
class HashRing:
    """A sha256 consistent-hash ring with virtual nodes.

    Each shard id is hashed onto :data:`VNODES` points of a 64-bit ring;
    a key is owned by the first shard point at or clockwise-after the
    key's own point.  Removing a shard re-homes *only* the keys it
    owned (they fall to the next point on the ring); every other
    key->shard assignment is untouched -- the property that keeps N-1
    caches warm through a shard death.
    """

    def __init__(self, shard_ids: Sequence[str]) -> None:
        self._shards: List[str] = []
        self._points: List[int] = []
        self._owners: List[str] = []
        for sid in shard_ids:
            self.add(sid)

    @staticmethod
    def _point(label: str) -> int:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def _rebuild(self) -> None:
        pairs = sorted(
            (self._point(f"vnode/{sid}/{i}"), sid)
            for sid in self._shards
            for i in range(VNODES)
        )
        self._points = [p for p, _ in pairs]
        self._owners = [sid for _, sid in pairs]

    def add(self, shard_id: str) -> None:
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} already on the ring")
        self._shards.append(shard_id)
        self._rebuild()

    def remove(self, shard_id: str) -> None:
        if shard_id not in self._shards:
            return
        self._shards.remove(shard_id)
        self._rebuild()

    def owner(self, key: str) -> str:
        """The shard owning *key* (any string; fingerprints in practice)."""
        if not self._points:
            raise ShardUnavailable("hash ring is empty: no live shards")
        p = self._point(f"key/{key}")
        i = bisect.bisect_right(self._points, p) % len(self._points)
        return self._owners[i]

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        return tuple(self._shards)

    def __len__(self) -> int:
        return len(self._shards)


# ----------------------------------------------------------------------
# Shard worker processes
# ----------------------------------------------------------------------
def _shard_serve(conn, service_kwargs: dict, host: str, port: int = 0) -> None:
    """Body of one shard worker: serve until the parent says stop.

    ``port=0`` binds an ephemeral port (fresh starts);
    :meth:`ShardCluster.restart` passes a dead shard's *original* port
    so the worker comes back at the address the router already knows
    (``asyncio.start_server`` sets ``SO_REUSEADDR`` on POSIX, so the
    killed predecessor's lingering socket does not block the bind).
    """

    async def main() -> None:
        front = AsyncSchedulingService(**service_kwargs)
        bound = await front.serve(host=host, port=port)
        conn.send(bound)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def wait_for_stop() -> None:
            try:
                conn.recv()
            except EOFError:
                pass
            loop.call_soon_threadsafe(stop.set)

        threading.Thread(target=wait_for_stop, daemon=True).start()
        await stop.wait()
        await front.aclose()

    asyncio.run(main())


def _shard_worker_main(conn, service_kwargs: dict, host: str, port: int = 0) -> None:
    # Fresh fork: the pools register_at_fork hook already cleared the
    # inherited warm-pool registry, so this child builds its own
    # executors instead of deadlocking on the parent's dead threads.
    try:
        _shard_serve(conn, service_kwargs, host, port)
    except KeyboardInterrupt:
        pass


class ShardCluster:
    """N shard worker processes, each a full async front door.

    Workers are forked (``multiprocessing`` fork context -- the
    :mod:`repro.service.pools` ``register_at_fork`` hook makes the warm
    pools fork-safe), bind ephemeral ports, and report their
    addresses over a pipe.  ``service_kwargs`` go to every shard's
    :class:`AsyncSchedulingService` -- pass one shared ``disk_dir`` for
    the warm-handoff disk tier.

    Use as a context manager, or :meth:`start` / :meth:`stop`
    explicitly; :meth:`kill` SIGKILLs one shard to exercise the
    router's failover path.
    """

    def __init__(
        self,
        shards: int = 4,
        host: str = "127.0.0.1",
        start_timeout: float = 30.0,
        **service_kwargs,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.host = host
        self.shards = shards
        self.start_timeout = start_timeout
        self.service_kwargs = service_kwargs
        self._ctx = multiprocessing.get_context("fork")
        self._procs: List = []
        self._pipes: List = []
        self.addresses: List[Tuple[str, int]] = []

    def start(self) -> List[Tuple[str, int]]:
        """Fork every shard; returns their ``(host, port)`` addresses."""
        if self._procs:
            raise RuntimeError("cluster already started")
        for _ in range(self.shards):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_shard_worker_main,
                args=(child_conn, self.service_kwargs, self.host),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._pipes.append(parent_conn)
        for i, conn in enumerate(self._pipes):
            if not conn.poll(self.start_timeout):
                self.stop()
                raise RuntimeError(f"shard {i} did not report its address")
            self.addresses.append(tuple(conn.recv()))
        return list(self.addresses)

    def kill(self, index: int) -> None:
        """SIGKILL one shard -- the failure bench E22 injects."""
        proc = self._procs[index]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=10)

    def restart(self, index: int) -> Tuple[str, int]:
        """Re-fork one dead shard on its *original* address.

        The recovery half of :meth:`kill`: the replacement worker binds
        the same ``(host, port)`` the dead shard held, so a router that
        knew the old address can re-admit the shard via
        :meth:`ShardRouter.reprobe` without being reconstructed.  The
        replacement is a fresh process -- empty memory tier, but a
        shared ``disk_dir`` hands its old results straight back.
        """
        if not self.addresses:
            raise RuntimeError("cluster not started")
        if self._procs[index].is_alive():
            raise RuntimeError(
                f"shard {index} is still alive; kill() or stop() it first"
            )
        host, port = self.addresses[index]
        try:
            self._pipes[index].close()
        except OSError:
            pass
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, self.service_kwargs, host, port),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if not parent_conn.poll(self.start_timeout):
            raise RuntimeError(
                f"restarted shard {index} did not report its address"
            )
        bound = tuple(parent_conn.recv())
        self._procs[index] = proc
        self._pipes[index] = parent_conn
        self.addresses[index] = bound
        return bound

    def stop(self) -> None:
        """Graceful stop: signal every live worker, then reap."""
        for conn in self._pipes:
            try:
                conn.send("stop")
            except (OSError, BrokenPipeError):
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._pipes:
            try:
                conn.close()
            except OSError:
                pass
        self._procs.clear()
        self._pipes.clear()
        self.addresses.clear()

    def __enter__(self) -> "ShardCluster":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class _ShardLink:
    """One multiplexed connection to one shard.

    Many client requests share this link concurrently: outgoing wire
    ids are rewritten to an internal counter, responses resolve the
    matching future, and the caller's original ``id`` is restored by
    the router before relay.  Any transport failure fails every pending
    request with :class:`ShardUnavailable` and marks the link dead --
    the router's retry loop takes it from there.
    """

    def __init__(self, shard_id: str, host: str, port: int) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.dead = False
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._read_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._ids = count()
        self._lock = asyncio.Lock()

    async def _ensure_connected(self) -> None:
        if self._writer is not None:
            return
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port, limit=WIRE_LINE_LIMIT
            )
        except OSError as exc:
            self.dead = True
            raise ShardUnavailable(
                f"shard {self.shard_id} unreachable at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        self._read_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                payload = json.loads(line)
                fut = self._pending.pop(payload.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(payload)
        except Exception:
            pass
        finally:
            self._fail_all()

    def _fail_all(self) -> None:
        self.dead = True
        pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(
                    ShardUnavailable(f"shard {self.shard_id} link severed")
                )

    async def request(self, message: dict) -> dict:
        """Send one wire message; returns the shard's response payload."""
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        async with self._lock:
            if self.dead:
                raise ShardUnavailable(f"shard {self.shard_id} is dead")
            await self._ensure_connected()
            internal = next(self._ids)
            self._pending[internal] = fut
            wire = dict(message)
            wire["id"] = internal
            try:
                self._writer.write(json.dumps(wire).encode("utf-8") + b"\n")
                await self._writer.drain()
            except (OSError, ConnectionError) as exc:
                self._pending.pop(internal, None)
                self._fail_all()
                raise ShardUnavailable(
                    f"shard {self.shard_id} write failed: {exc}"
                ) from exc
        try:
            return await fut
        finally:
            self._pending.pop(internal, None)

    async def close(self) -> None:
        self.dead = True
        if self._read_task is not None:
            self._read_task.cancel()
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except Exception:
                pass
        self._fail_all()


def _merge_numeric(acc: dict, stats: dict) -> dict:
    """Recursively sum the numeric leaves of per-shard stats dicts."""
    for k, v in stats.items():
        if isinstance(v, bool):
            continue
        if isinstance(v, (int, float)):
            prev = acc.get(k, 0)
            acc[k] = (prev if isinstance(prev, (int, float)) else 0) + v
        elif isinstance(v, dict):
            sub = acc.setdefault(k, {})
            if isinstance(sub, dict):
                _merge_numeric(sub, v)
    return acc


class ShardRouter(LineServer):
    """The wire-compatible front of a shard cluster.

    A :class:`~repro.service.async_front.LineServer`, so it speaks the
    :class:`AsyncSchedulingService` protocol on the client side; on the
    shard side it keeps one multiplexed :class:`_ShardLink` per shard
    and routes each solve to the :class:`HashRing` owner of its
    solve-fingerprint digest.  See the module docstring for the
    routing, fan-out, failover and delta-push semantics.

    Parameters
    ----------
    addresses:
        The shard ``(host, port)`` list (what :meth:`ShardCluster.start`
        returns).  Shard ids are ``shard-<index>`` in address order, so
        routing is deterministic in the address list.
    reprobe_interval:
        Seconds between automatic :meth:`reprobe` sweeps over dead
        shards (the task starts with :meth:`serve`); ``None`` (the
        default) disables the periodic task -- :meth:`reprobe` and the
        ``{"op": "reprobe"}`` wire op still work on demand.
    """

    _thread_prefix = "repro-router"

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        *,
        reprobe_interval: Optional[float] = None,
    ) -> None:
        if reprobe_interval is not None and reprobe_interval <= 0:
            raise ValueError(
                f"reprobe_interval must be positive, got {reprobe_interval}"
            )
        if not addresses:
            raise ValueError("a router needs at least one shard address")
        super().__init__()
        self._links: Dict[str, _ShardLink] = {}
        for i, (host, port) in enumerate(addresses):
            sid = f"shard-{i}"
            self._links[sid] = _ShardLink(sid, host, port)
        self._ring = HashRing(list(self._links))
        self._route_cache: "OrderedDict[str, str]" = OrderedDict()
        # Routing counters for the stats surface.
        self._routed = 0
        self._route_hits = 0
        self._reroutes = 0
        self._rejoins = 0
        self._dead: Set[str] = set()
        self.reprobe_interval = reprobe_interval
        self._reprobe_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------
    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        bound = await super().serve(host, port)
        if self.reprobe_interval is not None:
            self._reprobe_task = asyncio.ensure_future(self._reprobe_loop())
        return bound

    async def aclose(self) -> None:
        """Stop listening, settle in-flight requests, close the links."""
        if self._reprobe_task is not None:
            self._reprobe_task.cancel()
            try:
                await self._reprobe_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reprobe_task = None
        await self._stop_listening()
        await self._close_connections()
        for link in self._links.values():
            await link.close()

    # -- dispatch ------------------------------------------------------
    async def _answer(self, message: dict, req_id) -> dict:
        op = message.get("op")
        if op == "stats":
            return {"ok": True, "id": req_id, "stats": await self._stats()}
        if op == "metrics":
            return {"ok": True, "id": req_id, **await self._metrics()}
        if op == "reprobe":
            return {"ok": True, "id": req_id, "rejoined": await self.reprobe()}
        if op == "invalidate":
            forward = {
                "op": "invalidate",
                "epoch_below": wire_epoch_below(message),
            }
            dropped = sum(
                int(response.get("dropped", 0))
                for _, response in await self._fan_out(forward)
            )
            return {"ok": True, "id": req_id, "dropped": dropped}
        if op not in (None, "solve", "solve_delta"):
            raise ValueError(f"unknown op {op!r}")
        return await self._route_solve(message, req_id)

    async def _route_solve(self, message: dict, req_id) -> dict:
        sub = message.get("sub")
        if sub is not None and not isinstance(sub, str):
            raise ValueError("sub must be a string subscription key")
        digest = await self._route_digest(message)
        # The forwarded message drops router-local fields; a
        # subscription needs the schedule table from the shard even
        # when the client did not ask for it itself.
        forward = {
            k: v
            for k, v in message.items()
            if k not in ("id", "sub", "full_sync")
        }
        wants_table = bool(message.get("table"))
        if sub is not None:
            forward["table"] = True
        response = await self._forward(digest, forward)
        response["id"] = req_id
        if response.get("ok") and sub is not None:
            table = response.get("table")
            if table is None:
                raise RuntimeError(
                    "shard response missing the schedule table"
                )
            if not wants_table:
                response.pop("table", None)
                response.pop("table_digest", None)
            response["_push"] = (
                sub, table, bool(message.get("full_sync"))
            )
        return response

    async def _forward(self, digest: str, forward: dict) -> dict:
        """Send to the ring owner; on a dead shard, re-home and retry.

        Every retry re-consults the ring, so the request lands on the
        key's *new* owner -- the only shard whose assignment changed --
        and the response (cold solve or shared-disk hit) is
        bit-identical by the cache's verification contract.
        """
        while True:
            shard_id = self._ring.owner(digest)
            link = self._links[shard_id]
            try:
                response = await link.request(forward)
                self._routed += 1
                return response
            except ShardUnavailable:
                self._mark_dead(shard_id)

    def _mark_dead(self, shard_id: str) -> None:
        if shard_id not in self._dead:
            self._dead.add(shard_id)
            self._ring.remove(shard_id)
            self._reroutes += 1

    # -- health re-probing ---------------------------------------------
    async def reprobe(self) -> List[str]:
        """Try to re-admit every dead shard; returns the rejoined ids.

        For each shard marked dead, open a *fresh* link to its recorded
        address and probe it with ``{"op": "stats"}``.  A shard that
        answers (e.g. one restarted via :meth:`ShardCluster.restart`)
        replaces its dead link and rejoins the :class:`HashRing` -- its
        old keys re-home back to it, and with a shared disk tier they
        arrive warm.  A shard that stays unreachable stays dead; the
        probe is the only cost.  Counted in ``ring_rejoins`` (stats)
        and ``repro_router_ring_rejoins_total`` (metrics).
        """
        rejoined: List[str] = []
        for shard_id in sorted(self._dead):
            old = self._links[shard_id]
            link = _ShardLink(shard_id, old.host, old.port)
            try:
                response = await link.request({"op": "stats"})
            except ShardUnavailable:
                await link.close()
                continue
            if not response.get("ok"):
                await link.close()
                continue
            await old.close()
            self._links[shard_id] = link
            self._dead.discard(shard_id)
            self._ring.add(shard_id)
            self._rejoins += 1
            default_registry().counter(
                "repro_router_ring_rejoins_total"
            ).inc()
            rejoined.append(shard_id)
        return rejoined

    async def _reprobe_loop(self) -> None:
        """The optional periodic reprobe task (``reprobe_interval``)."""
        while True:
            await asyncio.sleep(self.reprobe_interval)
            try:
                await self.reprobe()
            except Exception:
                # A failed sweep must not kill the loop; the next tick
                # simply probes again.
                pass

    async def _route_digest(self, message: dict) -> str:
        """The solve-fingerprint digest that keys routing.

        Computed with the *same* request decoding the shards use
        (:meth:`AsyncSchedulingService._wire_request` +
        ``SolveRequest.fingerprint``), so router-side ownership and
        shard-side cache keys can never disagree.  Building the
        workload to fingerprint it is blocking work -- it runs on the
        offload pool, memoized on the routing-relevant message fields
        for replayed traffic.
        """
        cache_key = json.dumps(
            {
                k: v
                for k, v in message.items()
                if k not in ("id", "sub", "full_sync", "table")
            },
            sort_keys=True,
        )
        cached = self._route_cache.get(cache_key)
        if cached is not None:
            self._route_cache.move_to_end(cache_key)
            self._route_hits += 1
            return cached
        digest = await self._offload(
            lambda: AsyncSchedulingService._wire_request(message)
            .fingerprint()
            .digest
        )
        self._route_cache[cache_key] = digest
        while len(self._route_cache) > ROUTE_CACHE_SIZE:
            self._route_cache.popitem(last=False)
        return digest

    # -- fan-out ops ---------------------------------------------------
    async def _fan_out(
        self, message: dict, check: bool = True
    ) -> List[Tuple[str, dict]]:
        """Send *message* to every live shard; ``(shard id, reply)`` pairs.

        An unreachable shard is marked dead and skipped.  With *check*,
        a shard's ``ok: false`` reply fails the whole op.
        """
        replies = []
        for shard_id in self._ring.shard_ids:
            try:
                response = await self._links[shard_id].request(message)
            except ShardUnavailable:
                self._mark_dead(shard_id)
                continue
            if check and not response.get("ok"):
                raise RuntimeError(
                    f"shard {shard_id} {message['op']} failed: "
                    f"{response.get('error')}"
                )
            replies.append((shard_id, response))
        return replies

    def _ring_state(self) -> dict:
        return {
            "shards_live": len(self._ring),
            "shards_dead": sorted(self._dead),
            "reroutes": self._reroutes,
            "ring_rejoins": self._rejoins,
        }

    async def _stats(self) -> dict:
        shards = []
        aggregate: dict = {}
        replies = await self._fan_out({"op": "stats"}, check=False)
        for shard_id, response in replies:
            stats = response.get("stats") or {}
            shards.append({"shard": shard_id, **stats})
            _merge_numeric(aggregate, stats)
        egress: dict = {}
        for pusher in self._pushers:
            _merge_numeric(egress, pusher.stats_snapshot())
        return jsonable(
            {
                "router": {
                    **self._ring_state(),
                    "routed": self._routed,
                    "route_cache_hits": self._route_hits,
                    "connections": len(self._writers),
                    "egress": egress,
                },
                "shards": shards,
                "aggregate": aggregate,
            }
        )

    async def _metrics(self) -> dict:
        """The cluster-wide ``metrics`` op: fan out, merge bucket-wise.

        Each live shard answers its own ``{"op": "metrics"}``; the
        per-shard snapshots merge by counter addition and **bucket-wise
        histogram addition** (exact, because every histogram shares the
        fixed :data:`~repro.obs.LATENCY_BUCKETS` bounds) into one
        cluster view, which also renders as Prometheus text.  The
        per-shard breakdown rides alongside, so a latency regression is
        attributable to the shard that caused it.
        """
        replies = await self._fan_out({"op": "metrics"})
        shards = [
            {
                "shard": shard_id,
                "metrics": response.get("metrics") or {},
                "slo": response.get("slo"),
            }
            for shard_id, response in replies
        ]
        cluster = merge_snapshots([shard["metrics"] for shard in shards])
        return {
            "cluster": cluster,
            "shards": shards,
            "router": jsonable(self._ring_state()),
            "text": render_prometheus(cluster),
        }
