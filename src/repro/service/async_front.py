"""The asyncio front door of the scheduling service, and its wire server.

:class:`AsyncSchedulingService` wraps the synchronous, thread-pooled
:class:`~repro.service.server.SchedulingService` behind ``asyncio`` so
the serving path can sit inside a real RPC process: ``await
front.solve(request)``, batches via :meth:`solve_batch`
(``asyncio.gather`` underneath), and a minimal newline-delimited
JSON-over-TCP endpoint (:meth:`~LineServer.serve`) for clients that are
not even Python.

The event loop never runs solver code.  A request's blocking *front
half* -- validation, fingerprinting, the memory probe, dispatch -- runs
on a small admission pool owned by the front door (deliberately not
the service pool: solves occupy that one for seconds at a time, and a
memory hit must never queue behind them), while the solve itself runs
where it always has, on the warm service pool inside
:meth:`SchedulingService.submit`; the coroutine side only awaits the
resulting futures (``asyncio.wrap_future`` bridges them back into the
loop).  Caching and coalescing therefore behave exactly as in the
synchronous service: the front door is a veneer, not a second serving
path, and the results it hands out are the same shared objects.

**Backpressure.**  Serving millions of users means the front door, not
the solver, sees the arrival process (cf. the queueing-network
scheduling regime of Shah--Shin, arXiv:0908.3670): admission must be
bounded or a burst turns into an unbounded pile of in-flight work.  A
semaphore caps concurrently *admitted* requests at ``max_inflight``;
arrivals beyond the cap queue on the semaphore, and
:attr:`stats` exposes live queue depth, live in-flight count and their
high-water marks so an operator can see saturation directly.

**Drain.**  :meth:`drain` stops the TCP listener, lets every admitted
and queued request resolve, answers late arrivals with a rejection, and
closes the remaining connections; :meth:`aclose` (also the ``async
with`` exit) drains and then tears down the process-wide service
pools via :func:`~repro.service.pools.shutdown_pools`, so a cleanly
closed front door leaves zero live worker threads.

**Delta requests.**  :meth:`solve_delta` is the awaitable face of
:meth:`SchedulingService.solve_delta` -- a solve that also reports
whether the request reused the layouts the service already built.  With
``delta_debounce > 0`` the front door additionally coalesces *change
storms*: rapid-fire delta submissions whose problems share a
:func:`~repro.service.delta.delta_key` -- the same knobs over the same
networks, by id and ordered adjacency -- collapse into one solve of the
latest snapshot after the quiet period
(:class:`~repro.service.delta.ChangeDebouncer`); earlier waiters get the
result flagged ``superseded``.  :meth:`drain` force-flushes pending
storms, so no waiter is stranded by shutdown.

**The wire server.**  :class:`LineServer` is the connection side of the
TCP endpoint, for this front door and for
:class:`~repro.service.shard.ShardRouter` alike; each supplies only
``_answer(message, req_id)``, which turns one decoded request into its
reply.  Both therefore keep the same rules:

* Lines are read up to :data:`WIRE_LINE_LIMIT` bytes.  A longer line is
  answered ``{"ok": false, "id": null, ...}`` and then ends the
  connection, after the lines already read are answered.
* Each line runs as its own task, so replies to pipelined requests may
  arrive out of order -- that is what ``id`` is for.  At EOF the
  pending lines are still answered before the connection closes.
* A malformed line, and anything ``_answer`` raises, comes back as
  ``{"ok": false, "id": ..., "error": "..."}``; it never kills the
  connection.
* Replies are written one at a time under a per-connection lock, and a
  reply to a client that has disconnected is dropped.
* A subscribed reply's delta push (below) is diffed under that lock,
  on the server's two-thread offload pool, so each subscription's base
  table follows wire order.
* Closing settles every line's task, closes every connection and joins
  the offload pool.

Wire protocol (one JSON object per line, responses tagged with the
request's optional ``id``)::

    -> {"workload": "diurnal-cycle", "size": 64, "seed": 1,
        "knobs": {"mis": "greedy", "epsilon": 0.25}, "id": 7}
    <- {"ok": true, "id": 7, "label": "diurnal-cycle@64#1",
        "status": "miss", "profit": ..., "fingerprint": ...,
        "semantic_digest": ..., "latency_s": ...}
    -> {"op": "solve_delta", "workload": "diurnal-cycle", "size": 64,
        "seed": 1, "knobs": {...}, "id": 8}
    <- {"ok": true, "id": 8, "status": "delta",
        "delta": {"outcome": "warm", ...}, "superseded": false, ...}
    -> {"op": "stats"}
    <- {"ok": true, "stats": {...}}
    -> {"op": "metrics"}
    <- {"ok": true, "metrics": {"counters": ..., "gauges": ...,
        "histograms": ...}, "slo": {...}, "text": "# TYPE ..."}
    -> {"op": "invalidate", "epoch_below": 3, "id": 9}
    <- {"ok": true, "id": 9, "dropped": 17}

A reply line can exceed asyncio's default 64 KiB stream limit (a
router's ``metrics`` reply over four shards is about 67 KB), so a
client reads with ``asyncio.open_connection(host, port,
limit=WIRE_LINE_LIMIT)``, as the router's shard links do.

The ``metrics`` op is the structured telemetry face (see
:mod:`repro.obs`): a mergeable registry snapshot, the SLO attainment
report when the wrapped service configured one, and the same snapshot
rendered as Prometheus text exposition (``text``).  It answers even on
a telemetry-disabled service -- then it carries whatever the
process-default registry holds.  ``stats`` is unchanged for
compatibility.

Three optional request fields extend the solve ops without changing
the line discipline.  ``"trajectory": name`` (with ``"step": k``)
requests snapshot *k* of a registered churn trajectory instead of a
registry workload -- the wire face of the delta-solve path.
``"table": true`` adds the served *schedule table* (one
``[instance_id, demand_id, network_id, profit, height]`` cell per
selected instance, plus its digest) to the response.  ``"sub": key``
subscribes this connection to delta-push egress under *key*: the
response carries a ``"push"`` payload that is a full table on first
contact (or with ``"full_sync": true``) and only the
:class:`~repro.service.diff.ScheduleDelta` add/remove cells afterwards
-- O(changed cells) on the wire, digest-verified on both ends (see
:mod:`repro.service.diff`).

``semantic_digest`` is the served report's
:func:`~repro.service.cache.report_semantic_digest`, so a remote
client can verify bit-identity with a local
:func:`~repro.algorithms.auto.solve_auto` without unpickling anything.
"""
from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.core.problem import Problem
from repro.distributed.mis import validate_seed
from repro.obs import render_prometheus
from repro.service.delta import ChangeDebouncer, delta_key
from repro.service.diff import SchedulePusher, schedule_table, table_digest
from repro.service.fingerprint import SolveKnobs
from repro.service.pools import shutdown_pools
from repro.service.server import (
    SchedulingService,
    ServiceError,
    ServiceResult,
    SolveRequest,
)
from repro.workloads.trajectories import build_trajectory

__all__ = ["AsyncSchedulingService", "LineServer", "jsonable"]

#: Per-line buffer limit of the TCP endpoint, for requests and replies
#: alike (asyncio's default 64 KiB is small for a request carrying a
#: large knobs object, and for a router's merged ``metrics`` reply).
WIRE_LINE_LIMIT = 1 << 20


def jsonable(value):
    """*value* coerced into strictly JSON-serializable form.

    The stats surface aggregates counters from every layer of the
    service, and two classes of values used to repr-degrade when they
    deserve numbers: **numpy scalars** (``np.int64``, unlike
    ``np.float64``, is *not* an ``int`` subclass on 64-bit Linux) and
    **dataclasses** (e.g. a :class:`~repro.service.delta.DeltaStats`
    riding a stats payload).  Numpy scalars now unwrap via ``.item()``
    and dataclass instances encode as field dicts, recursively.  numpy
    is looked up in ``sys.modules`` on each call, never imported: a
    numpy scalar can exist only once numpy is loaded, and serving never
    loads it (:func:`~repro.core.lp.lp_upper_bound` does).  Everything
    still degrades gracefully: an unknown type becomes its ``repr`` --
    one weird value must never turn the whole ``{"op": "stats"}`` wire
    op into ``ok:false``.  Dicts and sequences recurse; non-string dict
    keys (tuples, which ``json.dumps`` rejects) become strings.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, getattr(sys.modules.get("numpy"), "generic", ())):
        # Covers np.bool_/np.integer/np.floating alike; .item() yields
        # the exact python scalar.  Must precede the int/float check:
        # np.float64 would pass through it, np.int64 would not.
        return value.item()
    if isinstance(value, (int, float)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {
            k if isinstance(k, str) else repr(k): jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return repr(value)


def wire_epoch_below(message: dict) -> int:
    """The ``epoch_below`` field of an ``invalidate`` request, an exact int."""
    if "epoch_below" not in message:
        raise ValueError("invalidate requires an epoch_below field")
    return validate_seed(message["epoch_below"], "epoch_below")


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
        await writer.wait_closed()
    except Exception:
        pass


class LineServer:
    """Newline-delimited JSON over TCP, for any ``_answer`` method.

    The connection loop, the write path and the close sequence of the
    wire protocol (the rules are in the module docstring).  A subclass
    implements ``async _answer(message, req_id) -> dict`` and may mark
    a reply for a delta push with a private ``"_push": (sub, table,
    full_sync)`` entry, which the write path replaces by the
    connection's :meth:`SchedulePusher.push` payload.  Its ``aclose``
    (also the ``async with`` exit) calls :meth:`_stop_listening` and
    then :meth:`_close_connections`.  ``_thread_prefix`` names the
    threads of the offload pool, which runs whatever blocking work the
    subclass hands to :meth:`_offload`.
    """

    _thread_prefix = "repro-wire"

    def __init__(self) -> None:
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._pushers: Set[SchedulePusher] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._offload_pool: Optional[ThreadPoolExecutor] = None

    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Start the TCP endpoint; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port (the form tests and
        single-box demos use).  The listener runs on the current event
        loop until ``aclose``.
        """
        if self._server is not None:
            raise RuntimeError("serve() already called on this server")
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=WIRE_LINE_LIMIT
        )
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def _answer(self, message: dict, req_id) -> dict:
        """One decoded request's reply; what it raises is answered
        ``{"ok": false, ...}``."""
        raise NotImplementedError

    async def _offload(self, fn: Callable, *args):
        """``fn(*args)`` on the offload pool, awaited from the loop."""
        if self._offload_pool is None:
            self._offload_pool = ThreadPoolExecutor(
                max_workers=2, thread_name_prefix=self._thread_prefix
            )
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._offload_pool, fn, *args)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client: a task per request line, each answered when done."""
        self._writers.add(writer)
        lock = asyncio.Lock()
        pusher = SchedulePusher()
        self._pushers.add(pusher)
        pending: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The stream is no longer line-delimited, so the
                    # connection ends; the lines already read are still
                    # answered below.
                    await self._write(writer, lock, pusher, {
                        "ok": False,
                        "id": None,
                        "error": (
                            "ValueError: request line exceeds "
                            f"{WIRE_LINE_LIMIT} bytes"
                        ),
                    })
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, lock, pusher)
                )
                for registry in (pending, self._tasks):
                    registry.add(task)
                    task.add_done_callback(registry.discard)
            if pending:
                await asyncio.gather(*tuple(pending), return_exceptions=True)
        finally:
            self._writers.discard(writer)
            self._pushers.discard(pusher)
            await _close_writer(writer)

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        pusher: SchedulePusher,
    ) -> None:
        req_id = None
        try:
            message = json.loads(line.decode("utf-8"))
            if not isinstance(message, dict):
                raise ValueError("request must be a JSON object")
            req_id = message.get("id")
            response = await self._answer(message, req_id)
        except Exception as exc:
            response = {"ok": False, "id": req_id, "error": _describe(exc)}
        await self._write(writer, lock, pusher, response)

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        pusher: SchedulePusher,
        response: dict,
    ) -> None:
        """Write one reply line; its delta push is diffed here.

        The lock is held because stream writers are not task-safe.  The
        diff runs under it too, so the pusher's per-subscription
        base-table chain matches the order replies hit the wire
        (pipelined same-key requests would otherwise interleave state
        updates and writes), and on the offload pool, because diffing a
        large table is blocking work.
        """
        push = response.pop("_push", None)
        async with lock:
            if writer.is_closing():
                return
            if push is not None:
                try:
                    response["push"] = await self._offload(pusher.push, *push)
                except Exception as exc:  # never kill the line
                    response["push"] = {
                        "mode": "error",
                        "error": _describe(exc),
                    }
            try:
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
            except OSError:
                pass  # the client disconnected mid-reply

    async def _stop_listening(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _close_connections(self) -> None:
        """Settle every line's task, close every connection, join the
        offload pool (idle by then, so the join is quick)."""
        if self._tasks:
            await asyncio.gather(*tuple(self._tasks), return_exceptions=True)
        for writer in tuple(self._writers):
            await _close_writer(writer)
        self._writers.clear()
        if self._offload_pool is not None:
            self._offload_pool.shutdown(wait=True)
            self._offload_pool = None

    async def __aenter__(self):
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()


class AsyncSchedulingService(LineServer):
    """An asyncio veneer over :class:`SchedulingService` with admission
    control, a JSON-over-TCP endpoint and graceful drain.

    Parameters
    ----------
    service:
        An existing synchronous service to front; mutually exclusive
        with *service_kwargs*, which construct a fresh one
        (``capacity=``, ``disk_dir=``, ``ttl=`` ... -- everything
        :class:`SchedulingService` takes).
    max_inflight:
        How many requests may be admitted (dispatched to the service)
        at once; arrivals beyond it wait their turn on the semaphore.
    delta_debounce:
        Quiet period, in seconds, for coalescing delta change storms
        (see the module docstring).  ``0`` (the default) disables
        debouncing: every :meth:`solve_delta` dispatches immediately.
    """

    # The offload pool is the admission pool: it runs the blocking
    # *front half* of a request -- validate + fingerprint + memory probe
    # + dispatch -- and response digest lookups.  Deliberately NOT the
    # shared service pool: solves occupy that pool's threads for their
    # whole duration, and admission queued behind them would make even
    # a sub-millisecond memory hit wait out a cold solve (head-of-line
    # blocking).  Owned by this front door and joined on drain.
    _thread_prefix = "repro-admission"

    def __init__(
        self,
        service: Optional[SchedulingService] = None,
        *,
        max_inflight: int = 32,
        delta_debounce: float = 0.0,
        **service_kwargs,
    ) -> None:
        if service is not None and service_kwargs:
            raise ValueError("pass service= or service kwargs, not both")
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        if delta_debounce < 0:
            raise ValueError(
                f"delta_debounce must be >= 0, got {delta_debounce}"
            )
        super().__init__()
        self.service = (
            service if service is not None else SchedulingService(**service_kwargs)
        )
        self.max_inflight = max_inflight
        self.delta_debounce = delta_debounce
        # The debounced solve path bypasses the draining check (the
        # drain itself flushes the debouncer, and those coalesced
        # requests were accepted before it began).
        self._debouncer: Optional[ChangeDebouncer] = (
            ChangeDebouncer(delta_debounce, self._debounced_solve)
            if delta_debounce > 0
            else None
        )
        self._sem = asyncio.Semaphore(max_inflight)
        self._closing = False
        # Admission-control accounting: queued = waiting on the
        # semaphore, active = admitted and not yet resolved.
        self._queued = 0
        self._active = 0
        self._peak_queued = 0
        self._peak_active = 0
        self._served = 0
        self._rejected = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # Async solve API
    # ------------------------------------------------------------------
    async def solve(self, request: SolveRequest) -> ServiceResult:
        """``await``-able :meth:`SchedulingService.solve`.

        Admission is bounded by ``max_inflight``; past the gate, the
        blocking submit (fingerprint + cache probe + dispatch) runs on
        the admission pool and the coroutine awaits the resolution.
        Raises :class:`ServiceError` for solve failures (unchanged from
        the sync path) and for requests arriving after :meth:`drain`
        began.
        """
        return await self._admit(request, self.service.submit)

    async def solve_delta(self, request: SolveRequest) -> ServiceResult:
        """``await``-able :meth:`SchedulingService.solve_delta`.

        Without debouncing this is :meth:`solve` with the delta submit
        path underneath -- same admission gate, same accounting.  With
        ``delta_debounce > 0``, the request first parks in the
        :class:`~repro.service.delta.ChangeDebouncer` under its
        :func:`~repro.service.delta.delta_key` (computed on the
        admission pool -- it walks every network); only the storm's
        latest snapshot is solved, and superseded waiters can tell from
        ``result.superseded``.
        """
        if self._debouncer is None:
            return await self._admit(request, self.service.submit_delta)
        if self._closing:
            self._rejected += 1
            raise ServiceError(
                f"request {request.label or '<unlabeled>'} rejected: "
                "service is draining"
            )
        key = await self._offload(delta_key, request.problem, request.knobs)
        return await self._debouncer.submit(key, request)

    async def _debounced_solve(self, request: SolveRequest) -> ServiceResult:
        """The debouncer's solve callable: admit even while draining --
        drain's flush is how accepted-but-parked requests resolve."""
        return await self._admit(
            request, self.service.submit_delta, during_drain=True
        )

    async def _admit(
        self,
        request: SolveRequest,
        submit: Callable,
        during_drain: bool = False,
    ) -> ServiceResult:
        """The bounded-admission path shared by plain and delta solves."""
        if self._closing and not during_drain:
            self._rejected += 1
            raise ServiceError(
                f"request {request.label or '<unlabeled>'} rejected: "
                "service is draining"
            )
        metrics = self.service.metrics
        self._queued += 1
        self._peak_queued = max(self._peak_queued, self._queued)
        self._idle.clear()
        if metrics is not None:
            metrics.gauge("repro_admission_queue_depth").set(self._queued)
            t_arrive = time.perf_counter()
        admitted = False
        try:
            await self._sem.acquire()
            admitted = True
            self._queued -= 1
            self._active += 1
            self._peak_active = max(self._peak_active, self._active)
            if metrics is not None:
                # The semaphore wait *is* the admission queue time --
                # the saturation signal max_inflight exists to bound.
                metrics.histogram("repro_admission_wait_seconds").observe(
                    time.perf_counter() - t_arrive
                )
                metrics.gauge("repro_admission_queue_depth").set(self._queued)
                metrics.gauge("repro_admission_active").set(self._active)
            # Two hops: the admission pool runs the (blocking) submit,
            # which returns the request's concurrent future; awaiting
            # that future is the solve/cache-hit resolution itself.
            inner = await self._offload(submit, request)
            result = await asyncio.wrap_future(inner)
            self._served += 1
            return result
        finally:
            if admitted:
                self._active -= 1
                self._sem.release()
            else:
                self._queued -= 1
            if metrics is not None:
                metrics.gauge("repro_admission_queue_depth").set(self._queued)
                metrics.gauge("repro_admission_active").set(self._active)
            if self._queued == 0 and self._active == 0:
                self._idle.set()

    async def solve_batch(
        self, requests: Sequence[SolveRequest]
    ) -> List[ServiceResult]:
        """Serve a batch concurrently; results come back in input order.

        ``asyncio.gather`` underneath: duplicates coalesce inside the
        service exactly as in the synchronous batch path, and the first
        failure raises its attributable :class:`ServiceError`.
        """
        return list(await asyncio.gather(*(self.solve(r) for r in requests)))

    async def solve_problem(
        self,
        problem: Problem,
        knobs: Optional[SolveKnobs] = None,
        label: Optional[str] = None,
    ) -> ServiceResult:
        """Convenience mirror of :meth:`SchedulingService.submit_problem`."""
        return await self.solve(
            SolveRequest(
                problem=problem,
                knobs=knobs if knobs is not None else self.service.default_knobs,
                label=label,
            )
        )

    # ------------------------------------------------------------------
    # JSON-over-TCP front door
    # ------------------------------------------------------------------
    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        if self._closing:
            raise RuntimeError("cannot serve() on a draining front door")
        return await super().serve(host, port)

    async def _answer(self, message: dict, req_id) -> dict:
        op = message.get("op")
        if op == "stats":
            return {"ok": True, "id": req_id, "stats": jsonable(self.stats)}
        if op == "metrics":
            # One consistent registry snapshot, the SLO attainment
            # report (when configured) and the snapshot as Prometheus
            # text.  Snapshotting is a locked dict copy -- cheap enough
            # for the event loop, and running it off-loop would only
            # add a chance to observe a later state.
            snap = self.service.metrics_snapshot()
            return {
                "ok": True,
                "id": req_id,
                "metrics": jsonable(snap["metrics"]),
                "slo": jsonable(snap["slo"]),
                "text": render_prometheus(snap["metrics"]),
            }
        if op == "invalidate":
            # Offloaded: the disk sweep unpickles every file in the tier.
            epoch_below = wire_epoch_below(message)
            dropped = await self._offload(
                lambda: self.service.invalidate(epoch_below=epoch_below)
            )
            return {"ok": True, "id": req_id, "dropped": dropped}
        if op not in (None, "solve", "solve_delta"):
            raise ValueError(f"unknown op {op!r}")
        sub = message.get("sub")
        if sub is not None and not isinstance(sub, str):
            raise ValueError("sub must be a string subscription key")
        request = self._wire_request(message)
        if op == "solve_delta":
            result = await self.solve_delta(request)
        else:
            result = await self.solve(request)
        response = {
            "ok": True,
            "id": req_id,
            "label": result.label,
            "status": result.status,
            "profit": result.profit,
            "fingerprint": result.fingerprint.digest,
            "semantic_digest": await self._response_digest(result),
            "latency_s": result.latency_s,
        }
        if op == "solve_delta":
            response["delta"] = (
                result.delta.snapshot() if result.delta is not None else None
            )
            response["superseded"] = result.superseded
        if sub is not None or message.get("table"):
            table = await self._offload(schedule_table, result.report)
            if message.get("table"):
                response["table"] = [list(c) for c in table]
                response["table_digest"] = await self._offload(
                    table_digest, table
                )
            if sub is not None:
                response["_push"] = (sub, table, bool(message.get("full_sync")))
        return response

    async def _response_digest(self, result: ServiceResult) -> str:
        """The served report's semantic digest, cheaply.

        A memory-only cache admits results undigested, so the first
        response for an entry digests it
        (:meth:`SchedulingService.result_digest`, whose digest under
        the default configuration *is*
        :func:`~repro.service.cache.report_semantic_digest`) and
        records it on the entry; every later response for it is a
        locked metadata peek.  Digesting runs on the admission pool,
        never on the event loop: it serializes the whole solution,
        exactly the class of work the loop must not run.  An entry that
        has left the memory tier (evicted, invalidated) is digested the
        same way, from the served report.
        """
        digest = self.service.peek_digest(result.fingerprint)
        if digest is not None:
            return digest
        return await self._offload(self.service.result_digest, result)

    @staticmethod
    def _wire_request(message: dict) -> SolveRequest:
        """Decode a wire message into a solve request.

        Two problem sources, mutually exclusive: ``"workload"`` names a
        registry workload; ``"trajectory"`` (with ``"step": k``) names a
        registered churn trajectory and requests its *k*-th snapshot.
        Trajectories are prefix-stable -- snapshot ``k`` of
        ``build_trajectory(name, size, seed, steps=k+1)`` is the same
        problem regardless of how many further steps exist -- so the
        wire face stays a pure value: no server-side trajectory state.

        ``size``, ``seed`` and ``step`` must be exact ints (a float or
        bool would otherwise be served as the int it truncates to), and
        a ``"seed"`` in ``knobs`` overrides the solve seed, which
        defaults to the problem seed.
        """
        if "workload" in message and "trajectory" in message:
            raise ValueError("pass workload or trajectory, not both")
        try:
            size = validate_seed(message["size"], "size")
        except KeyError as exc:
            raise ValueError(f"request is missing field {exc}") from exc
        seed = validate_seed(message.get("seed", 0))
        knobs = message.get("knobs") or {}
        if not isinstance(knobs, dict):
            raise ValueError("knobs must be a JSON object of SolveKnobs fields")
        knobs.setdefault("seed", seed)
        if "trajectory" in message:
            name = message["trajectory"]
            step = validate_seed(message.get("step", 0), "step")
            if step < 0:
                raise ValueError(f"step must be >= 0, got {step}")
            snapshot = build_trajectory(
                name, size, seed=seed, steps=step + 1
            )[step]
            return SolveRequest(
                problem=snapshot.problem,
                knobs=SolveKnobs(**knobs),
                label=f"{name}@{size}#{seed}/{step}",
            )
        try:
            name = message["workload"]
        except KeyError as exc:
            raise ValueError(f"request is missing field {exc}") from exc
        return SolveRequest.from_workload(
            name, size, seed=seed, knobs=SolveKnobs(**knobs)
        )

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Graceful stop: no new work, all accepted work resolves.

        Order matters: (1) stop accepting -- the TCP listener closes
        and :meth:`solve` starts rejecting, (2) every queued and
        admitted request resolves (their responses still go out), (3)
        surviving connections close, (4) the front door's own
        admission pool is joined.  Idempotent.
        """
        self._closing = True
        await self._stop_listening()
        if self._debouncer is not None:
            # Coalesced delta requests were accepted before the drain
            # began: force-fire their buckets now (the debounced solve
            # path bypasses the rejection above), so the idle wait
            # below also covers them.
            await self._debouncer.flush_all()
        await self._idle.wait()
        await self._close_connections()

    async def aclose(self, shutdown_executors: bool = True) -> None:
        """Drain, then (by default) tear down the warm executor pools.

        The pool teardown (:func:`~repro.service.pools.shutdown_pools`)
        is process-wide, which is exactly what a serving process wants
        on the way out: zero live executors after a clean close.  Pass
        ``shutdown_executors=False`` when other services in the process
        keep running; pools re-warm on demand either way.
        """
        await self.drain()
        if shutdown_executors:
            # Quick by construction: the drain left every pool idle.
            shutdown_pools(wait=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Front-door admission counters plus the wrapped service's."""
        return {
            "max_inflight": self.max_inflight,
            "queued": self._queued,
            "active": self._active,
            "peak_queued": self._peak_queued,
            "peak_active": self._peak_active,
            "served": self._served,
            "rejected": self._rejected,
            "connections": len(self._writers),
            "draining": self._closing,
            "debouncer": (
                self._debouncer.stats_snapshot()
                if self._debouncer is not None
                else None
            ),
            "service": self.service.stats,
        }
