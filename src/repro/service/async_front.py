"""The asyncio front door of the scheduling service.

:class:`AsyncSchedulingService` wraps the synchronous, thread-pooled
:class:`~repro.service.server.SchedulingService` behind ``asyncio`` so
the serving path can sit inside a real RPC process: ``await
front.solve(request)``, batches via :meth:`solve_batch`
(``asyncio.gather`` underneath), and a minimal newline-delimited
JSON-over-TCP endpoint (:meth:`serve`, built on
``asyncio.start_server``) for clients that are not even Python.

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
:func:`~repro.service.delta.delta_key` and the same networks (ids and
content) collapse into one solve of the latest snapshot after the
quiet period (:class:`~repro.service.delta.ChangeDebouncer`); earlier
waiters get the result flagged ``superseded``.  :meth:`drain` force-flushes
pending storms, so no waiter is stranded by shutdown.

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
Responses to pipelined requests may arrive out of order -- that is what
``id`` is for.  Errors come back as ``{"ok": false, "id": ...,
"error": "..."}`` on the same line discipline; a malformed line never
kills the connection.
"""
from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, FrozenSet, List, Optional, Sequence, Set, Tuple

try:  # numpy is a core dependency, but jsonable() must not require it
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro.core.problem import Problem
from repro.distributed.mis import validate_seed
from repro.obs import render_prometheus
from repro.service.delta import ChangeDebouncer, delta_key
from repro.service.diff import SchedulePusher, schedule_table, table_digest
from repro.service.fingerprint import SolveKnobs
from repro.service.pools import shutdown_pools
from repro.service.server import (
    NetworkKey,
    SchedulingService,
    ServiceError,
    ServiceResult,
    SolveRequest,
    _network_key,
)
from repro.workloads.trajectories import build_trajectory

__all__ = ["AsyncSchedulingService", "jsonable"]

#: Per-line buffer limit of the TCP endpoint (asyncio's default 64 KiB
#: is small for a request carrying a large knobs object).
WIRE_LINE_LIMIT = 1 << 20


def _storm_key(request: SolveRequest) -> Tuple[str, FrozenSet[NetworkKey]]:
    """*request*'s change-storm bucket: its
    :func:`~repro.service.delta.delta_key` plus each network's id and
    content (the network table's key).  The id-free sketch alone lets
    two problems whose differently shaped networks swapped ids share a
    bucket; with the network keys, only snapshots over the same
    networks supersede each other."""
    problem = request.problem
    return delta_key(problem, request.knobs), frozenset(
        map(_network_key, problem.networks.values())
    )


def jsonable(value):
    """*value* coerced into strictly JSON-serializable form.

    The stats surface aggregates counters from every layer of the
    service, and two classes of values used to repr-degrade when they
    deserve numbers: **numpy scalars** (numpy is a dependency, through
    :mod:`repro.core.lp`, and ``np.int64``, unlike ``np.float64``, is
    *not* an ``int`` subclass on 64-bit Linux) and **dataclasses** (e.g. a
    :class:`~repro.service.delta.DeltaStats` riding a stats payload).
    Numpy scalars now unwrap via ``.item()`` and dataclass instances
    encode as field dicts, recursively.  Everything still degrades
    gracefully: an unknown type becomes its ``repr`` -- one weird value
    must never turn the whole ``{"op": "stats"}`` wire op into
    ``ok:false``.  Dicts and sequences recurse; non-string dict keys
    (tuples, which ``json.dumps`` rejects) become strings.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if _np is not None and isinstance(value, _np.generic):
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


class AsyncSchedulingService:
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
        # The admission pool runs the blocking *front half* of a
        # request -- validate + fingerprint + memory probe + dispatch
        # -- and response digest lookups.  Deliberately NOT the shared
        # service pool: solves occupy that pool's threads for their
        # whole duration, and admission queued behind them would make
        # even a sub-millisecond memory hit wait out a cold solve
        # (head-of-line blocking).  Owned by this front door and joined
        # on drain.
        self._admission_pool: Optional[ThreadPoolExecutor] = None
        self._closing = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._request_tasks: Set[asyncio.Task] = set()
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
        the warm service pool and the coroutine awaits the resolution.
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
        :func:`~repro.service.delta.delta_key` and its networks' ids
        and content (computed on the admission pool -- it walks every
        network); only the storm's latest snapshot is solved, and
        superseded waiters can tell from ``result.superseded``.
        """
        if self._debouncer is None:
            return await self._admit(request, self.service.submit_delta)
        if self._closing:
            self._rejected += 1
            raise ServiceError(
                f"request {request.label or '<unlabeled>'} rejected: "
                "service is draining"
            )
        loop = asyncio.get_running_loop()
        key = await loop.run_in_executor(
            self._admission(), _storm_key, request
        )
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
            loop = asyncio.get_running_loop()
            # Two hops: the admission pool runs the (blocking) submit,
            # which returns the request's concurrent future; awaiting
            # that future is the solve/cache-hit resolution itself.
            inner = await loop.run_in_executor(
                self._admission(), submit, request
            )
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

    def _admission(self) -> ThreadPoolExecutor:
        if self._admission_pool is None:
            self._admission_pool = ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="repro-admission"
            )
        return self._admission_pool

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
        """Start the TCP endpoint; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port (the form tests and
        single-box demos use).  The listener runs on the current event
        loop until :meth:`drain`/:meth:`aclose`.
        """
        if self._server is not None:
            raise RuntimeError("serve() already called on this front door")
        if self._closing:
            raise RuntimeError("cannot serve() on a draining front door")
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=WIRE_LINE_LIMIT
        )
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client: spawn a task per request line, answer as done.

        Responses are written under a per-connection lock (stream
        writers are not task-safe) and may interleave across requests
        -- pipelining clients correlate by ``id``.
        """
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        pusher = SchedulePusher()
        pending: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # A line overran WIRE_LINE_LIMIT: the stream is no
                    # longer line-delimited, so the connection must
                    # end -- but gracefully: answer the offense, and
                    # fall through to the pending-gather below so
                    # already-accepted requests still get responses.
                    await self._write_response(
                        writer, write_lock,
                        {
                            "ok": False,
                            "id": None,
                            "error": (
                                "ValueError: request line exceeds "
                                f"{WIRE_LINE_LIMIT} bytes"
                            ),
                        },
                    )
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock, pusher)
                )
                for registry in (pending, self._request_tasks):
                    registry.add(task)
                    task.add_done_callback(registry.discard)
            if pending:
                await asyncio.gather(*tuple(pending), return_exceptions=True)
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        pusher: Optional[SchedulePusher] = None,
    ) -> None:
        response = await self._dispatch_wire(line, pusher)
        await self._write_response(writer, write_lock, response, pusher)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: dict,
        pusher: Optional[SchedulePusher] = None,
    ) -> None:
        """Write one response line; delta-push payloads materialize here.

        A subscribed response carries a private ``_push`` marker from
        :meth:`_dispatch_wire`; the actual diff runs *under the write
        lock* so the pusher's per-subscription base-table chain matches
        the order responses hit the wire (pipelined same-key requests
        would otherwise interleave state updates and writes).  The diff
        itself runs on the admission pool -- ``SequenceMatcher`` over a
        large table is exactly the blocking work the loop must not do.
        """
        push_spec = response.pop("_push", None)
        async with write_lock:
            if writer.is_closing():
                return
            if push_spec is not None and pusher is not None:
                sub, table, full_sync = push_spec
                loop = asyncio.get_running_loop()
                try:
                    response["push"] = await loop.run_in_executor(
                        self._admission(), pusher.push, sub, table, full_sync
                    )
                except Exception as exc:  # defensive: never kill the line
                    response["push"] = {
                        "mode": "error",
                        "error": f"{type(exc).__name__}: {exc}",
                    }
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()

    async def _dispatch_wire(
        self, line: bytes, pusher: Optional[SchedulePusher] = None
    ) -> dict:
        """One wire request -> one response dict; never raises."""
        req_id = None
        try:
            message = json.loads(line.decode("utf-8"))
            if not isinstance(message, dict):
                raise ValueError("request must be a JSON object")
            req_id = message.get("id")
            op = message.get("op")
            if op == "stats":
                return {"ok": True, "id": req_id, "stats": jsonable(self.stats)}
            if op == "metrics":
                return self._wire_metrics(req_id)
            if op == "invalidate":
                return await self._wire_invalidate(message, req_id)
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
                loop = asyncio.get_running_loop()
                table = await loop.run_in_executor(
                    self._admission(), schedule_table, result.report
                )
                if message.get("table"):
                    response["table"] = [list(c) for c in table]
                    response["table_digest"] = await loop.run_in_executor(
                        self._admission(), table_digest, table
                    )
                if sub is not None and pusher is not None:
                    response["_push"] = (
                        sub, table, bool(message.get("full_sync"))
                    )
            return response
        except Exception as exc:
            return {
                "ok": False,
                "id": req_id,
                "error": f"{type(exc).__name__}: {exc}",
            }

    def _wire_metrics(self, req_id) -> dict:
        """The ``metrics`` wire op: one consistent registry snapshot,
        the SLO attainment report (when configured), and the snapshot's
        Prometheus text exposition.  Snapshotting is a locked dict copy
        -- cheap enough for the event loop, and running it off-loop
        would only add a chance to observe a later state."""
        snap = self.service.metrics_snapshot()
        return {
            "ok": True,
            "id": req_id,
            "metrics": jsonable(snap["metrics"]),
            "slo": jsonable(snap["slo"]),
            "text": render_prometheus(snap["metrics"]),
        }

    async def _wire_invalidate(self, message: dict, req_id) -> dict:
        """The ``invalidate`` wire op: bulk-drop below a capacity epoch.

        Runs on the admission pool -- the disk sweep unpickles every
        file in the tier, blocking work by construction.  The shard
        router fans this op out to every shard.
        """
        if "epoch_below" not in message:
            raise ValueError("invalidate requires an epoch_below field")
        epoch_below = validate_seed(message["epoch_below"], "epoch_below")
        loop = asyncio.get_running_loop()
        dropped = await loop.run_in_executor(
            self._admission(),
            lambda: self.service.invalidate(epoch_below=epoch_below),
        )
        return {"ok": True, "id": req_id, "dropped": dropped}

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
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._admission(), self.service.result_digest, result
        )

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
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._debouncer is not None:
            # Coalesced delta requests were accepted before the drain
            # began: force-fire their buckets now (the debounced solve
            # path bypasses the rejection above), so the idle wait
            # below also covers them.
            await self._debouncer.flush_all()
        await self._idle.wait()
        if self._request_tasks:
            await asyncio.gather(
                *tuple(self._request_tasks), return_exceptions=True
            )
        for writer in tuple(self._writers):
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass
        self._writers.clear()
        if self._admission_pool is not None:
            # Idle by construction at this point, so the join is quick.
            self._admission_pool.shutdown(wait=True)
            self._admission_pool = None

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

    async def __aenter__(self) -> "AsyncSchedulingService":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

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
