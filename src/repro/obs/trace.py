"""Per-request phase tracing: spans recorded into phase histograms.

A request moving through :class:`~repro.service.server.SchedulingService`
passes distinct phases -- validate, fingerprint, cache probe, dispatch,
solve, admit -- and the interesting question in production is *which
phase* the wall-clock went to (a slow cache probe and a slow solve need
opposite fixes).  :class:`Trace` is a lightweight per-request recorder:

    trace = Trace(registry, family="tree")
    with trace.span("validate"):
        ...
    with trace.span("solve"):
        ...
    trace.finish(status="cold")

Each ``span()`` context observes its elapsed seconds into the labeled
histogram ``repro_service_phase_seconds{phase=..., family=...}``, and
``finish()`` observes the whole request into
``repro_service_request_seconds{family=..., status=...}`` (status is
the cache outcome: ``hit``/``coalesced``/``cold``/``delta``/``error``).
Phase timings therefore aggregate across requests in the registry --
no per-request retention, no unbounded memory.

When telemetry is disabled the service uses :data:`NULL_TRACE`, whose
spans are a shared no-op context manager: the instrumented code path
is identical with telemetry on or off (one attribute call per phase),
which is what keeps the digest-identity and <5% overhead guarantees
trivially true.

:func:`trace_request` is the public entry point: it hands back a
real :class:`Trace` or :data:`NULL_TRACE` depending on the registry
argument, so call sites never branch on "is telemetry on".
"""
from __future__ import annotations

import time
from typing import Optional

from .metrics import MetricsRegistry

__all__ = [
    "NULL_TRACE",
    "NullTrace",
    "PHASES",
    "Span",
    "Trace",
    "trace_request",
]

#: Canonical request phases, in pipeline order: the ones every request
#: the scheduling service solves passes.  Other labels are recorded
#: outside this pipeline: the async front door records ``admission``,
#: and the service records ``digest`` wherever its cache's digest
#: function actually runs (a disk-tier admission, inside ``admit``, and
#: an entry's first digest read).
PHASES = ("validate", "fingerprint", "cache_probe", "dispatch", "solve", "admit")

PHASE_HISTOGRAM = "repro_service_phase_seconds"
REQUEST_HISTOGRAM = "repro_service_request_seconds"


class Span:
    """One timed phase of one request (context manager).

    Records elapsed wall-clock into the phase histogram on exit,
    whether or not the body raised -- a phase that failed still spent
    the time.
    """

    __slots__ = ("_trace", "phase", "started", "elapsed")

    def __init__(self, trace: "Trace", phase: str) -> None:
        self._trace = trace
        self.phase = phase
        self.started = 0.0
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "Span":
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed = time.perf_counter() - self.started
        self._trace._record_phase(self.phase, self.elapsed)


class Trace:
    """The phase recorder for one request (see module docstring)."""

    __slots__ = ("registry", "family", "started", "finished")

    def __init__(self, registry: MetricsRegistry, family: str = "unknown") -> None:
        self.registry = registry
        self.family = family
        self.started = time.perf_counter()
        self.finished = False

    def span(self, phase: str) -> Span:
        return Span(self, phase)

    def _record_phase(self, phase: str, elapsed: float) -> None:
        # Resolved through the registry's hot-path instrument cache:
        # this runs several times per request, and the labeled fetch
        # (kwargs + sorted key build) would dominate a cache hit.
        cache = self.registry.trace_cache
        key = (PHASE_HISTOGRAM, phase, self.family)
        histogram = cache.get(key)
        if histogram is None:
            histogram = cache[key] = self.registry.histogram(
                PHASE_HISTOGRAM, phase=phase, family=self.family
            )
        histogram.observe(elapsed)

    def set_family(self, family: str) -> None:
        """Re-label once the family is known (it is computed mid-request,
        after validation -- the trace starts before the problem family
        can be cheaply determined)."""
        self.family = family

    def finish(self, status: str) -> float:
        """Observe the whole request under its outcome ``status``.

        Idempotent on repeat calls (the first wins) so error paths can
        finish defensively.  Returns total elapsed seconds.
        """
        elapsed = time.perf_counter() - self.started
        if not self.finished:
            self.finished = True
            cache = self.registry.trace_cache
            key = (REQUEST_HISTOGRAM, self.family, status)
            pair = cache.get(key)
            if pair is None:
                pair = cache[key] = (
                    self.registry.histogram(
                        REQUEST_HISTOGRAM, family=self.family, status=status
                    ),
                    self.registry.counter(
                        "repro_service_requests_total",
                        family=self.family,
                        status=status,
                    ),
                )
            pair[0].observe(elapsed)
            pair[1].inc()
        return elapsed


class _NullSpan:
    """Shared no-op span: zero allocation per phase when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTrace:
    """The disabled-telemetry trace: every operation is a no-op."""

    __slots__ = ()
    family = "unknown"

    def span(self, phase: str) -> _NullSpan:
        return _NULL_SPAN

    def set_family(self, family: str) -> None:
        return None

    def finish(self, status: str) -> float:
        return 0.0


#: The process-shared disabled trace (stateless, so one suffices).
NULL_TRACE = NullTrace()


def trace_request(registry: Optional[MetricsRegistry], family: str = "unknown"):
    """A :class:`Trace` into ``registry``, or :data:`NULL_TRACE` if
    telemetry is off (``registry is None``)."""
    if registry is None:
        return NULL_TRACE
    return Trace(registry, family=family)
