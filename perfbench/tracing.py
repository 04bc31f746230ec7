"""Outside-in layer tracing: spans recorded around calls into each layer.

The benchmark does not change the program to trace it.  It replaces the
names a layer is reached through, at the module that calls them, with
wrappers that record a span (name, start, end, parent, request id,
thread) and then call the original.  :meth:`Tracer.installed` puts the
wrappers in place and restores the originals on exit, so the untraced
steps of a traced run execute the unmodified program.

Only one request is ever in flight (a closed loop with one client), so a
span opened on the service's pool thread, where solves run, belongs to
the request that is open at that moment; with nothing open on its own
thread its parent is that request's root span.

A layer's self time is its span's duration minus the part of that
interval its direct child spans cover (the union of the children,
clipped to the parent).  The root span of a request is the
``SchedulingService`` call itself, so its self time is the ``server``
layer: validation, locks, the cache probe and pool dispatch.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (module, attribute, layer): each name is wrapped in the module that
#: calls it, because ``from x import f`` binds ``f`` at the call site.
CALL_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.service.server", "solve_fingerprint", "fingerprint"),
    ("repro.service.server", "solve_auto", "solve"),
    ("repro.service.server", "delta_key", "delta_key"),
    ("repro.service.server", "diff_problems", "delta_diff"),
    ("repro.algorithms.unit_trees", "tree_layouts", "layout"),
    ("repro.algorithms.narrow_trees", "tree_layouts", "layout"),
    ("repro.algorithms.unit_lines", "line_layouts", "layout"),
    ("repro.algorithms.arbitrary_lines", "line_layouts", "layout"),
    ("repro.core.framework", "run_first_phase", "phase1"),
    ("repro.core.framework", "run_second_phase", "phase2"),
)

#: Every layer a span can be attributed to.  ``expand`` is the
#: ``Problem.instances`` cached property and ``digest`` the result
#: cache's ``digest_fn``; both are wrapped on their owning object.
LAYERS = (
    "server", "fingerprint", "delta_key", "delta_diff", "solve", "layout",
    "expand", "phase1", "phase2", "digest",
)
#: The layers a cache-served request passes through.
READ_LAYERS = ("server", "fingerprint")

ROOT = "server"


class Span:
    __slots__ = ("sid", "parent", "request", "name", "thread", "start", "end")

    def __init__(self, sid, parent, request, name, thread, start, end):
        self.sid = sid
        self.parent = parent
        self.request = request
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end

    def as_dict(self) -> dict:
        return {
            "id": self.sid, "parent": self.parent, "request": self.request,
            "name": self.name, "thread": self.thread,
            "start_ms": round(self.start * 1e3, 4),
            "end_ms": round(self.end * 1e3, 4),
        }


class Tracer:
    """Records spans in memory; :meth:`write` saves them at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request: Optional[int] = None
        self._root: Optional[int] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def request(self, request_id: int) -> Iterator[None]:
        """The root span of one request, opened around the service call."""
        sid = next(self._ids)
        self._request, self._root = request_id, sid
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._request = self._root = None
            self.spans.append(
                Span(sid, None, request_id, ROOT, threading.get_ident(), start, end)
            )

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """*fn* recording one *layer* span per call."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else self._root
            request = self._request
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(
                    Span(sid, parent, request, layer,
                         threading.get_ident(), start, end)
                )

        return traced

    @contextlib.contextmanager
    def installed(self, service) -> Iterator[None]:
        """Wrap every call site, ``Problem.instances`` and *service*'s
        cache ``digest_fn``; restore the originals on exit."""
        from repro.core.problem import Problem

        saved: List[Tuple[object, str, object]] = []
        for module_name, attr, layer in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original))
        original_instances = Problem.__dict__["instances"]
        traced_instances = functools.cached_property(
            self.wrap("expand", original_instances.func)
        )
        traced_instances.__set_name__(Problem, "instances")
        saved.append((Problem, "instances", original_instances))
        setattr(Problem, "instances", traced_instances)
        saved.append((service.cache, "digest_fn", service.cache.digest_fn))
        service.cache.digest_fn = self.wrap("digest", service.cache.digest_fn)
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Save every span as one JSON object per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")


def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class RequestProfile:
    """One traced request: per-layer self seconds and its dispatch wait."""

    __slots__ = ("request", "duration", "self_s", "dispatch_wait")

    def __init__(self, request, duration, self_s, dispatch_wait):
        self.request = request
        self.duration = duration
        self.self_s: Dict[str, float] = self_s
        self.dispatch_wait: Optional[float] = dispatch_wait


def profiles(spans: Sequence[Span]) -> Dict[int, RequestProfile]:
    """Per-request self times, keyed by request id."""
    by_request: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_request[span.request].append(span)
    out: Dict[int, RequestProfile] = {}
    for request, members in by_request.items():
        roots = [s for s in members if s.parent is None]
        if len(roots) != 1:
            raise ValueError(f"request {request} has {len(roots)} root spans")
        root = roots[0]
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in members:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        self_s: Dict[str, float] = defaultdict(float)
        for span in members:
            covered = _covered(children.get(span.sid, ()), span.start, span.end)
            self_s[span.name] += (span.end - span.start) - covered
        fingerprint_end = max(
            (s.end for s in members
             if s.name == "fingerprint" and s.thread == root.thread),
            default=None,
        )
        pool_start = min(
            (s.start for s in members if s.thread != root.thread), default=None
        )
        wait = (
            pool_start - fingerprint_end
            if pool_start is not None and fingerprint_end is not None
            else None
        )
        out[request] = RequestProfile(
            request, root.end - root.start, dict(self_s), wait
        )
    return out
