"""One measurement, run in a fresh process by ``run.py``.

Every measurement first times its set-up: imports, service construction
and one warm-up request (input generation excluded).  ``--setup-only``
stops there.  Otherwise the process runs the timed closed loop for
``--seconds``, checks every answer and reconciles the service's counters
with its own log of the traffic.  Either way it prints one JSON object as
its last line of output.

Steadiness measures, each for a reason seen on a shared 2-vCPU VM:

* Each measurement runs in a fresh process, so no run inherits another's
  heap, caches or imported state, and set-up really pays the imports.
* The timed phase lasts ``--seconds`` of phase clock, 40 in
  ``BENCHMARK.json``.  The same fixed solve, timed back to back for five
  minutes, had medians over 10-second windows from 27.6 to 38.6 ms; the
  interquartile range over the median of window medians was 12% for
  10-second windows and 5% for 40-second ones.  Slow stretches of the
  shared host come and go within such a window, so a long phase averages
  them instead of landing in one.
* Inputs are generated with the phase clock stopped, one trajectory
  ahead of the request that sends it, and nothing lazy on them
  is touched: a user's fresh ``Problem`` pays for ``instances`` inside
  the request, and trajectory snapshots arrive unexpanded.  With only a
  few inputs in memory at once, the peak memory is the program's, not a
  pile of inputs sized to outlast the fastest program.
* ``gc.collect()`` then ``gc.freeze()`` after set-up, so the collector
  does not rescan the imported modules and set-up's objects during
  timing.
* Answer checks run between requests with the phase clock stopped, and
  answers are not kept, so peak memory does not grow with the number of
  requests a faster program completes, and the collector does not scan
  the benchmark's objects.  A sampled write keeps only its problem and
  the digest of its answer until it is re-solved after timing; keeping
  the whole answer held 17,000 more objects in a 20-second run.  The
  warm-up and cache-priming writes are checked too; they count as
  operations but not as samples.
* No percentile comes from fewer samples than its definition needs; the
  tail is the highest percentile with at least 10 samples beyond it.  It
  is estimated with the Harrell-Davis estimator, a weighted mean of the
  order statistics around it.
* Both tails are printed but are not bounded metrics.  In a 40-second
  churn-trees run 13 to 16 full collections each stopped the program for
  190 to 380 ms, longer as the run went on, and 9 or more of them fell in
  writes.  With about 350 writes the tail percentile sat on the edge
  between those writes and the cold ones of about 110 ms, and across five
  seeds the write tail ran from 118 to 242 ms, 47% of its median between
  the quartiles.  Reads take 1 to 14 ms, and in slow stretches of the
  shared host a few per cent of them were delayed by several
  milliseconds, so the read tail of identical runs spread by 65% of its
  median, whatever the estimator.
* A fixed pure-Python probe is timed before and after the timed phase.
  It only tells a slow machine from a slow program and never scales a
  metric: a fixed loop ran up to 1.7x slower in some 1-second windows
  than in others and varied by 6% between 10-second windows.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Samples a tail leaves beyond it.
TAIL_BEYOND = 10
#: Steps at the start of the timed phase over which the count metrics
#: are taken, and the fewest steps a run serves.
COUNT_STEPS = 48
#: PhaseCounters fields summed into the count metrics.
PHASE_COUNTERS = ("steps", "raises", "satisfaction_checks", "admission_checks")
#: Ordinals of solved writes whose answers are re-solved directly; the
#: first solved write of every outcome is added to them.
SAMPLE_ORDINALS = frozenset({0, 1, 2, 4, 8, 16, 32, 64, 128})


def probe_ms(reps: int = 9) -> float:
    """Median time of a fixed pure-Python loop."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def tail(values):
    """(value, percentile): the Harrell-Davis estimate of the highest
    percentile that leaves ``TAIL_BEYOND`` samples beyond it."""
    from scipy.stats import beta

    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    q = (n - TAIL_BEYOND) / n
    cdf = beta.cdf([i / n for i in range(n + 1)], (n + 1) * q, (n + 1) * (1 - q))
    value = sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(sorted(values)))
    return float(value), 100.0 * q


def median(values, what: str) -> float:
    if len(values) <= TAIL_BEYOND:
        raise ValueError(f"too few samples for {what}: {len(values)}")
    return statistics.median(values)


def phase_counters(report):
    """PhaseCounters of *report* and, recursively, of its parts."""
    if report.result is not None:
        yield report.result.counters
    for part in report.parts.values():
        yield from phase_counters(part)


class Tally:
    """Counts of the requests sent and of what the service answered.

    One tally covers the whole run and is reconciled with the service's
    counters; another covers the first ``COUNT_STEPS`` steps of the timed
    phase, whose work counts repeat exactly for a given seed however long
    the run lasts."""

    def __init__(self) -> None:
        self.requests = 0
        self.hits = 0
        self.solved = 0
        self.warm = 0
        self.write_hits = 0
        self.reads = 0
        self.read_hits = 0
        self.outcomes: Counter = Counter()
        self.totals: Counter = Counter()
        self.phase: Counter = Counter()

    def add(self, kind, result, matched=True) -> None:
        """One answer; *matched* tells whether a read was a hit on its
        write's fingerprint."""
        if kind == "read":
            self.reads += 1
            self.read_hits += matched
        if result.status == "hit":
            self.hits += 1
            self.write_hits += kind == "write"
            return
        self.solved += 1
        self.warm += result.status == "delta"
        if result.delta is not None:
            self.outcomes[result.delta.outcome] += 1
            self.totals.update(result.delta.numeric_counters())
        for counters in phase_counters(result.report):
            for key in PHASE_COUNTERS:
                self.phase[key] += getattr(counters, key)

    def reconcile(self, service, registry) -> list:
        """Every mismatch between the service's counters and this tally.
        A counter this tally saw that the service does not report at all
        is a mismatch too."""
        from repro.obs.metrics import parse_series_key

        stats = service.stats
        cache = stats["cache"]
        pairs = [
            ("requests", stats["requests"], self.requests),
            ("solves", stats["solves"], self.solved),
            ("coalesced", stats["coalesced"], 0),
            ("inflight", stats["inflight"], 0),
            ("cache.hits", cache["hits"], self.hits),
            ("cache.disk_hits", cache["disk_hits"], 0),
            ("cache.misses", cache["misses"], self.solved),
            ("delta_requests", stats["delta_requests"], sum(self.outcomes.values())),
        ]
        for name, served, sent in (
            ("delta_outcomes", stats["delta_outcomes"], self.outcomes),
            ("delta_totals", stats["delta_totals"], self.totals),
        ):
            for key in set(served) | set(sent):
                pairs.append((f"{name}.{key}", served.get(key, "missing"), sent[key]))
        if registry is not None:
            by_status: Counter = Counter()
            by_outcome: Counter = Counter()
            for key, value in registry.snapshot()["counters"].items():
                name, labels = parse_series_key(key)
                if name == "repro_service_requests_total":
                    by_status[labels["status"]] += value
                elif name == "repro_delta_requests_total":
                    by_outcome[labels["outcome"]] += value
            expected = {"hit": self.hits, "cold": self.solved - self.warm,
                        "delta": self.warm}
            for status in set(expected) | set(by_status):
                pairs.append((f"repro_service_requests_total{{status={status}}}",
                              by_status[status], expected.get(status, 0)))
            for outcome in set(self.outcomes) | set(by_outcome):
                pairs.append((f"repro_delta_requests_total{{outcome={outcome}}}",
                              by_outcome[outcome], self.outcomes[outcome]))
        return [f"{name}: service {got} != sent {want}"
                for name, got, want in pairs if got != want]

    def count_metrics(self) -> dict:
        """name -> (value, base of a ratio or ``None``)."""
        from repro.service import DELTA_OUTCOMES

        def ratio(num, den):
            return (num / den if den else 0.0), f"{num} of {den}"

        d = self.totals
        out = {f"delta.{k}": (self.outcomes[k], None) for k in DELTA_OUTCOMES}
        out["delta.hit"] = (self.write_hits, None)
        out["delta.epoch_replay_ratio"] = ratio(
            d["epochs_replayed"], d["epochs_replayed"] + d["epochs_rerun"])
        out["delta.admission_replay_ratio"] = ratio(
            d["admission_replayed"], d["admission_components"])
        out["delta.layouts_reused"] = (d["layouts_reused"], None)
        out["cache.read_hit_ratio"] = ratio(self.read_hits, self.reads)
        for key in ("steps", "raises", "satisfaction_checks"):
            out[f"phase1.{key}"] = (self.phase[key], None)
        out["phase2.admission_checks"] = (self.phase["admission_checks"], None)
        return out


def check_report(report) -> list:
    problems = []
    if not report.solution.is_feasible():
        problems.append("infeasible solution")
    if report.certified_ratio < 1:
        problems.append(f"certified_ratio {report.certified_ratio} < 1")
    return problems


def solve_directly(problem, knobs):
    from repro.algorithms.auto import solve_auto

    return solve_auto(
        problem, epsilon=knobs.epsilon, mis=knobs.mis, seed=knobs.seed,
        decomposition=knobs.decomposition, engine=knobs.engine,
        workers=knobs.workers, backend=knobs.backend,
        plan_granularity=knobs.plan_granularity,
        phase2_engine=knobs.phase2_engine,
    )


class Run:
    """The timed closed loop over one workload's problems."""

    def __init__(self, service, knobs, tracer):
        self.service = service
        self.knobs = knobs
        self.tracer = tracer
        #: The whole run, reconciled with the service's counters.
        self.ledger = Tally()
        #: The first ``COUNT_STEPS`` timed steps, for the count metrics.
        self.window = Tally()
        #: (kind, status, latency_s, traced, request id) per timed op.
        self.ops = []
        self.failures = []
        self.failed_ops = set()
        self.attempted = 0
        self.samples = {}
        self.solved_writes = 0
        self.phase_s = 0.0
        self._traced = False
        self._request_ids = itertools.count(1)

    def _fail(self, rid, message) -> None:
        self.failed_ops.add(rid)
        self.failures.append(f"request {rid}: {message}")

    def _request(self, problem):
        from repro.service import SolveRequest

        return SolveRequest(problem=problem, knobs=self.knobs)

    def _call(self, kind, fn, request):
        """(request id, result, latency in s) of one service call; the
        result is ``None`` when the call raised."""
        self.attempted += 1
        rid = next(self._request_ids)
        start = time.perf_counter()
        try:
            if self._traced:
                with self.tracer.request(rid):
                    result = fn(request)
            else:
                result = fn(request)
        except Exception as exc:  # a failed operation, counted and reported
            self._fail(rid, f"{kind} raised {type(exc).__name__}: {exc}")
            return rid, None, None
        return rid, result, time.perf_counter() - start

    def _check_write(self, rid, result, tallies, where) -> None:
        for message in check_report(result.report):
            self._fail(rid, f"{where}: {message}")
        for tally in tallies:
            tally.add("write", result)

    def untimed_write(self, problem, where) -> None:
        """A write outside the timed phase (the warm-up, the priming
        writes): checked and counted, but not a latency sample."""
        self.ledger.requests += 1
        rid, result, _ = self._call("write", self.service.solve_delta,
                                    self._request(problem))
        if result is not None:
            self._check_write(rid, result, (self.ledger,), where)

    def _account(self, index, problem, calls) -> None:
        """Check and count one step's answers: its write, then its reads."""
        from repro.service import report_semantic_digest

        tallies = (self.ledger, self.window) if index < COUNT_STEPS else (self.ledger,)
        for tally in tallies:
            tally.requests += len(calls)
        (wid, written, latency), *reads = calls
        if written is None:
            return
        self.ops.append(("write", written.status, latency, self._traced, wid))
        self._check_write(wid, written, tallies, f"write at step {index}")
        if written.status != "hit":
            outcome = written.delta.outcome if written.delta is not None else "cold"
            if self.solved_writes in SAMPLE_ORDINALS or outcome not in self.samples:
                self.samples.setdefault(outcome, []).append(
                    (wid, problem, written.fingerprint.short,
                     report_semantic_digest(written.report)))
            self.solved_writes += 1
        for rid, result, latency in reads:
            if result is None:
                continue
            self.ops.append(("read", result.status, latency, self._traced, rid))
            matched = result.status == "hit" and result.fingerprint == written.fingerprint
            if not matched:
                self._fail(
                    rid, f"read at step {index}: status {result.status}, fingerprint "
                    f"{result.fingerprint.short} vs write {written.fingerprint.short}")
            for tally in tallies:
                tally.add("read", result, matched)

    def go(self, problems, seconds) -> None:
        """Serve one step per problem for *seconds* of phase clock, and at
        least ``COUNT_STEPS`` steps.  The phase clock stops while the next
        problem is generated and while answers are checked."""
        from workloads import READS

        paused = 0.0
        start = time.perf_counter()
        with contextlib.ExitStack() as tracing:
            for index in itertools.count():
                # A traced run traces every other step, so the traced and
                # untraced halves sample the same stretch of every
                # trajectory.  Problems are generated untraced.
                traced = self.tracer is not None and index % 2 == 1
                if self._traced and not traced:
                    tracing.close()
                    self._traced = False
                stopped = time.perf_counter()
                problem = next(problems)
                paused += time.perf_counter() - stopped
                if index >= COUNT_STEPS and time.perf_counter() - start - paused >= seconds:
                    break
                if traced and not self._traced:
                    tracing.enter_context(self.tracer.installed(self.service))
                    self._traced = True
                calls = [self._call("write", self.service.solve_delta,
                                    self._request(problem))]
                if calls[0][1] is not None:
                    calls += [self._call("read", self.service.solve, self._request(problem))
                              for _ in range(READS)]
                stopped = time.perf_counter()
                self._account(index, problem, calls)
                paused += time.perf_counter() - stopped
        self.phase_s = time.perf_counter() - start - paused

    def verify_samples(self) -> int:
        """Re-solve the sampled writes directly; count digest mismatches."""
        from repro.service import report_semantic_digest

        checked = 0
        for outcome, sampled in sorted(self.samples.items()):
            for rid, problem, fingerprint, served in sampled:
                direct = solve_directly(problem, self.knobs)
                checked += 1
                if report_semantic_digest(direct) != served:
                    self._fail(rid, f"digest mismatch on a {outcome} write "
                                    f"(fingerprint {fingerprint})")
        return checked


def end_to_end(run, rss_mb) -> tuple:
    """(metrics, notes, info): the bounded metrics, a note per metric and
    the tails, which are printed without a bound."""
    writes = [lat for kind, status, lat, _, _ in run.ops if status != "hit"]
    reads = [lat for kind, status, lat, _, _ in run.ops if status == "hit"]
    metrics, notes = {}, {}
    for name, values in (("write", writes), ("read", reads)):
        metrics[f"{name}_p50_ms"] = median(values, f"{name}_p50_ms") * 1e3
        notes[f"{name}_p50_ms"] = f"n={len(values)}"
    info = {}
    for name, values in (("write", writes), ("read", reads)):
        value, pct = tail(values)
        info[f"{name}_tail_ms"] = [value * 1e3, "ms", f"p{pct:.1f} of n={len(values)}"]
    metrics["throughput_rps"] = len(run.ops) / run.phase_s
    notes["throughput_rps"] = f"{len(run.ops)} ops in {run.phase_s:.2f} s"
    metrics["peak_rss_mb"] = rss_mb
    return metrics, notes, info


def per_layer(run) -> tuple:
    from tracing import LAYERS, READ_LAYERS, profiles

    kinds = {rid: ("write" if status != "hit" else "read")
             for _, status, _, traced, rid in run.ops if traced}
    traced_profiles = profiles(run.tracer.spans)
    metrics, notes = {}, {}
    for kind, layers in (("write", LAYERS), ("read", READ_LAYERS)):
        members = [p for rid, p in traced_profiles.items() if kinds.get(rid) == kind]
        if not members:
            raise ValueError(f"no traced {kind} requests")
        total = sum(p.duration for p in members)
        for layer in layers:
            own = sum(p.self_s.get(layer, 0.0) for p in members)
            metrics[f"{layer}.{kind}_self_ms"] = own / len(members) * 1e3
            metrics[f"{layer}.{kind}_share"] = own / total
            notes[f"{layer}.{kind}_self_ms"] = f"over {len(members)} traced {kind}s"
    waits = [p.dispatch_wait for rid, p in traced_profiles.items()
             if kinds.get(rid) == "write" and p.dispatch_wait is not None]
    metrics["server.write_dispatch_wait_ms"] = statistics.fmean(waits) * 1e3
    traced = [lat for _, status, lat, t, _ in run.ops if status != "hit" and t]
    plain = [lat for _, status, lat, t, _ in run.ops if status != "hit" and not t]
    metrics["trace.overhead_pct"] = (
        median(traced, "traced write p50") / median(plain, "untraced write p50") - 1
    ) * 100
    notes["trace.overhead_pct"] = f"write p50, {len(traced)} traced vs {len(plain)} untraced"
    for name, (value, base) in run.window.count_metrics().items():
        metrics[name] = value
        notes[name] = f"first {COUNT_STEPS} steps" + (f", {base}" if base else "")
    return metrics, notes


def set_up(args) -> tuple:
    """(run, problems, set-up seconds): imports, service construction and
    the checked warm-up write, without the warm-up input's generation."""
    start = time.perf_counter()
    import workloads
    from repro.service import MetricsRegistry

    imported = time.perf_counter()
    problems = workloads.WORKLOADS[args.workload](args.seed)
    warmup = next(problems)
    built = time.perf_counter()
    registry = MetricsRegistry() if args.trace else None
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    run = Run(workloads.service(metrics=registry), workloads.knobs_for(args.seed), tracer)
    run.untimed_write(warmup, "warm-up write")
    done = time.perf_counter()
    return run, problems, (imported - start) + (done - built)


def timed(args) -> dict:
    run, problems, setup_s = set_up(args)
    import numpy

    service, registry = run.service, run.service.metrics
    gc.collect()
    gc.freeze()
    # Fill the result cache before timing: a serving process spends its
    # life with a full cache, and until it fills, the heap the collector
    # scans grows with every write (full collections went from 20 to
    # 160 ms over the first 128 churn-lines writes).  Frozen above, the
    # priming entries stay ordinary objects that are scanned and freed.
    for index in range(service.cache.capacity):
        run.untimed_write(next(problems), f"priming write {index}")
    probe_before = probe_ms()
    run.go(problems, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_after = probe_ms()
    sampled = run.verify_samples()
    mismatches = run.ledger.reconcile(service, registry)
    if args.trace:
        metrics, notes = per_layer(run)
        info = {}
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(spans)
        notes["spans"] = str(spans.relative_to(ROOT))
    else:
        metrics, notes, info = end_to_end(run, rss_mb)
    return {
        "metrics": metrics,
        "notes": notes,
        "info": info,
        "attempted": run.attempted,
        "failed": len(run.failed_ops),
        "failures": run.failures[:10],
        "mismatches": mismatches,
        "sampled_digests": sampled,
        "setup_s": setup_s,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpus": len(os.sched_getaffinity(0)),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
            "probe_before_ms": round(probe_before, 3),
            "probe_after_ms": round(probe_after, 3),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        run, _, setup_s = set_up(args)
        result = {"setup_s": setup_s, "failures": run.failures}
    else:
        result = timed(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
