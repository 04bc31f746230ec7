"""Telemetry integration across the serving stack.

The acceptance contract of the observability layer:

* **Status labels** -- ``repro_service_requests_total`` splits by
  metrics status (``cold`` / ``hit`` / ``coalesced`` / ``delta``) and
  problem family (``line`` / ``tree``);
* **Phase coverage** -- a cold solve records every phase of the
  request lifecycle into ``repro_service_phase_seconds``;
* **Digest identity** -- telemetry on, telemetry off, and a direct
  :func:`solve_auto` call all serve the same bits;
* **SLO** -- per-family targets ride the same histograms, attainment
  is reported alongside the snapshot, and ``slo_targets`` without a
  registry is rejected;
* **Wire** -- ``{"op": "metrics"}`` answers with the snapshot, the
  SLO report, and a Prometheus rendering, while ``{"op": "stats"}``
  is unchanged -- and :func:`jsonable` encodes numpy scalars and
  dataclasses as numbers and dicts, not reprs.

No ``pytest-asyncio``: wire tests drive their own loop with
``asyncio.run``.
"""
import asyncio
import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.algorithms import solve_auto
from repro.obs import MetricsRegistry, SLOTracker, default_registry
from repro.obs.metrics import parse_series_key
from repro.obs.trace import PHASES
from repro.service import (
    AsyncSchedulingService,
    SchedulingService,
    SolveKnobs,
    SolveRequest,
    jsonable,
    report_semantic_digest,
)
from repro.workloads import build_trajectory, build_workload

KNOBS = dict(engine="incremental", mis="greedy", epsilon=0.25)


def make_request(name="bursty-lines", size=14, seed=1):
    return SolveRequest.from_workload(name, size, seed=seed, **KNOBS)


def direct_digest(name="bursty-lines", size=14, seed=1):
    report = solve_auto(
        build_workload(name, size, seed=seed), **{**KNOBS, "seed": seed}
    )
    return report_semantic_digest(report)


def series(snapshot_section, name, **labels):
    """Sum every series of *name* whose labels contain *labels*."""
    total = 0
    found = False
    for key, value in snapshot_section.items():
        base, got = parse_series_key(key)
        if base != name:
            continue
        if any(got.get(k) != v for k, v in labels.items()):
            continue
        found = True
        total += value["count"] if isinstance(value, dict) else value
    return total if found else None


class TestServiceTelemetry:
    def test_request_status_labels(self):
        registry = MetricsRegistry()
        service = SchedulingService(workers=2, metrics=registry)
        req = make_request()
        futures = [service.submit(req) for _ in range(4)]
        for fut in futures:
            fut.result()
        service.solve(req)  # a guaranteed post-resolution hit
        counters = registry.snapshot()["counters"]
        name = "repro_service_requests_total"
        assert series(counters, name, family="line", status="cold") == 1
        hits = series(counters, name, family="line", status="hit") or 0
        joined = series(counters, name, family="line", status="coalesced") or 0
        assert hits + joined == 4, (
            "every duplicate must count as a hit or a coalesced join"
        )
        assert hits >= 1
        assert series(counters, name, status="error") is None

    def test_cold_solve_records_every_phase(self):
        registry = MetricsRegistry()
        service = SchedulingService(workers=2, metrics=registry)
        service.solve(make_request())
        histograms = registry.snapshot()["histograms"]
        for phase in PHASES:
            # `validate` runs before the family is classified, so it is
            # labeled family="unknown"; every later phase carries the
            # real family.
            labels = {} if phase == "validate" else {"family": "line"}
            count = series(
                histograms, "repro_service_phase_seconds",
                phase=phase, **labels,
            )
            assert count and count >= 1, f"phase {phase!r} not recorded"
        assert series(
            histograms, "repro_service_request_seconds",
            family="line", status="cold",
        ) == 1

    def test_family_label_splits_line_and_tree(self):
        registry = MetricsRegistry()
        service = SchedulingService(workers=2, metrics=registry)
        service.solve(make_request("bursty-lines", 14))
        service.solve(make_request("multi-tenant-forest", 16))
        counters = registry.snapshot()["counters"]
        name = "repro_service_requests_total"
        assert series(counters, name, family="line", status="cold") == 1
        assert series(counters, name, family="tree", status="cold") == 1

    def test_solve_outcome_labels_cold_vs_delta(self):
        registry = MetricsRegistry()
        service = SchedulingService(
            workers=2, keep_artifacts=True, metrics=registry
        )
        trajectory = build_trajectory("tenant-churn", 16, seed=1, steps=3)
        knobs = SolveKnobs(**KNOBS)
        service.solve(SolveRequest(problem=trajectory[0].problem, knobs=knobs))
        for step in trajectory[1:]:
            service.solve_delta(
                SolveRequest(problem=step.problem, knobs=knobs)
            )
        snap = registry.snapshot()
        solve_name = "repro_service_solve_seconds"
        assert series(snap["histograms"], solve_name, outcome="cold") >= 1
        assert series(snap["histograms"], solve_name, outcome="delta") >= 1, (
            "warm delta re-solves must be attributable in the labels"
        )
        # The live DeltaStats fold into summable counters.
        assert series(
            snap["counters"], "repro_delta_requests_total", outcome="warm"
        ) >= 1
        # ... one per delta total, equal to it field by field, and no
        # other repro_delta_*_total counter exists.
        totals = service.stats["delta_totals"]
        for k, v in totals.items():
            assert series(snap["counters"], f"repro_delta_{k}_total") == v, k
        counter_fields = {
            name[len("repro_delta_"):-len("_total")]
            for name, _ in map(parse_series_key, snap["counters"])
            if name.startswith("repro_delta_") and name.endswith("_total")
        } - {"requests"}
        assert counter_fields == set(totals)
        assert set(totals) == {"networks_adopted"}

    def test_metrics_true_uses_the_process_default_registry(self):
        service = SchedulingService(workers=2, metrics=True)
        assert service.metrics is default_registry()
        assert service.metrics_registry() is default_registry()

    def test_metrics_off_by_default(self):
        service = SchedulingService(workers=2)
        assert service.metrics is None
        # The metrics op still answers: executor/pool gauges land in
        # the process default regardless.
        assert service.metrics_registry() is default_registry()
        assert service.metrics_snapshot()["slo"] is None


class TestDigestIdentity:
    def test_telemetry_never_changes_served_bits(self):
        req = make_request()
        with_metrics = SchedulingService(
            workers=2, metrics=MetricsRegistry(),
            slo_targets={"line": 5.0, "tree": 5.0},
        )
        without = SchedulingService(workers=2)
        expected = direct_digest()
        for service in (with_metrics, without):
            cold = service.solve(req)
            warm = service.solve(req)
            assert report_semantic_digest(cold.report) == expected
            assert report_semantic_digest(warm.report) == expected


class TestSLO:
    def test_slo_targets_require_a_registry(self):
        with pytest.raises(ValueError, match="metrics"):
            SchedulingService(workers=2, slo_targets={"line": 1.0})

    def test_generous_targets_are_met(self):
        service = SchedulingService(
            workers=2, metrics=MetricsRegistry(),
            slo_targets={"line": 60.0, "tree": 60.0},
        )
        service.solve(make_request())
        report = service.metrics_snapshot()["slo"]
        line = report["line"]
        assert line["target"] == 60.0
        assert line["observed"] == 1
        assert line["over_budget"] == 0
        assert line["met"] is True
        assert 0 < line["measured"] <= 60.0

    def test_impossible_target_counts_over_budget(self):
        service = SchedulingService(
            workers=2, metrics=MetricsRegistry(),
            slo_targets={"line": 1e-9},
        )
        service.solve(make_request())
        report = service.metrics_snapshot()["slo"]
        assert report["line"]["over_budget"] == 1
        assert report["line"]["met"] is False

    def test_tracker_standalone(self):
        registry = MetricsRegistry()
        tracker = SLOTracker(registry, targets={"line": 0.5})
        assert tracker.observe("line", 0.1) is False
        assert tracker.observe("line", 2.0) is True
        report = tracker.report()
        assert report["line"]["observed"] == 2
        assert report["line"]["over_budget"] == 1


class TestJsonable:
    """Satellite: numpy scalars and dataclasses must encode as
    numbers and dicts on the wire, not reprs."""

    def test_numpy_scalars_become_numbers(self):
        assert jsonable(np.int64(7)) == 7
        assert type(jsonable(np.int64(7))) is int
        assert jsonable(np.float64(2.5)) == 2.5
        assert type(jsonable(np.float64(2.5))) is float
        assert jsonable(np.bool_(True)) is True

    def test_dataclasses_become_dicts(self):
        @dataclass
        class Inner:
            hits: "np.int64"

        @dataclass
        class Outer:
            name: str
            inner: Inner

        encoded = jsonable(Outer(name="x", inner=Inner(hits=np.int64(3))))
        assert encoded == {"name": "x", "inner": {"hits": 3}}
        json.dumps(encoded)  # round-trips without a custom encoder

    def test_stats_wire_op_round_trips_numpy_counters(self):
        # The regression: a layer growing a numpy-typed stat must reach
        # the client as a JSON number, not its repr.  Real socket --
        # the bug lives in the wire encoding path.
        async def run():
            front = AsyncSchedulingService(capacity=8, workers=2)
            front.service._delta_totals["np_int"] = np.int64(41)
            front.service._delta_totals["np_float"] = np.float64(0.25)
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
        assert response["ok"]
        totals = response["stats"]["service"]["delta_totals"]
        assert totals["np_int"] == 41 and isinstance(totals["np_int"], int)
        assert totals["np_float"] == 0.25


class TestMetricsWireOp:
    def test_metrics_op_answers_snapshot_slo_and_text(self):
        async def run():
            front = AsyncSchedulingService(
                capacity=8, workers=2, metrics=MetricsRegistry(),
                slo_targets={"line": 60.0, "tree": 60.0},
            )
            host, port = await front.serve()
            reader, writer = await asyncio.open_connection(host, port)
            for i in range(2):
                wire = {"id": i, "workload": "bursty-lines", "size": 14,
                        "seed": 1, "knobs": KNOBS}
                writer.write(json.dumps(wire).encode() + b"\n")
                await writer.drain()
                json.loads(await reader.readline())
            writer.write(json.dumps({"id": 9, "op": "metrics"}).encode() + b"\n")
            await writer.drain()
            metrics = json.loads(await reader.readline())
            writer.write(json.dumps({"id": 10, "op": "stats"}).encode() + b"\n")
            await writer.drain()
            stats = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await front.drain()
            return metrics, stats

        metrics, stats = asyncio.run(run())
        assert metrics["ok"] and metrics["id"] == 9
        snap = metrics["metrics"]
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert series(
            snap["counters"], "repro_service_requests_total", family="line"
        ) == 2
        # Admission instruments ride the same registry.
        assert series(
            snap["histograms"], "repro_admission_wait_seconds"
        ) == 2
        assert series(snap["gauges"], "repro_admission_queue_depth") == 0
        assert series(snap["gauges"], "repro_admission_active") == 0
        assert metrics["slo"]["line"]["met"] is True
        assert "# TYPE repro_service_request_seconds histogram" in metrics["text"]
        assert "repro_service_request_seconds_bucket" in metrics["text"]
        # The stats op is unchanged alongside.
        assert stats["ok"] and "service" in stats["stats"]

    def test_metrics_op_answers_when_telemetry_is_off(self):
        async def run():
            front = AsyncSchedulingService(capacity=8, workers=2)
            host, port = await front.serve()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps({"id": 1, "op": "metrics"}).encode() + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await front.drain()
            return response

        response = asyncio.run(run())
        assert response["ok"]
        assert response["slo"] is None
        assert set(response["metrics"]) == {"counters", "gauges", "histograms"}
